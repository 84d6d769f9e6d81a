"""Exact integer matrix helpers on immutable tuple-of-rows values.

Sparse vectors are dicts {index: entry} that hold no zero entries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache
from itertools import compress

IntMatrix = tuple[tuple[int, ...], ...]
SparseVector = dict[int, int]


@cache
def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    if a and len(v) != len(a[0]):
        raise ValueError(f"length mismatch: {len(a[0])} columns vs {len(v)} entries")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def sparse(row: Sequence[int]) -> SparseVector:
    """The nonzero entries of a dense row, by position."""
    return dict(compress(enumerate(row), row))


def add_multiple(dst: SparseVector, src: SparseVector, q: int) -> None:
    """dst -= q * src, in place."""
    for k, x in src.items():
        y = dst.get(k, 0) - q * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def sparse_combination(
    coeffs: Mapping[int, int], vectors: Sequence[SparseVector]
) -> SparseVector:
    """The sum of q * vectors[k] over the entries k: q of coeffs."""
    out: SparseVector = {}
    for k, q in coeffs.items():
        if q:
            add_multiple(out, vectors[k], -q)
    return out


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def determinant(a: IntMatrix) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            pivot = next((r for r in range(t + 1, n) if m[r][t] != 0), None)
            if pivot is None:
                return 0
            m[t], m[pivot] = m[pivot], m[t]
            sign = -sign
        for r in range(t + 1, n):
            for c in range(t + 1, n):
                m[r][c] = (m[r][c] * m[t][t] - m[r][t] * m[t][c]) // prev
            m[r][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]
