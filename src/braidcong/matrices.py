"""Exact integer matrix helpers on immutable tuple-of-rows values, and the
package's rules for integer arguments and lengths.

check_integer, check_integers and check_length are the one check of an
integer argument and of a row or vector length; every module checks by
them, and check_rows applies both to the rows of a matrix.  This module
imports nothing from the package, so loading it loads no other module.

Sparse vectors are dicts {index: entry} that hold no zero entries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache
from itertools import compress, count

IntMatrix = tuple[tuple[int, ...], ...]
SparseVector = dict[int, int]


def check_integer(what: str, value: int, low: int | None = None, high: int | None = None) -> None:
    """The package's one check of an integer parameter.

    The value must be an int and not a bool; then, when high is given, lie
    in low..high, and otherwise, when low is given, be at least low.
    """
    # a float or a bool compares like a number but is not an exact integer
    # input; a plain int, by far the most common, is passed on its type alone
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if high is not None:
        if not low <= value <= high:
            raise ValueError(f"{what} {value} out of range {low}..{high}")
    elif low is not None and value < low:
        bound = {0: "non-negative", 1: "positive"}.get(low, f"at least {low}")
        raise ValueError(f"{what} must be {bound}, got {value}")


def check_integers(what: str, values) -> None:
    """check_integer on each value, none of them bounded; an int costs only
    a type test."""
    for value in values:
        if type(value) is not int:
            check_integer(what, value)


def check_length(what: str, values, expected: int) -> None:
    """The package's one check of the length of a row or vector."""
    if len(values) != expected:
        raise ValueError(f"{what} has {len(values)} entries, expected {expected}")


def check_rows(rows, width: int) -> None:
    """check_length, then check_integers, on each row of a matrix."""
    for r, row in enumerate(rows):
        check_length(f"row {r}", row, width)
        check_integers("entry", row)


@cache
def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    check_rows(a, len(b))
    check_rows(b, len(b[0]) if b else 0)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    check_rows(a, len(v))
    check_integers("entry", v)
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def sparse(row: Sequence[int]) -> SparseVector:
    """The nonzero entries of a dense row, by position."""
    # compress finds the nonzero positions in C; only those entries are read
    return {k: row[k] for k in compress(count(), row)}


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
    check_rows(a, len(a[0]) if a else 0)
    return tuple(zip(*a))


def determinant(a: IntMatrix) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    check_rows(a, n)
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
