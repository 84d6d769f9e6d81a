"""Integer Smith normal form with full transform tracking, plus exact solvers.

All arithmetic is arbitrary precision.  The decomposition satisfies
left * A * right = D with left and right unimodular and D diagonal with a
divisibility chain d_1 | d_2 | ... on its positive entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property

from .matrices import (
    IntMatrix,
    SparseVector,
    add_multiple,
    identity,
    sparse,
    sparse_combination,
)

__all__ = ["SmithForm", "smith_normal_form", "solve_integer", "kernel_basis"]


@dataclass(frozen=True)
class SmithForm:
    """A Smith decomposition left * A * right = D with sparse transforms.

    left_rows[r] is row r of left, right_columns[c] is column c of right and
    right_inverse_rows[c] is row c of right^-1, each a dict {index: entry}
    without zeros.  The dense left, right and right_inverse are views built
    on first access, for test oracles and counters only: no library path
    reads them, and at (n, m) = (4, 4) the three take about 640 MB.
    """

    rows: int
    cols: int
    diagonal: tuple[int, ...]
    rank: int
    left_rows: tuple[SparseVector, ...] = field(repr=False)
    right_columns: tuple[SparseVector, ...] = field(repr=False)
    right_inverse_rows: tuple[SparseVector, ...] = field(repr=False)

    @cached_property
    def left(self) -> IntMatrix:
        return tuple(_dense_row(row, self.rows) for row in self.left_rows)

    @cached_property
    def right(self) -> IntMatrix:
        columns = [_dense_row(column, self.cols) for column in self.right_columns]
        return tuple(zip(*columns))

    @cached_property
    def right_inverse(self) -> IntMatrix:
        return tuple(_dense_row(row, self.cols) for row in self.right_inverse_rows)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal entries greater than 1 (the torsion factors)."""
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(matrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Two stages.  Sparse elimination first takes unit pivots (entries +-1) of
    least Markowitz cost (row nonzeros - 1) * (column nonzeros - 1), so rows
    with a single unit entry go first; each pivot clears its column by row
    operations and its row by column operations.  The residual block, which
    has no unit entry left, is then reduced by the dense smallest-entry loop
    of _dense_smith, and its transforms are composed into the sparse ones.
    """
    matrix = list(matrix)
    rows = [sparse(row) for row in matrix]
    nrows = len(rows)
    ncols = len(matrix[0]) if nrows else 0
    # holders[c]: the rows with a nonzero entry in column c
    holders: list[set[int]] = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    # sparse transforms: rows of left, columns of right, rows of right^-1
    left = [{r: 1} for r in range(nrows)]
    right_cols = [{c: 1} for c in range(ncols)]
    rinv = [{c: 1} for c in range(ncols)]

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(holders[c]) - 1)

    heap = [
        (cost(r, c), r, c) for r, row in enumerate(rows) for c, x in row.items() if x in (1, -1)
    ]
    heapq.heapify(heap)
    pivots = []
    while heap:
        stored, p, c = heapq.heappop(heap)
        x = rows[p].get(c)
        if x not in (1, -1):
            continue
        current = cost(p, c)
        if current > stored:
            heapq.heappush(heap, (current, p, c))
            continue
        pivot_row = rows[p]
        if x < 0:
            for k in pivot_row:
                pivot_row[k] = -pivot_row[k]
            left[p] = {k: -y for k, y in left[p].items()}
        for k in pivot_row:
            holders[k].discard(p)
        for r in holders[c]:
            row = rows[r]
            q = row[c]
            for k, y in pivot_row.items():
                z = row.get(k, 0) - q * y
                if z:
                    if k not in row:
                        holders[k].add(r)
                    row[k] = z
                else:
                    del row[k]
                    if k != c:
                        holders[k].discard(r)
            add_multiple(left[r], left[p], q)
            for k, z in row.items():
                if z in (1, -1):
                    heapq.heappush(heap, (cost(r, k), r, k))
        holders[c] = set()
        # column c now holds only the pivot, so clearing row p by column
        # operations changes the transforms and not the remaining matrix
        for k, q in pivot_row.items():
            if k != c:
                add_multiple(right_cols[k], right_cols[c], q)
        rinv[c] = pivot_row
        rows[p] = {}
        pivots.append((p, c))

    # the residual block: rows and columns that still hold a nonzero entry
    res_rows = [r for r in range(nrows) if rows[r]]
    res_cols = [c for c in range(ncols) if holders[c]]
    col_pos = {c: j for j, c in enumerate(res_cols)}
    block = [[0] * len(res_cols) for _ in res_rows]
    for i, r in enumerate(res_rows):
        for c, x in rows[r].items():
            block[i][col_pos[c]] = x
    dense = _dense_smith(block, len(res_cols))

    # pivots first, then the residual block, then the rows and columns
    # that were left empty without a pivot
    pivot_rows = {p for p, _ in pivots}
    pivot_cols = {c for _, c in pivots}
    spare_rows = [r for r in range(nrows) if not rows[r] and r not in pivot_rows]
    spare_cols = [c for c in range(ncols) if not holders[c] and c not in pivot_cols]
    row_order = [left[p] for p, _ in pivots]
    row_order += [_combine(coeffs, res_rows, left) for coeffs in dense.left_rows]
    row_order += [left[r] for r in spare_rows]
    columns = [right_cols[c] for _, c in pivots]
    columns += [_combine(coeffs, res_cols, right_cols) for coeffs in dense.right_columns]
    columns += [right_cols[c] for c in spare_cols]
    inverse = [rinv[c] for _, c in pivots]
    inverse += [_combine(coeffs, res_cols, rinv) for coeffs in dense.right_inverse_rows]
    inverse += [rinv[c] for c in spare_cols]

    diagonal = (1,) * len(pivots) + dense.diagonal
    diagonal += (0,) * (min(nrows, ncols) - len(diagonal))
    return SmithForm(
        rows=nrows,
        cols=ncols,
        diagonal=diagonal,
        rank=sum(1 for d in diagonal if d),
        left_rows=tuple(row_order),
        right_columns=tuple(columns),
        right_inverse_rows=tuple(inverse),
    )


def _combine(coeffs: SparseVector, keys: list[int], vectors: list[dict]) -> dict:
    # sum of coeffs[j] * vectors[keys[j]] as a sparse vector
    return sparse_combination({keys[j]: q for j, q in coeffs.items()}, vectors)


def _dense_row(row: dict, length: int) -> tuple[int, ...]:
    # only the dense views of SmithForm call this
    out = [0] * length
    for k, x in row.items():
        out[k] = x
    return tuple(out)


def _dense_smith(matrix, ncols: int) -> SmithForm:
    """The dense smallest-entry Smith loop on a list of rows with ncols columns.

    Pivot choice is the smallest nonzero entry of the trailing block by
    absolute value, which keeps intermediate entries small in practice.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    left = [list(row) for row in identity(nrows)]
    right = [list(row) for row in identity(ncols)]
    rinv = [list(row) for row in identity(ncols)]

    def row_op(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        mrow = m[src]
        for c in range(ncols):
            m[dst][c] -= q * mrow[c]
        lrow = left[src]
        for c in range(nrows):
            left[dst][c] -= q * lrow[c]

    def col_op(dst: int, src: int, q: int) -> None:
        # column dst minus q times column src; keep right and its inverse in sync
        if q == 0:
            return
        for r in range(nrows):
            m[r][dst] -= q * m[r][src]
        for r in range(ncols):
            right[r][dst] -= q * right[r][src]
        rrow = rinv[dst]
        srow = rinv[src]
        for c in range(ncols):
            srow[c] += q * rrow[c]

    def swap_rows(a: int, b: int) -> None:
        if a != b:
            m[a], m[b] = m[b], m[a]
            left[a], left[b] = left[b], left[a]

    def swap_cols(a: int, b: int) -> None:
        if a == b:
            return
        for r in range(nrows):
            m[r][a], m[r][b] = m[r][b], m[r][a]
        for r in range(ncols):
            right[r][a], right[r][b] = right[r][b], right[r][a]
        rinv[a], rinv[b] = rinv[b], rinv[a]

    def negate_row(r: int) -> None:
        m[r] = [-x for x in m[r]]
        left[r] = [-x for x in left[r]]

    t = 0
    bound = min(nrows, ncols)
    while t < bound:
        # locate the smallest nonzero entry of the trailing block
        best = None
        for r in range(t, nrows):
            for c in range(t, ncols):
                v = m[r][c]
                if v != 0 and (best is None or abs(v) < abs(m[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if m[t][t] < 0:
            negate_row(t)
        pivot = m[t][t]
        dirty = False
        for r in range(t + 1, nrows):
            if m[r][t]:
                row_op(r, t, m[r][t] // pivot)
                if m[r][t]:
                    dirty = True
        for c in range(t + 1, ncols):
            if m[t][c]:
                col_op(c, t, m[t][c] // pivot)
                if m[t][c]:
                    dirty = True
        if dirty:
            continue
        # enforce the divisibility chain before advancing
        offender = None
        for r in range(t + 1, nrows):
            for c in range(t + 1, ncols):
                if m[r][c] % pivot:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1

    diagonal = tuple(m[k][k] for k in range(bound))
    rank = sum(1 for d in diagonal if d)
    return SmithForm(
        rows=nrows,
        cols=ncols,
        diagonal=diagonal,
        rank=rank,
        left_rows=tuple(map(sparse, left)),
        right_columns=tuple(map(sparse, zip(*right))),
        right_inverse_rows=tuple(map(sparse, rinv)),
    )


def solve_integer(a, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """An integer solution x of a x = b, or None when none exists."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(b) != nrows:
        raise ValueError(f"length mismatch: {nrows} rows vs {len(b)} entries")
    s = smith_normal_form(a)
    # y solves D y = left b; then x = right y
    y = {}
    for t, row in enumerate(s.left_rows):
        ub = sum(x * b[k] for k, x in row.items())
        d = s.diagonal[t] if t < len(s.diagonal) else 0
        if d:
            if ub % d:
                return None
            y[t] = ub // d
        elif ub:
            return None
    x = sparse_combination(y, s.right_columns)
    return tuple(x.get(r, 0) for r in range(ncols))


def kernel_basis(a) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer kernel lattice {x : a x = 0}."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    s = smith_normal_form(a)
    return tuple(
        tuple(column.get(r, 0) for r in range(ncols))
        for column in s.right_columns[s.rank :]
    )
