"""Integer Smith normal form with full transform tracking, plus exact solvers.

All arithmetic is arbitrary precision.  The decomposition satisfies
left * A * right = D with left and right unimodular and D diagonal with a
divisibility chain d_1 | d_2 | ... on its positive entries.  One sparse
elimination loop computes it, small pivots first (Havas, Holt and Rees,
"Recognizing badly presented Z-modules", Linear Algebra Appl. 192, 1993).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

from . import _EXPORTS
from .matrices import (
    IntMatrix,
    SparseVector,
    add_multiple,
    check_integer,
    check_integers,
    check_length,
    sparse,
    sparse_combination,
)

__all__ = list(_EXPORTS["smith"])


@dataclass(frozen=True)
class SmithForm:
    """A Smith decomposition left * A * right = D with sparse transforms.

    right_columns[c] is column c of right and right_inverse_rows[c] is row c
    of right^-1, each a dict {index: entry} without zeros.  Position t < rank
    holds the t-th kept pivot, in the order the elimination kept them; the
    rows and columns that never held a pivot follow in index order.

    left is not maintained during the elimination but stored as its log:
    row_operations lists each row operation (target, source, q), meaning
    row target minus q times row source, in the order they were done (a sign
    change of row p is (p, p, 2)), and row_order[t] is the row at position t.
    left_times applies the log to a vector, which gives left * b without
    left.  left, right and right_inverse are dense views built on first
    access, left column by column from left_times on the unit vectors.  Only
    test oracles and counters read these three: no library path does, and at
    (n, m) = (4, 4) they take about 640 MB.
    """

    rows: int
    cols: int
    diagonal: tuple[int, ...]
    rank: int
    row_operations: tuple[tuple[int, int, int], ...] = field(repr=False)
    row_order: tuple[int, ...] = field(repr=False)
    right_columns: tuple[SparseVector, ...] = field(repr=False)
    right_inverse_rows: tuple[SparseVector, ...] = field(repr=False)

    def left_times(self, vector) -> tuple[int, ...]:
        """left * vector, from the row-operation log."""
        out = list(vector)
        check_length("vector", out, self.rows)
        check_integers("entry", out)
        for target, source, q in self.row_operations:
            out[target] -= q * out[source]
        return tuple(out[r] for r in self.row_order)

    @cached_property
    def left(self) -> IntMatrix:
        # column r of left is left times the r-th unit vector
        columns = [self.left_times(_dense_row({r: 1}, self.rows)) for r in range(self.rows)]
        return tuple(zip(*columns))

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


def smith_normal_form(matrix, cols: int | None = None) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    cols is the column count.  When it is not given it is read from the
    first row, so a matrix without rows then has no columns.

    One sparse elimination loop.  While a unit entry (+-1) is left, the pivot
    is the unit of least Markowitz cost (row nonzeros - 1) * (column nonzeros
    - 1), so rows with a single unit entry go first; otherwise it is the
    entry of least absolute value, ties broken by row, then column.  A pass
    makes the pivot d positive, clears its column by row operations and its
    row by column operations, each with quotient entry // d.  A remainder
    (an entry below d) sends the loop back to pick again.  When the pivot
    stands alone but fails to divide a remaining entry, that entry's row is
    added to the pivot row and the same pivot is reduced again, which leaves
    a remainder.  Otherwise the pivot is kept.

    So units come first, and each kept pivot divides every later one: once d
    is kept every remaining entry is a multiple of d, and row and column
    operations keep it so.  The loop ends: at most min(rows, cols) pivots
    are kept, a unit pass always keeps its pivot, and any other pass either
    keeps it or leaves an entry below d, the least nonzero |entry| it
    started from.

    After a row operation only the entries at the pivot row's keys have
    changed, so only those are pushed on the heap when they are units; the
    row's other units are already on it, and a cost that has risen since is
    re-checked when popped.
    """
    matrix = list(matrix)
    nrows = len(matrix)
    ncols = cols
    if ncols is None:
        ncols = len(matrix[0]) if nrows else 0
    else:
        check_integer("column count", ncols, 0)
    for r, row in enumerate(matrix):
        # the label is formatted only for a bad row, so a good one costs a len
        if len(row) != ncols:
            check_length(f"row {r}", row, ncols)
    rows = [sparse(row) for row in matrix]
    # a zero entry never reaches the arithmetic, so only the nonzeros are read
    check_integers("entry", chain.from_iterable(map(dict.values, rows)))
    # holders[c]: the rows with a nonzero entry in column c
    holders: list[set[int]] = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c in row:
            holders[c].add(r)
    # the row-operation log of left; columns of right, rows of right^-1
    log: list[tuple[int, int, int]] = []
    right_cols = [{c: 1} for c in range(ncols)]
    rinv = [{c: 1} for c in range(ncols)]

    def cost(r: int, c: int) -> int:
        return (len(rows[r]) - 1) * (len(holders[c]) - 1)

    def put(r: int, k: int, z: int) -> None:
        # set entry (r, k) of the matrix to z
        row = rows[r]
        if z:
            if k not in row:
                holders[k].add(r)
            row[k] = z
            if z in (1, -1):
                heapq.heappush(heap, (cost(r, k), r, k))
        elif k in row:
            del row[k]
            holders[k].discard(r)

    heap = [
        (cost(r, c), r, c) for r, row in enumerate(rows) for c, x in row.items() if x in (1, -1)
    ]
    heapq.heapify(heap)
    pivots = []
    while True:
        while heap:
            stored, p, c = heapq.heappop(heap)
            if rows[p].get(c) in (1, -1):
                current = cost(p, c)
                if current <= stored:
                    break
                heapq.heappush(heap, (current, p, c))
        else:
            least = min(
                ((abs(x), r, k) for r, row in enumerate(rows) for k, x in row.items()),
                default=None,
            )
            if least is None:
                break
            _, p, c = least
        pivot_row = rows[p]
        if pivot_row[c] < 0:
            for k in pivot_row:
                pivot_row[k] = -pivot_row[k]
            log.append((p, p, 2))
        d = pivot_row[c]
        # row p leaves the matrix while its pivot is reduced
        for k in pivot_row:
            holders[k].discard(p)
        while True:
            # a copy: rows whose entry in column c reaches 0 leave holders[c]
            for r in tuple(holders[c]):
                row = rows[r]
                q = row[c] // d
                for k, y in pivot_row.items():
                    z = row.get(k, 0) - q * y
                    if z:
                        if k not in row:
                            holders[k].add(r)
                        row[k] = z
                    else:
                        del row[k]
                        holders[k].discard(r)
                log.append((r, p, q))
                for k in pivot_row:
                    if row.get(k) in (1, -1):
                        heapq.heappush(heap, (cost(r, k), r, k))
            # column k minus q_k times column c, for each k in row p; holders[c]
            # now holds the column remainders, so the matrix changes only in
            # those rows and row p.  Row c of right^-1 gains q_k times row k.
            quotients = {k: x // d for k, x in pivot_row.items()}
            for k, q in quotients.items():
                if k != c and q:
                    add_multiple(right_cols[k], right_cols[c], q)
                    for r in holders[c]:
                        put(r, k, rows[r].get(k, 0) - q * rows[r][c])
            rinv[c] = sparse_combination(quotients, rinv)
            rest = {k: x % d for k, x in pivot_row.items() if x % d}
            if rest or holders[c]:
                # a remainder: row p goes back into the matrix
                rows[p] = {}
                for k, x in {c: d, **rest}.items():
                    put(p, k, x)
                break
            # d stands alone; it must divide every entry left, or the first
            # row holding an entry it does not divide joins the pivot row
            offender = None
            if d > 1:
                offender = next(
                    (r for r, row in enumerate(rows)
                     if r != p and any(x % d for x in row.values())),
                    None,
                )
            if offender is None:
                rows[p] = {}
                pivots.append((p, c, d))
                break
            pivot_row = rows[p] = {c: d, **rows[offender]}
            log.append((p, offender, -1))

    # pivots first, then the rows and columns that were left empty without one
    row_order = [p for p, _, _ in pivots]
    col_order = [c for _, c, _ in pivots]
    row_order += sorted(set(range(nrows)).difference(row_order))
    col_order += sorted(set(range(ncols)).difference(col_order))
    diagonal = tuple(d for _, _, d in pivots)
    diagonal += (0,) * (min(nrows, ncols) - len(diagonal))
    return SmithForm(
        rows=nrows,
        cols=ncols,
        diagonal=diagonal,
        rank=len(pivots),
        row_operations=tuple(log),
        row_order=tuple(row_order),
        right_columns=tuple(right_cols[c] for c in col_order),
        right_inverse_rows=tuple(rinv[c] for c in col_order),
    )


def _dense_row(row: dict, length: int) -> tuple[int, ...]:
    # only the dense views of SmithForm call this
    out = [0] * length
    for k, x in row.items():
        out[k] = x
    return tuple(out)


def solve_integer(a, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """An integer solution x of a x = b, or None when none exists.

    With left * a * right = D, x = right y for y solving D y = left b; left b
    comes from replaying the Smith form's row-operation log on b, so left is
    never built; replaying it checks that b has one entry per row of a.
    """
    s = smith_normal_form(a)
    # y solves D y = left b; then x = right y
    y = {}
    for t, ub in enumerate(s.left_times(b)):
        d = s.diagonal[t] if t < len(s.diagonal) else 0
        if d:
            if ub % d:
                return None
            y[t] = ub // d
        elif ub:
            return None
    x = sparse_combination(y, s.right_columns)
    return tuple(x.get(r, 0) for r in range(s.cols))


def kernel_basis(a) -> tuple[tuple[int, ...], ...]:
    """A basis of the integer kernel lattice {x : a x = 0}."""
    s = smith_normal_form(a)
    return tuple(
        tuple(column.get(r, 0) for r in range(s.cols))
        for column in s.right_columns[s.rank :]
    )
