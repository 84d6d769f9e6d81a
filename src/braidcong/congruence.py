"""Level-m congruence subgroups: membership, finite images, abelianizations.

The level-m subgroup is the kernel of the mod-m representation, so its cosets
are the elements of the finite matrix image, and the breadth-first walk over
image matrices is its coset table, with its search tree as the transversal.
Subgroup abelianizations come from Schreier rewriting of the Artin relators
against that table, followed by an integer Smith normal form.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

from . import _EXPORTS, matrices
# mat_mul stays bound here: perfbench/tracing.py traces congruence.mat_mul
from .matrices import IntMatrix, SparseVector, mat_mul  # noqa: F401
from .matrices import check_integer
from .burau import _is_identity_mod, _right_multiply
from .smith import smith_normal_form
from .words import (
    BraidWord,
    _checked_word,
    artin_relators,
    check_modulus,
    check_same_strands,
    check_strand_count,
)

__all__ = list(_EXPORTS["congruence"])


class LimitExceeded(RuntimeError):
    """The image enumeration, and so the coset table, passed its size cap.

    Only enumerate_image raises it; partial is the element (= coset) count.
    """

    def __init__(self, message: str, partial: int | None = None):
        super().__init__(message)
        self.partial = partial


def is_member(w: BraidWord, m: int) -> bool:
    """Whether a word lies in the level-m congruence subgroup.

    Row 0 of the word's mod-m image is walked first, and the other rows only
    when row 0 comes back to e_0.  The answer is exact: row r of g * sigma
    is (row r of g) * sigma, so each row of the image is the product of its
    identity row with the letters, walked on its own.
    """
    return _is_identity_mod(w, m)


def letter_order(n: int) -> tuple[int, ...]:
    """The fixed letter scan order: each index, positive sign before negative."""
    check_strand_count(n)
    return tuple(s * i for i in range(1, n) for s in (1, -1))


def _letter_pos(letter: int) -> int:
    # the position of a letter in letter_order, and so in each element's
    # run of ImageGroup.edges
    return 2 * abs(letter) - (2 if letter > 0 else 1)


def _row_letter(row: tuple[int, ...], letter: int, m: int) -> tuple[int, ...]:
    # one matrix row times a generator image
    out = list(row)
    _right_multiply([out], (letter,), m)
    return tuple(out)


@dataclass(frozen=True)
class ImageGroup:
    """The finite image of the mod-m representation, numbered in BFS order.

    Element 0 is the identity.  Discovery scans elements in numbering order
    and letters in letter_order.  The table is flat, one entry per edge: with
    width = len(letters), edges[k * width + t] is the element reached from
    element k by right multiplication with letters[t].  tree[k] is the index
    into edges of the edge that first reached element k, so its parent is
    tree[k] // width and its letter letters[tree[k] % width]; these edges
    form the breadth-first tree, and tree[0], for the identity, is unused.

    Row r of g x is (row r of g) x, so every row of every element lies in the
    orbit of the unit rows.  rows holds the orbit rows the search met, unit
    rows first, in discovery order, and elements[k] is the tuple of the n row
    numbers of element k; row_images[t][r] is the number of rows[r] times
    letter letters[t].  The tables cover every row of every element, but not
    the rows met only as images.

    The elements are the cosets of the level-m subgroup: coset c is element
    c - 1, and trace and transversal take 1-based coset numbers, so a word w
    reaches element trace(1, w) - 1.
    """

    n: int
    m: int
    letters: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]
    edges: tuple[int, ...]
    tree: array = field(compare=False, repr=False)
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    row_images: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    def matrix(self, k: int) -> IntMatrix:
        """Element k as rows with entries in [0, m)."""
        check_integer("element", k, 0, self.size - 1)
        return tuple(map(self.rows.__getitem__, self.elements[k]))

    def trace(self, coset: int, w: BraidWord) -> int:
        check_same_strands(w.n, self.n)
        check_integer("coset", coset, 1, self.size)
        width, edges = len(self.letters), self.edges
        x = coset - 1
        for letter in w.letters:
            x = edges[x * width + _letter_pos(letter)]
        return x + 1

    def transversal(self, coset: int) -> BraidWord:
        """The tree word carrying coset 1 to the given coset."""
        check_integer("coset", coset, 1, self.size)
        # walk the tree back to the identity; every letter is in letter_order
        width, tree = len(self.letters), self.tree
        letters: list[int] = []
        k = coset - 1
        while k:
            k, t = divmod(tree[k], width)
            letters.append(self.letters[t])
        return _checked_word(self.n, tuple(reversed(letters)))


def enumerate_image(n: int, m: int, element_cap: int = 10**6) -> ImageGroup:
    """Breadth-first closure of the generator images and their inverses.

    A state is the tuple of its n row numbers in the orbit of the unit rows,
    used directly as a dict key; a letter maps each row number through that
    letter's table.  The search scans one breadth-first level at a time, the
    states found but not yet scanned: it grows the tables for the rows of
    that level only, then forms every product of the level, state by state
    and each state's letters in letter_order, so the numbering is that of a
    scan of one state at a time.  A search stopped by the cap never closes
    the whole row orbit, which can have about m^(n-1) rows.
    """
    check_strand_count(n)
    check_modulus(m)
    check_integer("cap", element_cap, 1)
    letters = letter_order(n)
    width = len(letters)
    rows = list(matrices.identity(n))
    row_index = {r: k for k, r in enumerate(rows)}
    tables: list[list[int]] = [[] for _ in letters]
    filled = tables[0]
    start = tuple(range(n))
    states = [start]
    number = {start: 0}.setdefault
    tree = array("q", [0])
    edges: list[int] = []
    k = 0
    while k < len(states):
        level = states[k:]
        top = max(map(max, level))
        while len(filled) <= top:
            source = rows[len(filled)]
            for letter, table in zip(letters, tables):
                image = _row_letter(source, letter, m)
                r = row_index.get(image)
                if r is None:
                    r = row_index[image] = len(rows)
                    rows.append(image)
                table.append(r)
        flat = list(chain.from_iterable(level))
        # per letter, the products of the level's states in order, n rows each
        products = [zip(*[map(table.__getitem__, flat)] * n) for table in tables]
        targets: list[int] = []
        size = len(states)
        # state by state, each state's letters in letter_order
        for product in chain.from_iterable(zip(*products)):
            target = number(product, size)
            if target == size:
                if size >= element_cap:
                    raise LimitExceeded(
                        f"image of ({n}, {m}) exceeds the cap {element_cap}; "
                        f"partial size {size}",
                        partial=size,
                    )
                states.append(product)
                tree.append(k * width + len(targets))
                size += 1
            targets.append(target)
        edges += targets
        k += len(level)
    # the state numbers are no longer needed; free them before the copies
    del number
    return ImageGroup(
        n=n,
        m=m,
        letters=letters,
        elements=tuple(states),
        edges=tuple(edges),
        tree=tree,
        rows=tuple(rows),
        row_images=tuple(map(tuple, tables)),
    )


def image_center(group: ImageGroup) -> tuple[int, ...]:
    """Elements commuting with every generator image, as element numbers.

    Each element is tested on its row numbers.  For a positive letter
    sigma_i with table R, g sigma_i = sigma_i g exactly when R fixes every
    row of g but rows i and i+1, maps row i+1 to row i, and maps row i to
    2 row_i - row_(i+1).  The last follows from the one before: the block
    of sigma_i satisfies sigma_i^2 = 2 sigma_i - I (Cayley-Hamilton), so
    row_i sigma_i = row_(i+1) sigma_i^2 = 2 row_i - row_(i+1), and only
    the first two are tested.
    """
    n = group.n
    tests = []
    for letter, table in zip(group.letters, group.row_images):
        if letter > 0:
            others = [r for r in range(n) if r not in (letter - 1, letter)]
            tests.append((letter - 1, letter, table, others))
    central = []
    for k, ids in enumerate(group.elements):
        for a, b, table, others in tests:
            if table[ids[b]] != ids[a] or any(
                table[ids[r]] != ids[r] for r in others
            ):
                break
        else:
            central.append(k)
    return tuple(central)


def coset_table(n: int, m: int, element_cap: int = 10**6) -> ImageGroup:
    """Coset table of the level-m subgroup: the enumerated image itself."""
    # not an alias: perfbench/tracing.py wraps by identity, so one would merge layers
    return enumerate_image(n, m, element_cap)


def _rewrite(table: ImageGroup, start: int, letters: Sequence[int]) -> tuple[SparseVector, int]:
    # Schreier rewriting: walk the letters from a 0-based coset, summing one
    # exponent per (coset, generator index) coordinate; returns the nonzero
    # sums and the final coset
    n, width, edges = table.n, len(table.letters), table.edges
    coords: SparseVector = {}
    x = start
    for letter in letters:
        y = edges[x * width + _letter_pos(letter)]
        k = _edge_coordinate(n, x, y, letter)
        coords[k] = coords.get(k, 0) + (1 if letter > 0 else -1)
        x = y
    return {k: e for k, e in coords.items() if e}, x


def subgroup_coordinates(table: ImageGroup, w: BraidWord) -> SparseVector:
    """Exponents of a subgroup member over the Schreier generators.

    Returns {coordinate: exponent} without zeros.  Coordinate c*(n-1) + (i-1)
    counts the generator of 0-based coset c and braid index i.  Raises when
    the word is not in the subgroup.
    """
    check_same_strands(w.n, table.n)
    coords, final = _rewrite(table, 0, w.letters)
    if final != 0:
        raise ValueError("word is not a member of the subgroup")
    return coords


@dataclass(frozen=True)
class AbelianizationResult:
    """Abelian invariants of the level-m subgroup with change-of-basis data.

    The subgroup abelianization is Z^free_rank plus one cyclic factor per
    invariant factor.  The Schreier generators on search tree edges are
    trivial, so the relation matrix has a column only for each of the others,
    and coordinates transform by the right matrix R of its Smith form: for an
    exponent vector x over the Schreier generators, x R has its torsion
    coordinates first (positions with nonzero diagonal) and its free
    coordinates at positions rank.. of the diagonal.  R's rows are indexed by
    Schreier coordinate and the rows of tree coordinates are empty, so tree
    coordinates project to zero.  R is kept as sparse columns
    (right_columns[j] = {k: R[k][j]}) and R^-1 as sparse rows
    (right_inverse_rows[j] = {k: R^-1[j][k]}), both keyed by Schreier
    coordinate.  num_generators counts all Schreier generators, tree ones
    included.  The strand count and level are table.n and table.m.
    """

    table: ImageGroup
    num_generators: int
    num_relations: int
    diagonal: tuple[int, ...]
    rank: int
    invariant_factors: tuple[int, ...]
    free_rank: int
    right_columns: tuple[SparseVector, ...] = field(repr=False)
    right_inverse_rows: tuple[SparseVector, ...] = field(repr=False)

    def free_coordinates(self, x: SparseVector) -> tuple[int, ...]:
        """Project an exponent vector to the free part of the abelianization.

        x is {coordinate: exponent}, as subgroup_coordinates returns.
        """
        degree = self.num_generators
        for k, e in x.items():
            check_integer("coordinate", k, 0, degree - 1)
            check_integer("exponent", e)
        return tuple(
            sum(column.get(k, 0) * e for k, e in x.items())
            for column in self.right_columns[self.rank :]
        )


def abelianization(n: int, m: int, coset_cap: int = 10_000) -> AbelianizationResult:
    """Abelianization of the level-m subgroup by Schreier rewriting plus SNF.

    Relation rows are the rewritten Artin relators traced from every coset,
    over the Schreier generators off the search tree only: a tree edge's
    generator is trivial, so its column is dropped instead of being killed by
    a unit row.  The Smith normal form's one elimination loop takes unit
    pivots of least fill first.  Its right transforms come back keyed by
    Schreier coordinate.  The index is the image order, so coset_cap is the
    element cap of enumerate_image, whose check and LimitExceeded it shares.
    """
    table = coset_table(n, m, coset_cap)
    rows, columns = _relation_rows(table)
    # n = 2 has no relators, so the column count cannot come from a row
    form = smith_normal_form(rows, cols=len(columns))
    return AbelianizationResult(
        table=table,
        num_generators=table.size * (n - 1),
        num_relations=form.rows,
        diagonal=form.diagonal,
        rank=form.rank,
        invariant_factors=form.invariant_factors,
        free_rank=form.cols - form.rank,
        right_columns=_rekeyed(form.right_columns, columns),
        right_inverse_rows=_rekeyed(form.right_inverse_rows, columns),
    )


def _rekeyed(vectors: Sequence[SparseVector], columns: list[int]) -> tuple[SparseVector, ...]:
    # sparse vectors over the relation matrix's columns, keyed by Schreier coordinate
    return tuple({columns[k]: x for k, x in v.items()} for v in vectors)


def _edge_coordinate(n: int, source: int, target: int, letter: int) -> int:
    # the Schreier coordinate a letter reads on its edge between 0-based
    # cosets: the generator at the source for sigma_i, at the target for
    # its inverse
    if letter > 0:
        return source * (n - 1) + letter - 1
    return target * (n - 1) - letter - 1


def _non_tree_coordinates(table: ImageGroup) -> list[int]:
    # the Schreier coordinates off the search tree, ascending: the tree edge
    # into coset c, from its parent, carries a trivial generator
    n, width, tree = table.n, len(table.letters), table.tree
    on_tree = bytearray(table.size * (n - 1))
    for c in range(1, table.size):
        parent, t = divmod(tree[c], width)
        on_tree[_edge_coordinate(n, parent, c, table.letters[t])] = 1
    return [k for k, on in enumerate(on_tree) if not on]


def _relation_rows(table: ImageGroup) -> tuple[list[array], list[int]]:
    # the rewritten relators from every coset over the non-tree Schreier
    # generators, as dense rows of signed bytes (a relator has six letters at
    # most), and the Schreier coordinate of each column
    columns = _non_tree_coordinates(table)
    position = {k: j for j, k in enumerate(columns)}
    width = len(columns)
    relators = artin_relators(table.n)
    rows = []
    for c in range(table.size):
        for rel in relators:
            coords, final = _rewrite(table, c, rel.letters)
            if final != c:
                raise RuntimeError("relator does not fix a coset; table bug")
            row = array("b", bytes(width))
            for k, e in coords.items():
                j = position.get(k)
                if j is not None:
                    row[j] = e
            rows.append(row)
    return rows, columns


@dataclass(frozen=True)
class ActionMatrix:
    """Conjugation action on the free part of a subgroup abelianization.

    Rows follow the row-vector convention, so the map on coordinate vectors
    is x -> x @ matrix and the assignment of words to matrices is
    multiplicative.  Nonzero images in torsion coordinates are reported in
    torsion_leak as (free row, torsion column, residue) and never dropped.
    """

    matrix: IntMatrix
    torsion_leak: tuple[tuple[int, int, int], ...] = ()

    def is_identity(self) -> bool:
        return self.matrix == matrices.identity(len(self.matrix)) and not self.torsion_leak


def conjugation_action(ab: AbelianizationResult, w: BraidWord) -> ActionMatrix:
    """Matrix of conjugation by a braid word on the subgroup abelianization.

    Each Schreier generator s maps to the rewritten coordinates theta(s) of
    w^-1 s w.  Rewritten from coset 1, the w suffix walks back along the edges
    of the w^-1 prefix and cancels its coordinates, so theta(s) is s rewritten
    from the coset x that w^-1 reaches; s returns to x, since the subgroup is
    normal.

    No word is rewritten per generator.  Rewriting is additive along a word:
    the rewrite of u v from x is that of u from x plus that of v from x u.
    Let P(c) be the rewrite of the tree word tau_c from x, and y_c = x tau_c.
    The generator s = tau_c sigma_i tau_c'^-1, with c' = c sigma_i, adds
    P(c), then the one generator (y_c, i) that sigma_i reads, then the
    rewrite of tau_c'^-1 from y_c sigma_i.  Cosets are image elements, so
    tau_c sigma_i and tau_c' are the same element, y_c sigma_i = y_c', and
    the walk of tau_c'^-1 from y_c' retraces that of tau_c' from x backwards,
    ending at x with coordinates -P(c').  So
    theta(s) = P(c) + gen(y_c, i) - P(c'), and P and y grow along the tree
    parents in one pass, each P(c) being its parent's plus one tree letter.

    Of that coordinate matrix conjugated into the Smith basis, R^-1 theta R,
    only the columns read are formed, as R^-1 (theta R[:, wanted]) over
    sparse rows: the free columns, which give the free block and the check
    that the relation lattice is preserved, and the torsion columns, which
    give the torsion leak.  The prefix sums are kept already multiplied by
    R[:, wanted], as U_c = P(c) R[:, wanted].  R's rows at tree coordinates
    are empty, and R^-1 reads theta only at the other coordinates, so theta
    is formed only there.
    """
    table = ab.table
    check_same_strands(w.n, table.n)
    n = table.n
    degree = len(ab.right_columns)
    rank = ab.rank
    torsion = [t for t in range(rank) if ab.diagonal[t] > 1]
    wanted = torsion + list(range(rank, degree))
    # the rows of R[:, wanted], sparse, by Schreier coordinate
    right_wanted: list[SparseVector] = [{} for _ in range(ab.num_generators)]
    for j, t in enumerate(wanted):
        for k, x in ab.right_columns[t].items():
            right_wanted[k][j] = x
    width, letters, edges, tree = len(table.letters), table.letters, table.edges, table.tree
    # y[c] = start tau_c and prefix[c] = U_c, in BFS order: parents come first
    y = [table.trace(1, w.inverse()) - 1]
    prefix: list[SparseVector] = [{}]
    for c in range(1, table.size):
        parent, t = divmod(tree[c], width)
        letter = letters[t]
        here = y[parent]
        there = edges[here * width + t]
        row = dict(prefix[parent])
        # the tree letter's generator, with its sign
        generator = right_wanted[_edge_coordinate(n, here, there, letter)]
        matrices.add_multiple(row, generator, -1 if letter > 0 else 1)
        y.append(there)
        prefix.append(row)
    # theta R[:, wanted] at each non-tree Schreier generator
    # s = tau_c sigma_i tau_(c sigma_i)^-1; R^-1 never reads the tree rows
    theta_right: list[SparseVector] = [{}] * ab.num_generators
    for s in _non_tree_coordinates(table):
        c, i = divmod(s, n - 1)
        target = edges[c * width + _letter_pos(i + 1)]
        row = dict(prefix[c])
        generator = right_wanted[_edge_coordinate(n, y[c], y[target], i + 1)]
        matrices.add_multiple(row, generator, -1)
        matrices.add_multiple(row, prefix[target], 1)
        theta_right[s] = row
    conjugated = [
        matrices.sparse_combination(row, theta_right) for row in ab.right_inverse_rows
    ]
    k = len(torsion)
    for t in range(rank):
        if any(j >= k for j in conjugated[t]):
            raise RuntimeError("action does not preserve the relation lattice")
    leaks = []
    for s in range(rank, degree):
        for j, t in enumerate(torsion):
            residue = conjugated[s].get(j, 0) % ab.diagonal[t]
            if residue:
                leaks.append((s - rank, t, residue))
    free_block = tuple(
        tuple(row.get(j, 0) for j in range(k, len(wanted))) for row in conjugated[rank:]
    )
    return ActionMatrix(matrix=free_block, torsion_leak=tuple(leaks))
