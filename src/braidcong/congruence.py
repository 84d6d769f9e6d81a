"""Level-m congruence subgroups: membership, finite images, abelianizations.

The level-m subgroup is the kernel of the mod-m representation, so its cosets
are the elements of the finite matrix image, and the breadth-first walk over
image matrices is its coset table, with its search tree as the transversal.
Subgroup abelianizations come from Schreier rewriting of the Artin relators
against that table, followed by an integer Smith normal form.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from random import Random

from . import matrices
# mat_mul stays bound here: perfbench/tracing.py traces congruence.mat_mul
from .matrices import IntMatrix, SparseVector, mat_mul  # noqa: F401
from .burau import ModularMatrix, _apply_letter, _conjugated_powers, burau_matrix_mod
from .smith import smith_normal_form
from .words import BraidWord, check_strand_count

__all__ = [
    "LimitExceeded",
    "ImageGroup",
    "AbelianizationResult",
    "ActionMatrix",
    "is_member",
    "letter_order",
    "enumerate_image",
    "image_center",
    "coset_table",
    "artin_relators",
    "subgroup_coordinates",
    "abelianization",
    "conjugation_action",
    "divisibility_check",
]


class LimitExceeded(RuntimeError):
    """An enumeration or table size cap was hit.

    Carries the partial size and the stage that hit its cap: "image" for the
    element cap of enumerate_image and coset_table, "coset" for the coset cap
    of abelianization.
    """

    def __init__(
        self, message: str, partial: int | None = None, stage: str | None = None
    ):
        super().__init__(message)
        self.partial = partial
        self.stage = stage


def is_member(w: BraidWord, m: int) -> bool:
    """Whether a word lies in the level-m congruence subgroup."""
    return burau_matrix_mod(w, m).is_identity()


def letter_order(n: int) -> tuple[int, ...]:
    """The fixed letter scan order: each index, positive sign before negative."""
    return tuple(s * i for i in range(1, n) for s in (1, -1))


def _letter_pos(letter: int) -> int:
    # the column of a letter in letter_order, and so in ImageGroup.edges
    return 2 * abs(letter) - (2 if letter > 0 else 1)


def _row_letter(row: tuple[int, ...], letter: int, m: int) -> tuple[int, ...]:
    # one matrix row times a generator image
    out = [list(row)]
    _apply_letter(out, letter, m)
    return tuple(out[0])


@dataclass(frozen=True)
class ImageGroup:
    """The finite image of the mod-m representation, numbered in BFS order.

    Element 0 is the identity.  Discovery scans elements in numbering order
    and letters in letter_order; edges[k][t] is the element reached from
    element k by right multiplication with letter letter_order(n)[t].
    parents[k] is the (element, letter) pair that first reached element k,
    None for the identity; these pairs form the breadth-first tree.

    Row r of g x is (row r of g) x, so every row of every element lies in the
    orbit of the unit rows.  rows holds the orbit rows the search met, unit
    rows first, in discovery order, and elements[k] is the tuple of the n row
    numbers of element k; row_images[t][r] is the number of rows[r] times
    letter letters[t].  The tables cover every row of every element, but not
    the rows met only as images.

    The elements are the cosets of the level-m subgroup: coset c is element
    c - 1, and apply, trace and transversal take 1-based coset numbers.
    """

    n: int
    m: int
    letters: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, int] | None, ...] = field(compare=False, repr=False)
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)
    row_images: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    def matrix(self, k: int) -> ModularMatrix:
        return ModularMatrix(self.m, tuple(map(self.rows.__getitem__, self.elements[k])))

    @cached_property
    def _row_numbers(self) -> dict[tuple[int, ...], int]:
        return {row: r for r, row in enumerate(self.rows)}

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        # built on the first lookup; enumerate_image and image_center need none
        return {e: k for k, e in enumerate(self.elements)}

    def index_of(self, mat: ModularMatrix) -> int:
        key = tuple(map(self._row_numbers.get, mat.entries)) if mat.m == self.m else ()
        k = self._index.get(key)
        if k is None:
            raise KeyError("matrix is not in the enumerated image")
        return k

    @cached_property
    def transversals(self) -> tuple[tuple[int, ...], ...]:
        # the tree word of every element, read off the parents on first use
        words: list[tuple[int, ...]] = [()] * self.size
        for k, (parent, letter) in enumerate(self.parents[1:], start=1):
            words[k] = words[parent] + (letter,)
        return tuple(words)

    def _check_coset(self, coset: int) -> None:
        if not 1 <= coset <= self.size:
            raise ValueError(f"coset {coset} out of range 1..{self.size}")

    def apply(self, coset: int, letter: int) -> int:
        """Right action of one letter on a 1-based coset number."""
        self._check_coset(coset)
        if letter == 0 or abs(letter) >= self.n:
            raise ValueError(f"letter {letter} out of range for {self.n} strands")
        return self.edges[coset - 1][_letter_pos(letter)] + 1

    def trace(self, coset: int, w: BraidWord) -> int:
        if w.n != self.n:
            raise ValueError(f"strand count mismatch: {w.n} vs {self.n}")
        self._check_coset(coset)
        x = coset - 1
        for letter in w.letters:
            x = self.edges[x][_letter_pos(letter)]
        return x + 1

    def transversal(self, coset: int) -> BraidWord:
        """The tree word carrying coset 1 to the given coset."""
        self._check_coset(coset)
        return BraidWord(self.n, self.transversals[coset - 1])


def enumerate_image(n: int, m: int, element_cap: int = 10**6) -> ImageGroup:
    """Breadth-first closure of the generator images and their inverses.

    A state is the tuple of its n row numbers in the orbit of the unit rows,
    used directly as a dict key; a letter maps each row number through that
    letter's table.  The tables grow only for rows of scanned states, so a
    search stopped by the cap never closes the whole row orbit, which can
    have about m^(n-1) rows.
    """
    check_strand_count(n)
    if element_cap < 1:
        raise ValueError(f"element cap must be positive, got {element_cap}")
    letters = letter_order(n)
    rows = list(ModularMatrix.identity(n, m).entries)
    row_index = {r: k for k, r in enumerate(rows)}
    tables: list[list[int]] = [[] for _ in letters]
    # bound to the growing lists, so they see rows appended later
    lookups = [table.__getitem__ for table in tables]
    filled = tables[0]
    start = tuple(range(n))
    states = [start]
    index = {start: 0}
    parents: list[tuple[int, int] | None] = [None]
    edges: list[tuple[int, ...]] = []
    # states grows while it is scanned: discovery order is the numbering
    for k, current in enumerate(states):
        while len(filled) <= max(current):
            source = rows[len(filled)]
            for letter, table in zip(letters, tables):
                image = _row_letter(source, letter, m)
                r = row_index.get(image)
                if r is None:
                    r = row_index[image] = len(rows)
                    rows.append(image)
                table.append(r)
        out = []
        for letter, lookup in zip(letters, lookups):
            product = tuple(map(lookup, current))
            target = index.get(product)
            if target is None:
                if len(states) >= element_cap:
                    raise LimitExceeded(
                        f"image of ({n}, {m}) exceeds the element cap "
                        f"{element_cap}; partial size {len(states)}",
                        partial=len(states),
                        stage="image",
                    )
                target = len(states)
                index[product] = target
                states.append(product)
                parents.append((k, letter))
            out.append(target)
        edges.append(tuple(out))
    return ImageGroup(
        n=n,
        m=m,
        letters=letters,
        elements=tuple(states),
        edges=tuple(edges),
        parents=tuple(parents),
        rows=tuple(rows),
        row_images=tuple(map(tuple, tables)),
    )


def image_center(group: ImageGroup) -> tuple[int, ...]:
    """Elements commuting with every generator image, as element numbers.

    Each element is tested on its row numbers.  For a positive letter
    sigma_i with table R, g sigma_i = sigma_i g exactly when R fixes every
    row of g but rows i and i+1, maps row i+1 to row i, and maps row i to
    2 row_i - row_(i+1).
    """
    n, m, rows, row_numbers = group.n, group.m, group.rows, group._row_numbers
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
            top, bottom = rows[ids[a]], rows[ids[b]]
            twice = tuple((2 * x - y) % m for x, y in zip(top, bottom))
            if table[ids[a]] != row_numbers.get(twice):
                break
        else:
            central.append(k)
    return tuple(central)


def coset_table(n: int, m: int, element_cap: int = 10**6) -> ImageGroup:
    """Coset table of the level-m subgroup: the enumerated image itself."""
    # not an alias: perfbench/tracing.py wraps by identity, so one would merge layers
    return enumerate_image(n, m, element_cap)


def artin_relators(n: int) -> tuple[BraidWord, ...]:
    """The (n-1)(n-2)/2 defining relators of the braid group on n strands."""
    rels = []
    for i in range(1, n - 1):
        rels.append(BraidWord(n, (i, i + 1, i, -(i + 1), -i, -(i + 1))))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(BraidWord(n, (i, j, -i, -j)))
    return tuple(rels)


def _rewrite(table: ImageGroup, start: int, letters: Sequence[int]) -> tuple[SparseVector, int]:
    # Schreier rewriting: walk the letters from a 0-based coset, summing one
    # exponent per (coset, generator index) coordinate; returns the nonzero
    # sums and the final coset
    n, edges = table.n, table.edges
    coords: SparseVector = {}
    x = start
    for letter in letters:
        if letter > 0:
            k = x * (n - 1) + letter - 1
            coords[k] = coords.get(k, 0) + 1
            x = edges[x][_letter_pos(letter)]
        else:
            x = edges[x][_letter_pos(letter)]
            k = x * (n - 1) - letter - 1
            coords[k] = coords.get(k, 0) - 1
    return {k: e for k, e in coords.items() if e}, x


def subgroup_coordinates(table: ImageGroup, w: BraidWord) -> SparseVector:
    """Exponents of a subgroup member over the Schreier generators.

    Returns {coordinate: exponent} without zeros.  Coordinate c*(n-1) + (i-1)
    counts the generator of 0-based coset c and braid index i.  Raises when
    the word is not in the subgroup.
    """
    if w.n != table.n:
        raise ValueError(f"strand count mismatch: {w.n} vs {table.n}")
    coords, final = _rewrite(table, 0, w.letters)
    if final != 0:
        raise ValueError("word is not a member of the subgroup")
    return coords


@dataclass(frozen=True)
class AbelianizationResult:
    """Abelian invariants of the level-m subgroup with change-of-basis data.

    The subgroup abelianization is Z^free_rank plus one cyclic factor per
    invariant factor.  Coordinates transform by the right matrix R of the
    Smith form: for an exponent vector x over the Schreier generators, x R
    has its torsion coordinates first (positions with nonzero diagonal) and
    its free coordinates at positions rank.. of the diagonal.  R is kept as
    sparse columns (right_columns[j] = {k: R[k][j]}) and R^-1 as sparse rows.
    """

    n: int
    m: int
    table: ImageGroup
    num_generators: int
    num_relations: int
    diagonal: tuple[int, ...]
    rank: int
    invariant_factors: tuple[int, ...]
    free_rank: int
    right_columns: tuple[SparseVector, ...] = field(repr=False)
    right_inverse_rows: tuple[SparseVector, ...] = field(repr=False)

    def free_coordinates(self, x: SparseVector | Sequence[int]) -> tuple[int, ...]:
        """Project an exponent vector to the free part of the abelianization.

        x is {coordinate: exponent}, as subgroup_coordinates returns, or a
        dense vector of num_generators entries.
        """
        degree = self.num_generators
        if not isinstance(x, Mapping):
            if len(x) != degree:
                raise ValueError(f"length mismatch: {degree} generators vs {len(x)} entries")
            x = matrices.sparse(x)
        elif any(not 0 <= k < degree for k in x):
            raise ValueError(f"coordinate out of range 0..{degree - 1}")
        return tuple(
            sum(column.get(k, 0) * e for k, e in x.items())
            for column in self.right_columns[self.rank :]
        )


def abelianization(n: int, m: int, coset_cap: int = 10_000) -> AbelianizationResult:
    """Abelianization of the level-m subgroup by Schreier rewriting plus SNF.

    Relation rows are the rewritten Artin relators traced from every coset,
    plus one unit row per tree edge; all of the Schreier generators are kept
    as columns and the Smith normal form absorbs the redundancy; its sparse
    stage eliminates the tree-edge rows first.  The index is the image order,
    so the enumeration stops as soon as it passes coset_cap; pass a larger cap
    to override.
    """
    if coset_cap < 1:
        raise ValueError(f"coset cap must be positive, got {coset_cap}")
    try:
        table = coset_table(n, m, coset_cap)
    except LimitExceeded as err:
        raise LimitExceeded(
            f"index of ({n}, {m}) exceeds the coset cap {coset_cap}; "
            f"partial size {err.partial}",
            partial=err.partial,
            stage="coset",
        ) from err
    degree = table.size * (n - 1)
    rows = _relation_rows(table)
    form = smith_normal_form(rows)
    return AbelianizationResult(
        n=n,
        m=m,
        table=table,
        num_generators=degree,
        num_relations=len(rows),
        diagonal=form.diagonal,
        rank=form.rank,
        invariant_factors=form.invariant_factors,
        free_rank=degree - form.rank,
        right_columns=form.right_columns,
        right_inverse_rows=form.right_inverse_rows,
    )


def _relation_rows(table: ImageGroup) -> list[array]:
    # the rewritten relators from every coset, then the tree-edge unit rows,
    # as dense rows of signed bytes: a relator has six letters at most.  The
    # tree edge into c kills a generator of its parent, or of c if inverted
    n = table.n
    degree = table.size * (n - 1)
    relators = artin_relators(n)
    rows = []
    for c in range(table.size):
        for rel in relators:
            coords, final = _rewrite(table, c, rel.letters)
            if final != c:
                raise RuntimeError("relator does not fix a coset; table bug")
            rows.append(_dense_bytes(coords, degree))
    for c, (parent, letter) in enumerate(table.parents[1:], start=1):
        if letter > 0:
            k = parent * (n - 1) + letter - 1
        else:
            k = c * (n - 1) - letter - 1
        rows.append(_dense_bytes({k: 1}, degree))
    return rows


def _dense_bytes(coords: SparseVector, degree: int) -> array:
    row = array("b", bytes(degree))
    for k, e in coords.items():
        row[k] = e
    return row


@dataclass(frozen=True)
class ActionMatrix:
    """Conjugation action on the free part of a subgroup abelianization.

    Rows follow the row-vector convention, so the map on coordinate vectors
    is x -> x @ matrix and the assignment of words to matrices is
    multiplicative.  Nonzero images in torsion coordinates are reported in
    torsion_leak as (free row, torsion column, residue) and never dropped.
    """

    matrix: IntMatrix
    word: BraidWord
    torsion_leak: tuple[tuple[int, int, int], ...] = ()

    def is_identity(self) -> bool:
        return matrices.is_identity(self.matrix) and not self.torsion_leak


def conjugation_action(ab: AbelianizationResult, w: BraidWord) -> ActionMatrix:
    """Matrix of conjugation by a braid word on the subgroup abelianization.

    Each Schreier generator s maps to the rewritten coordinates theta(s) of
    w^-1 s w.  Rewritten from coset 1, the w suffix walks back along the edges
    of the w^-1 prefix and cancels its coordinates, so theta(s) is s rewritten
    from the coset x that w^-1 reaches; s returns to x, since the subgroup is
    normal.  Of that coordinate matrix conjugated into the Smith basis,
    R^-1 theta R, only the columns read are formed, as R^-1 (theta R[:, wanted])
    over sparse rows: the free columns, which give the free block and the
    check that the relation lattice is preserved, and the torsion columns,
    which give the torsion leak.
    """
    if w.n != ab.n:
        raise ValueError(f"strand count mismatch: {w.n} vs {ab.n}")
    table = ab.table
    n = ab.n
    degree = ab.num_generators
    rank = ab.rank
    torsion = [t for t in range(rank) if ab.diagonal[t] > 1]
    wanted = torsion + list(range(rank, degree))
    # the rows of R[:, wanted], sparse
    right_wanted: list[SparseVector] = [{} for _ in range(degree)]
    for j, t in enumerate(wanted):
        for k, x in ab.right_columns[t].items():
            right_wanted[k][j] = x
    start = table.trace(1, w.inverse()) - 1
    backs = [tuple(-x for x in reversed(tau)) for tau in table.transversals]
    # theta R[:, wanted], one row per Schreier generator
    # s = tau_c sigma_i tau_(c sigma_i)^-1
    theta_right = []
    for c, tau in enumerate(table.transversals):
        for i in range(1, n):
            back = backs[table.edges[c][_letter_pos(i)]]
            coords, _ = _rewrite(table, start, tau + (i,) + back)
            theta_right.append(matrices.sparse_combination(coords, right_wanted))
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
    return ActionMatrix(matrix=free_block, word=w, torsion_leak=tuple(leaks))


def divisibility_check(n: int, m: int, k: int, samples: int, seed: int = 0) -> bool:
    """Sampled containment of the level-k subgroup in the level-m subgroup."""
    if m < 2 or k % m:
        raise ValueError(f"need m >= 2 dividing k, got m={m}, k={k}")
    rng = Random(seed)
    for _ in range(samples):
        w = _conjugated_powers(rng, n, k)
        if not is_member(w, k):
            raise RuntimeError("synthesized word left the level-k subgroup; bug")
        if not is_member(w, m):
            return False
    return True
