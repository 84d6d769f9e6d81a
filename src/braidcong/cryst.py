"""Normal-form arithmetic in the crystallographic quotient of the braid group.

The quotient of the braid group by the commutator subgroup of the pure braid
group has a complete normal form: a permutation together with an integer
vector over strand pairs (the image of the pure part in the pair lattice).
normal_form reads that pair off any braid word in one walk over its letters.

Elements multiply by the closed form of the group law,

    vec(a * b) = P(perm b) vec(a) + vec(b) + c(perm a, perm b),

where P(t) = pair_permutation_matrix(t) moves each coordinate to the image
of its pair under t, and the cocycle c(s, t), the vector of the product of
the section classes of s and t, is 1 at the image under s * t of each pair
that s inverts and t inverts again, and 0 elsewhere.  One pass over the
pairs of labels forms all three terms (_product_vector), so a product, an
inverse or a power (by squaring) costs O(n^2) arithmetic steps whatever the
size of the coordinates.  The pass reads each image pair's coordinate from
one cached per-n table indexed by the two labels (words._pair_grid) and
compares labels of perm(a)^-1 computed in the same loop.  A product builds
no Permutation for that and runs no validation, since its components come
from checked ones (_checked_vector, _checked_element); the public
constructors keep every check.  A power squares from the lowest set bit of
k and never multiplies by the identity.  The word path, normalizing the
product of representative words, stays as the independent check: verify
claim c12 compares the closed form with it, and so do the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _EXPORTS
from .matrices import IntMatrix, check_integer
from .words import (
    BraidWord,
    LinkingVector,
    Permutation,
    _checked_permutation,
    _checked_vector,
    _pair_grid,
    artin_relators,
    check_same_strands,
    check_strand_count,
    pair_action,
    pair_count,
    pair_list,
    pure_generator,
)

__all__ = list(_EXPORTS["cryst"])


def section_word(perm: Permutation) -> BraidWord:
    """The positive bubble-sort lift of a permutation.

    The word lists one generator per inversion; any reduced word for the same
    permutation lifts to the same braid element, so the lift is canonical.
    """
    n = perm.n
    arr = list(perm.inverse().images)
    swaps: list[int] = []
    # each pass carries the largest unsorted entry to its place
    for _ in range(n - 1):
        for p in range(n - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                swaps.append(p + 1)
    return BraidWord(n, tuple(reversed(swaps)))


@dataclass(frozen=True)
class CrystElement:
    """Normal form in the crystallographic quotient: permutation plus lattice part.

    Equality of the two components is equality in the group.
    """

    n: int
    perm: Permutation
    vec: LinkingVector

    def __post_init__(self) -> None:
        check_strand_count(self.n)
        check_same_strands(self.n, self.perm.n)
        check_same_strands(self.n, self.vec.n)

    @classmethod
    def identity(cls, n: int) -> "CrystElement":
        check_strand_count(n)
        return cls(n, Permutation.identity(n), LinkingVector.zero(n))

    @classmethod
    def lattice(cls, vec: LinkingVector) -> "CrystElement":
        return cls(vec.n, Permutation.identity(vec.n), vec)

    def __mul__(self, other: "CrystElement") -> "CrystElement":
        check_same_strands(self.n, other.n)
        vec = _product_vector(self, other.perm.images, other.vec.coords)
        return _checked_element(self.n, self.perm * other.perm, vec)

    def inverse(self) -> "CrystElement":
        # a * (perm(a)^-1, 0) = (1, v), so a^-1 = (perm(a)^-1, -v)
        inv = self.perm.inverse()
        vec = -_product_vector(self, inv.images, (0,) * len(self.vec.coords))
        return _checked_element(self.n, inv, vec)

    def __pow__(self, k: int) -> "CrystElement":
        check_integer("exponent", k)
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return CrystElement.identity(self.n)
        # square up to the lowest set bit of k, which starts the product
        square = self
        while not k & 1:
            square = square * square
            k >>= 1
        out = square
        k >>= 1
        while k:
            square = square * square
            if k & 1:
                out = out * square
            k >>= 1
        return out

    def is_identity(self) -> bool:
        return self.perm.is_identity() and self.vec.is_zero()


def _checked_element(n: int, perm: Permutation, vec: LinkingVector) -> CrystElement:
    """An element from components already known to fit, skipping the check.

    The caller guarantees what CrystElement.__post_init__ would check:
    n >= 2 and perm and vec are both on n strands.
    """
    element = object.__new__(CrystElement)
    object.__setattr__(element, "n", n)
    object.__setattr__(element, "perm", perm)
    object.__setattr__(element, "vec", vec)
    return element


def _product_vector(a: CrystElement, img: tuple[int, ...], vec: Iterable[int]) -> LinkingVector:
    """The vector of a * (t, vec), where img is the image tuple of t, in one
    pass over the pairs of labels.

    For each pair i < j, a's coordinate at (i, j) moves to the pair
    (t(i), t(j)), plus 1 when both section words cross the pair there:
    perm(a)^-1 and t both invert (i, j).
    """
    n = a.n
    out = list(vec)
    grid, width = _pair_grid(n), n + 1
    back = [0] * n  # the images of perm(a)^-1
    for x, y in enumerate(a.perm.images, start=1):
        back[y - 1] = x
    coords, pos = a.vec.coords, 0
    for i in range(n - 1):
        ti, bi, row = img[i], back[i], img[i] * width
        for j in range(i + 1, n):
            tj, x = img[j], coords[pos]
            pos += 1
            if tj < ti and back[j] < bi:
                x += 1
            out[grid[row + tj]] += x
    return _checked_vector(n, tuple(out))


def _inversions(perm: Permutation) -> list[tuple[int, int]]:
    """The image pairs (perm(i), perm(j)) of the pairs i < j that perm inverts.

    The section word of perm crosses exactly these pairs of strands, once each
    and positively.
    """
    img = perm.images
    n = len(img)
    return [(img[i], img[j]) for i in range(n) for j in range(i + 1, n) if img[i] > img[j]]


def normal_form(w: BraidWord) -> CrystElement:
    """Normal form of a braid word in the crystallographic quotient.

    The vector is the linking vector of section_word(perm)^-1 * w, read off
    one walk over w that counts the signed crossings of each pair of strands.
    The section crosses each pair perm inverts once, positively; less that
    crossing, a pair's count is even, and its half sits at the coordinate of
    the pair's final positions.
    """
    n = w.n
    seats = list(range(n))
    counts = [0] * (n * n)  # by (strand on the left, strand on the right)
    for k in w.letters:
        i = abs(k)
        a, b = seats[i - 1], seats[i]
        counts[a * n + b] += 1 if k > 0 else -1
        seats[i - 1], seats[i] = b, a
    images = [0] * n
    for pos, strand in enumerate(seats, start=1):
        images[strand] = pos
    # the pairs of final positions p < q come in coordinate order; the
    # section crosses strands a, b there once when a > b
    coords = []
    for p in range(n):
        a = seats[p]
        for q in range(p + 1, n):
            b = seats[q]
            c = counts[a * n + b] + counts[b * n + a] - (a > b)
            if c % 2:
                raise RuntimeError("odd crossing count off the section; internal bug")
            coords.append(c // 2)
    return _checked_element(
        n, _checked_permutation(tuple(images)), _checked_vector(n, tuple(coords))
    )


def representative_word(a: CrystElement) -> BraidWord:
    """A braid word normalizing back to the element: section times pure part."""
    w = section_word(a.perm)
    for pos, pair in enumerate(pair_list(a.n)):
        c = a.vec.coords[pos]
        if c:
            w = w * pure_generator(a.n, pair.i, pair.j) ** c
    return w


def element_order(a: CrystElement) -> int | None:
    """Order of an element; None means infinite order.

    A power with trivial permutation is a pure lattice vector, and nonzero
    lattice vectors generate infinite cyclic subgroups, so the order is the
    permutation order when that power has zero vector and infinite otherwise.
    """
    k = a.perm.order()
    return k if (a**k).vec.is_zero() else None


def pair_permutation_matrix(perm: Permutation) -> IntMatrix:
    """Column-convention matrix of the pair action on the lattice."""
    action = pair_action(perm)
    rows = [[0] * len(action) for _ in action]
    for pos, target in enumerate(action):
        rows[target][pos] = 1
    return tuple(tuple(r) for r in rows)


def _orbit_solution(perm: Permutation, k: int, base: tuple[int, ...]) -> tuple[int, ...] | None:
    """An integer v with sum_{j<k} P^j v = -base, or None when there is none.

    P = pair_permutation_matrix(perm) and k is a multiple of perm's order.
    On a pair orbit of size s, which divides k, the sum is k/s times the sum
    of v over the orbit at every pair of the orbit.  So a solution exists
    exactly when base is constant on each orbit and divisible by k/s there;
    this one puts -base/(k/s) at the orbit's first pair in coordinate order
    and 0 elsewhere.
    """
    action = pair_action(perm)
    coords = [0] * len(action)
    seen = [False] * len(action)
    for start, value in enumerate(base):
        if seen[start]:
            continue
        size, pos = 0, start
        while not seen[pos]:
            if base[pos] != value:
                return None
            seen[pos] = True
            size += 1
            pos = action[pos]
        repeats = k // size
        if value % repeats:
            return None
        coords[start] = -value // repeats
    return tuple(coords)


def _partitions(n: int, parts: Sequence[int] | None = None):
    """The partitions of n into the given increasing parts (by default
    1..n), in lexicographic order, each listed shortest part first."""
    if parts is None:
        parts = range(1, n + 1)
    if n == 0:
        yield ()
    for index, part in enumerate(parts):
        if part > n:
            break
        for rest in _partitions(n - part, parts[index:]):
            yield (part,) + rest


def _cycle_types(n: int, k: int):
    """The partitions of n with lcm k, in _partitions order.  Each part of
    one divides k, so only the divisors of k are tried as parts."""
    divisors = [d for d in range(1, min(n, k) + 1) if k % d == 0]
    return (parts for parts in _partitions(n, divisors) if math.lcm(*parts) == k)


def _first_of_type(parts: tuple[int, ...]) -> Permutation:
    """The first permutation of a cycle type in all_permutations order.

    Greedily smallest images: the shortest cycles come first, each on
    consecutive strands a -> a+1 -> ... -> a, since closing a cycle at a
    beats extending it to a larger strand.
    """
    images: list[int] = []
    start = 1
    for length in parts:
        images += range(start + 1, start + length)
        images.append(start)
        start += length
    return _checked_permutation(tuple(images))


def torsion_search(n: int, k: int) -> CrystElement | None:
    """Search for an element of order exactly k; None records absence.

    Any finite-order element has the order of its permutation, so candidates
    are permutations of order k.  For each one, the vector part of the k-th
    power of (perm, v) is vec((perm, 0)^k) + sum_{j<k} P^j v, and torsion
    exists exactly when that integer linear system has a solution.  The
    system splits over the orbits of the pair action (_orbit_solution): it
    is solvable exactly when vec((perm, 0)^k) is constant on each orbit of
    size s and divisible by k/s there, so a candidate is decided in one walk
    over the pairs, with no Smith normal form.
    Conjugation keeps the order and moves the permutation through its
    conjugacy class, so one permutation per cycle type of order k is tried:
    the first of its type in all_permutations order, one per partition of n
    with lcm k, at most p(n) candidates instead of n! permutations.  Only
    partitions into divisors of k are generated (_cycle_types): at n = 24
    and k = 7 that is 4 partitions of the 1575.
    Partitions come in lexicographic order, and so do the image tuples of
    their first permutations: where two partitions first differ, the shorter
    cycle closes on a smaller strand.  The candidates therefore come in the
    order in which a walk over all_permutations meets each type first, and
    the search solves the same systems and returns the same element as that
    walk.
    """
    check_strand_count(n)
    check_integer("order", k, 2)
    for parts in _cycle_types(n, k):
        perm = _first_of_type(parts)
        base = (CrystElement(n, perm, LinkingVector.zero(n)) ** k).vec
        solution = _orbit_solution(perm, k, base.coords)
        if solution is None:
            continue
        found = CrystElement(n, perm, _checked_vector(n, solution))
        if element_order(found) != k:
            raise RuntimeError("torsion candidate failed certification; bug")
        return found
    return None


def power_endomorphism(n: int, m: int, a: CrystElement) -> CrystElement:
    """The endomorphism sending each generator class to its m-th power, m odd.

    For odd m the assignment extends to the quotient, and even m is rejected.
    The homomorphism is fixed by the images of the section class of the
    permutation and of the pure generators, which it multiplies by m, so

        power_endomorphism(a) = (perm a, offset(perm a) + m * vec a),

    where the offset, the vector of the m-th power image of the section class,
    is (m - 1) / 2 at the image of each pair the permutation inverts: the
    section word crosses such a pair once, its letter-wise m-th power m times.
    """
    check_same_strands(a.n, n)
    _require_odd(m)
    check_strand_count(n)
    offset = _power_offset(n, m, a.perm).coords
    vec = _checked_vector(n, tuple([x + m * y for x, y in zip(offset, a.vec.coords)]))
    return _checked_element(n, a.perm, vec)


def _letterwise_power(w: BraidWord, m: int) -> CrystElement:
    """Normal form of w with every letter repeated m times (the power map on words)."""
    return normal_form(BraidWord(w.n, tuple(l for letter in w.letters for l in (letter,) * m)))


def _require_odd(m: int) -> None:
    check_integer("power", m, 1)
    if m % 2 == 0:
        raise ValueError(
            f"the power map is an endomorphism only for odd m, got {m}"
        )


def power_map_is_homomorphism(n: int, m: int) -> bool:
    """Whether m-th powers of the generator classes satisfy the braid relations.

    True for every odd m; genuinely false for even m (and this check shows
    it), which is why power_endomorphism refuses even m.
    """
    check_strand_count(n)
    check_integer("power", m, 1)
    return all(_letterwise_power(rel, m).is_identity() for rel in artin_relators(n))


def _power_offset(n: int, m: int, perm: Permutation) -> LinkingVector:
    # vector part of the power image of the section class of perm: a pair the
    # section crosses once is crossed m times; less the section's crossing,
    # it links (m - 1) / 2 times
    coords = [0] * pair_count(n)
    grid, width = _pair_grid(n), n + 1
    for a, b in _inversions(perm):
        coords[grid[a * width + b]] = (m - 1) // 2
    return _checked_vector(n, tuple(coords))


def in_power_image(n: int, m: int, a: CrystElement) -> bool:
    """Membership in the image of the m-th power endomorphism, m odd.

    An element lies in the image exactly when its power_quotient_class is
    zero: its vector, shifted by the image of its permutation's section
    class, is divisible by m.
    """
    return not any(power_quotient_class(n, m, a))


def power_quotient_class(n: int, m: int, a: CrystElement) -> tuple[int, ...]:
    """Class of an element in the quotient by the power image, m odd.

    Returns the shifted vector reduced mod m; the zero class is exactly the
    image of the power endomorphism, and lattice classes exhaust all
    m^(n(n-1)/2) values.

    The class labels right cosets image * a: two elements share a class
    exactly when they lie in the same right coset.  The image is not a
    normal subgroup, so the classes do not form a quotient group and the
    class of a product obeys the twisted rule

        class(a * b) = pair_action(perm(b)) . class(a) + class(b)  (mod m),

    with pair_action given by pair_permutation_matrix.  Plain additivity,
    class(a * b) = class(a) + class(b), is guaranteed only when b is a
    lattice element (its permutation is the identity).
    """
    check_same_strands(a.n, n)
    _require_odd(m)
    diff = a.vec - _power_offset(n, m, a.perm)
    return tuple(x % m for x in diff.coords)


def power_map_scales_lattice(n: int, m: int) -> bool:
    """Whether the m-th power endomorphism multiplies each pure generator by m.

    Checked on words (each letter of the pure generator word repeated m
    times), not through power_endomorphism, which assumes this scaling.
    """
    check_strand_count(n)
    check_integer("power", m, 1)
    return all(
        _letterwise_power(pure_generator(n, p.i, p.j), m)
        == CrystElement.lattice(LinkingVector.unit(n, p.i, p.j).scaled(m))
        for p in pair_list(n)
    )


def additivity_failures(
    n: int, m: int, pairs: Iterable[tuple[CrystElement, CrystElement]]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs (x, y) on which plain additivity of the quotient class fails.

    One (class(x * y), class(x) + class(y) mod m) per failing pair, in the
    order the pairs come.  The statement is false off the lattice (see
    power_quotient_class for the twisted rule that holds), so verify claim
    c10 and the quotient-check command, which both report it, fail by design.
    """
    check_strand_count(n)
    _require_odd(m)
    failures = []
    for x, y in pairs:
        lhs = power_quotient_class(n, m, x * y)
        rhs = tuple(
            (s + t) % m
            for s, t in zip(power_quotient_class(n, m, x), power_quotient_class(n, m, y))
        )
        if lhs != rhs:
            failures.append((lhs, rhs))
    return failures
