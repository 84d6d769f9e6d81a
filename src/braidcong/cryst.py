"""Normal-form arithmetic in the crystallographic quotient of the braid group.

The quotient of the braid group by the commutator subgroup of the pure braid
group has a complete normal form: a permutation together with an integer
vector over strand pairs (the image of the pure part in the pair lattice).
Elements multiply through representative words, so the group law never
depends on unproved identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable

from .matrices import IntMatrix, identity, mat_mul
from .smith import solve_integer
from .words import (
    BraidWord,
    LinkingVector,
    Permutation,
    all_permutations,
    linking_vector,
    pair_count,
    pair_list,
    pair_position,
    permutation,
    pure_generator,
)

__all__ = [
    "CrystElement",
    "section_word",
    "normal_form",
    "representative_word",
    "element_order",
    "torsion_search",
    "power_endomorphism",
    "power_map_is_homomorphism",
    "in_power_image",
    "power_quotient_class",
    "power_map_scales_lattice",
    "additivity_failures",
    "holonomy_faithful",
    "pair_permutation_matrix",
]


def section_word(perm: Permutation) -> BraidWord:
    """The positive bubble-sort lift of a permutation.

    The word lists one generator per inversion; any reduced word for the same
    permutation lifts to the same braid element, so the lift is canonical.
    """
    n = perm.n
    arr = list(perm.inverse().images)
    swaps: list[int] = []
    changed = True
    while changed:
        changed = False
        for p in range(n - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                swaps.append(p + 1)
                changed = True
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
        if self.perm.n != self.n or self.vec.n != self.n:
            raise ValueError("component strand counts disagree")

    @classmethod
    def identity(cls, n: int) -> "CrystElement":
        return cls(n, Permutation.identity(n), LinkingVector.zero(n))

    @classmethod
    def lattice(cls, vec: LinkingVector) -> "CrystElement":
        return cls(vec.n, Permutation.identity(vec.n), vec)

    def __mul__(self, other: "CrystElement") -> "CrystElement":
        if self.n != other.n:
            raise ValueError(f"strand count mismatch: {self.n} vs {other.n}")
        return normal_form(representative_word(self) * representative_word(other))

    def inverse(self) -> "CrystElement":
        return normal_form(representative_word(self).inverse())

    def __pow__(self, k: int) -> "CrystElement":
        if k < 0:
            return self.inverse() ** (-k)
        out = CrystElement.identity(self.n)
        for _ in range(k):
            out = out * self
        return out

    def is_identity(self) -> bool:
        return self.perm.is_identity() and self.vec.is_zero()


def normal_form(w: BraidWord) -> CrystElement:
    """Normal form of a braid word in the crystallographic quotient."""
    perm = permutation(w)
    section = section_word(perm)
    if permutation(section) != perm:
        raise RuntimeError("section lift has the wrong permutation; internal bug")
    vec = linking_vector(section.inverse() * w)
    return CrystElement(w.n, perm, vec)


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
    n = perm.n
    count = pair_count(n)
    rows = [[0] * count for _ in range(count)]
    for pos, pair in enumerate(pair_list(n)):
        rows[pair_position(n, perm.pair_image(pair))][pos] = 1
    return tuple(tuple(r) for r in rows)


def torsion_search(n: int, k: int) -> CrystElement | None:
    """Search for an element of order exactly k; None records absence.

    Any finite-order element has the order of its permutation, so candidates
    are permutations of order k.  For each one, the vector part of the k-th
    power is affine-linear in the lattice part, and torsion exists exactly
    when the resulting integer linear system has a solution.
    """
    if k < 2:
        raise ValueError(f"order must be at least 2, got {k}")
    count = pair_count(n)
    for perm in all_permutations(n):
        if perm.order() != k:
            continue
        base = normal_form(section_word(perm) ** k).vec
        p = pair_permutation_matrix(perm)
        acc = identity(count)
        total = [list(row) for row in identity(count)]
        for _ in range(k - 1):
            acc = mat_mul(acc, p)
            for r in range(count):
                for c in range(count):
                    total[r][c] += acc[r][c]
        solution = solve_integer(tuple(map(tuple, total)), tuple(-x for x in base.coords))
        if solution is not None:
            found = CrystElement(n, perm, LinkingVector(n, solution))
            if element_order(found) != k:
                raise RuntimeError("torsion candidate failed certification; bug")
            return found
    return None


def power_endomorphism(n: int, m: int, a: CrystElement) -> CrystElement:
    """The endomorphism sending each generator class to its m-th power, m odd.

    Evaluated by rewriting a representative word letter by letter and
    normalizing, so the result is well-defined whenever the assignment
    extends to the quotient; for odd m it does, and even m is rejected.
    """
    if a.n != n:
        raise ValueError(f"strand count mismatch: {a.n} vs {n}")
    _require_odd(m)
    w = representative_word(a)
    letters = tuple(l for letter in w.letters for l in (letter,) * m)
    return normal_form(BraidWord(n, letters))


def _require_odd(m: int) -> None:
    if m < 1 or m % 2 == 0:
        raise ValueError(
            f"the power map is an endomorphism only for odd m, got {m}"
        )


def power_map_is_homomorphism(n: int, m: int) -> bool:
    """Whether m-th powers of the generator classes satisfy the braid relations.

    True for every odd m; genuinely false for even m (and this check shows
    it), which is why power_endomorphism refuses even m.
    """
    if m < 1:
        raise ValueError(f"power must be positive, got {m}")
    for i in range(1, n - 1):
        lhs = BraidWord(n, (i,) * m + (i + 1,) * m + (i,) * m)
        rhs = BraidWord(n, (i + 1,) * m + (i,) * m + (i + 1,) * m)
        if normal_form(lhs) != normal_form(rhs):
            return False
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            lhs = BraidWord(n, (i,) * m + (j,) * m)
            rhs = BraidWord(n, (j,) * m + (i,) * m)
            if normal_form(lhs) != normal_form(rhs):
                return False
    return True


def _power_offset(n: int, m: int, perm: Permutation) -> LinkingVector:
    # vector part of the power image of the section class of perm
    return power_endomorphism(n, m, CrystElement(n, perm, LinkingVector.zero(n))).vec


def in_power_image(n: int, m: int, a: CrystElement) -> bool:
    """Membership in the image of the m-th power endomorphism, m odd.

    An element lies in the image exactly when its vector, shifted by the
    image of its permutation's section class, is divisible by m.
    """
    _require_odd(m)
    diff = a.vec - _power_offset(n, m, a.perm)
    return all(x % m == 0 for x in diff.coords)


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
    _require_odd(m)
    diff = a.vec - _power_offset(n, m, a.perm)
    return tuple(x % m for x in diff.coords)


def power_map_scales_lattice(n: int, m: int) -> bool:
    """Whether the m-th power endomorphism multiplies each pure generator by m."""
    return all(
        power_endomorphism(n, m, normal_form(pure_generator(n, p.i, p.j)))
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


def holonomy_faithful(n: int, samples: int = 200, seed: int = 0) -> bool:
    """Whether the pair action of the symmetric group on the lattice is faithful.

    Exhaustive for n up to 6; for larger n, checks adjacent transpositions
    and random samples.
    """
    if n < 2:
        raise ValueError(f"strand count must be at least 2, got {n}")
    pairs = pair_list(n)

    def moves_some_pair(perm: Permutation) -> bool:
        return any(perm.pair_image(p) != p for p in pairs)

    if n <= 6:
        return all(
            moves_some_pair(perm)
            for perm in all_permutations(n)
            if not perm.is_identity()
        )
    rng = Random(seed)
    probes = []
    for i in range(1, n):
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        probes.append(Permutation(tuple(images)))
    for _ in range(samples):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        probes.append(Permutation(tuple(images)))
    return all(moves_some_pair(p) for p in probes if not p.is_identity())
