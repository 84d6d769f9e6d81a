"""Braid words, permutations, strand-pair coordinates and linking numbers.

A braid word on n strands is a sequence of letters; the letter k (a nonzero
integer with |k| < n) denotes the k-th Artin generator when k > 0 and its
inverse when k < 0.  Words act on strand positions left to right, and all
permutations compose left to right: (p * q)(x) = q(p(x)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from random import Random

from . import _EXPORTS
from .matrices import check_integer, check_integers, check_length

__all__ = list(_EXPORTS["words"])


def check_strand_count(n: int) -> None:
    check_integer("strand count", n, 2)


def check_modulus(m: int) -> None:
    check_integer("modulus", m, 2)


def check_same_strands(n: int, other: int) -> None:
    if n != other:
        raise ValueError(f"strand count mismatch: {n} vs {other}")


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on n strands."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_strand_count(self.n)
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        for k in self.letters:
            check_integer("letter", k)
            if k == 0 or abs(k) >= self.n:
                raise ValueError(f"letter {k} is out of range for {self.n} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        check_same_strands(self.n, other.n)
        return _checked_word(self.n, self.letters + other.letters)

    def __pow__(self, k: int) -> "BraidWord":
        check_integer("exponent", k)
        if k < 0:
            return self.inverse() ** (-k)
        return _checked_word(self.n, self.letters * k)

    def inverse(self) -> "BraidWord":
        return _checked_word(self.n, tuple(-k for k in reversed(self.letters)))


def _checked_word(n: int, letters: tuple[int, ...]) -> BraidWord:
    """A word from letters already known to be in range, skipping the check.

    The caller guarantees what BraidWord.__post_init__ would check: n >= 2
    and letters is a tuple of integers k with 0 < |k| < n.
    """
    word = object.__new__(BraidWord)
    object.__setattr__(word, "n", n)
    object.__setattr__(word, "letters", letters)
    return word


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        check_integers("image", self.images)
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        # Permutation(()) is the permutation of no points, so n = 0 is allowed
        check_integer("strand count", n, 0)
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        check_integer("point", x, 1, len(self.images))
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # left to right: apply self first, then other
        check_same_strands(self.n, other.n)
        img = other.images
        return _checked_permutation(tuple([img[i - 1] for i in self.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return _checked_permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order, fixed points counted as 1-cycles."""
        seen = [False] * self.n
        lengths = []
        for start in range(self.n):
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = self.images[x] - 1
                length += 1
            if length:
                lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def order(self) -> int:
        return math.lcm(*self.cycle_type())


def _checked_permutation(images: tuple[int, ...]) -> Permutation:
    """A permutation from images already known to be valid, skipping the check.

    The caller guarantees what Permutation.__post_init__ would check: images
    is a tuple of integers holding each of 1..len(images) once.
    """
    perm = object.__new__(Permutation)
    object.__setattr__(perm, "images", images)
    return perm


@dataclass(frozen=True, order=True)
class PairIndex:
    """An unordered pair of strand labels, normalized so that i < j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        check_integer("strand label", self.i, 1)
        check_integer("strand label", self.j, 1)
        if self.i == self.j:
            raise ValueError(f"pair components must differ, got ({self.i}, {self.j})")
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)


def pair_count(n: int) -> int:
    check_strand_count(n)
    return n * (n - 1) // 2


def pair_list(n: int) -> tuple[PairIndex, ...]:
    """All strand pairs in the fixed lexicographic coordinate order."""
    check_strand_count(n)
    return tuple(PairIndex(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _position(n: int, a: int, b: int) -> int:
    # coordinate of the pair of distinct labels a, b in 1..n, in either order
    i, j = (a, b) if a < b else (b, a)
    # pairs (1,*), (2,*), ... precede those starting at i
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


@functools.cache
def _pair_grid(n: int) -> tuple[int | None, ...]:
    """_position(n, a, b) at index a * (n + 1) + b, for labels a != b in 1..n.

    The group law's loops read a pair's coordinate here, one index per pair,
    instead of calling _position.  The entries with a = b or a label 0 are
    None, so a stray index fails instead of naming some coordinate.
    """
    labels = range(n + 1)
    return tuple(
        _position(n, a, b) if a and b and a != b else None for a in labels for b in labels
    )


def pair_position(n: int, pair: PairIndex) -> int:
    """0-based coordinate of a pair in the lexicographic order on pairs."""
    check_strand_count(n)
    check_integer("strand label", pair.j, 1, n)
    return _position(n, pair.i, pair.j)


def pair_action(perm: Permutation) -> tuple[int, ...]:
    """For each pair coordinate, the coordinate of its image pair under perm."""
    n, images = perm.n, perm.images
    grid, width = _pair_grid(n), n + 1
    return tuple(
        [grid[images[i] * width + images[j]] for i in range(n) for j in range(i + 1, n)]
    )


@dataclass(frozen=True)
class LinkingVector:
    """Integer vector indexed by strand pairs in the fixed lexicographic order."""

    n: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))
        # pair_count checks the strand count
        check_length("linking vector", self.coords, pair_count(self.n))
        check_integers("coordinate", self.coords)

    @classmethod
    def zero(cls, n: int) -> "LinkingVector":
        return _checked_vector(n, (0,) * pair_count(n))

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "LinkingVector":
        pos = pair_position(n, PairIndex(i, j))
        coords = [0] * pair_count(n)
        coords[pos] = 1
        return cls(n, tuple(coords))

    def __add__(self, other: "LinkingVector") -> "LinkingVector":
        check_same_strands(self.n, other.n)
        return _checked_vector(self.n, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LinkingVector") -> "LinkingVector":
        check_same_strands(self.n, other.n)
        return _checked_vector(self.n, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LinkingVector":
        return _checked_vector(self.n, tuple(-a for a in self.coords))

    def scaled(self, k: int) -> "LinkingVector":
        check_integer("scale", k)
        return _checked_vector(self.n, tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def coordinate(self, pair: PairIndex) -> int:
        return self.coords[pair_position(self.n, pair)]


def _checked_vector(n: int, coords: tuple[int, ...]) -> LinkingVector:
    """A vector from coordinates already known to fit, skipping the check.

    The caller guarantees what LinkingVector.__post_init__ would check:
    n >= 2 and coords is a tuple of pair_count(n) integers.
    """
    vec = object.__new__(LinkingVector)
    object.__setattr__(vec, "n", n)
    object.__setattr__(vec, "coords", coords)
    return vec


def permutation(w: BraidWord) -> Permutation:
    """The underlying permutation of a braid word (strand k ends at position images[k-1])."""
    seats = list(range(1, w.n + 1))
    for k in w.letters:
        i = abs(k)
        seats[i - 1], seats[i] = seats[i], seats[i - 1]
    images = [0] * w.n
    for pos, strand in enumerate(seats, start=1):
        images[strand - 1] = pos
    return _checked_permutation(tuple(images))


def pure_generator(n: int, i: int, j: int) -> BraidWord:
    """The standard pure braid word twisting strands i and j once around each other."""
    check_strand_count(n)
    check_integer("strand i", i, 1, n - 1)
    check_integer("strand j", j, i + 1, n)
    return _checked_word(n, _pure_letters(i, j, 1))


def _pure_letters(i: int, j: int, sign: int) -> tuple[int, ...]:
    # sigma_(j-1) ... sigma_(i+1) sigma_i^(2 sign) sigma_(i+1)^-1 ... sigma_(j-1)^-1,
    # the pure generator for sign 1 and its inverse for sign -1
    return (*range(j - 1, i, -1), sign * i, sign * i, *range(-i - 1, -j, -1))


def full_twist(n: int) -> BraidWord:
    """The central full twist word, of length n(n-1)."""
    check_strand_count(n)
    return BraidWord(n, tuple(range(1, n)) * n)


def artin_relators(n: int) -> tuple[BraidWord, ...]:
    """The (n-1)(n-2)/2 defining relators of the braid group on n strands."""
    check_strand_count(n)
    rels = []
    for i in range(1, n - 1):
        rels.append(BraidWord(n, (i, i + 1, i, -(i + 1), -i, -(i + 1))))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(BraidWord(n, (i, j, -i, -j)))
    return tuple(rels)


def torelli_chain(n: int, k: int) -> BraidWord:
    """The (2k+2)-th power of the first k generators; pure for even k.

    These elements are squares of Dehn twists about chains of an odd number of
    punctures and lie in the kernel of the integral representation.
    """
    check_strand_count(n)
    check_integer("chain length k", k, 2, n - 1)
    if k % 2 != 0:
        raise ValueError(f"chain length k must be even, got {k}")
    return BraidWord(n, tuple(range(1, k + 1))) ** (2 * k + 2)


def linking_vector(w: BraidWord) -> LinkingVector:
    """Pairwise linking numbers of a pure braid word.

    Walks the word tracking which original strand sits at each position; a
    letter at position k adds its sign to the counter of the unordered pair of
    original strands currently at positions (k, k+1).  Each counter must come
    out even; the result is the halved counters.
    """
    n = w.n
    seats = list(range(1, n + 1))
    counters = [0] * pair_count(n)
    for k in w.letters:
        i = abs(k)
        a, b = seats[i - 1], seats[i]
        counters[_position(n, a, b)] += 1 if k > 0 else -1
        seats[i - 1], seats[i] = seats[i], seats[i - 1]
    if seats != list(range(1, n + 1)):
        raise ValueError("linking_vector needs a pure word (trivial permutation)")
    if any(c % 2 for c in counters):
        raise RuntimeError("odd crossing counter on a pure word; internal bug")
    return LinkingVector(n, tuple(c // 2 for c in counters))


def random_word(rng: Random, n: int, max_length: int) -> BraidWord:
    """Uniform random word of length 0..max_length; max_length < 0 raises.

    The length is rng.randint(0, max_length) and the letters are
    rng.choice((1, -1)) * rng.randint(1, n - 1), all drawn straight from
    rng.getrandbits by the rejection loops those calls run on CPython 3.10
    to 3.13: the length is (max_length + 1).bit_length() bits redrawn until
    at most max_length, the sign is 2 bits redrawn until below 2, where 0
    means +1, and the index less one is (n - 1).bit_length() bits redrawn
    until below n - 1.  So the words, and the state rng is left in, are the
    same as with those calls.
    """
    check_strand_count(n)
    check_integer("max_length", max_length, 0)
    bits = rng.getrandbits
    span = (max_length + 1).bit_length()
    length = bits(span)
    while length > max_length:
        length = bits(span)
    top = n - 1
    width = top.bit_length()
    letters = []
    for _ in range(length):
        sign = bits(2)
        while sign >= 2:
            sign = bits(2)
        index = bits(width)
        while index >= top:
            index = bits(width)
        letters.append(-1 - index if sign else index + 1)
    return _checked_word(n, tuple(letters))


def random_pure_word(rng: Random, n: int, factors: int) -> BraidWord:
    """Random pure word: a product of factors conjugated standard pure
    generators; factors < 0 raises."""
    check_integer("factors", factors, 0)
    check_strand_count(n)
    letters: list[int] = []
    for _ in range(factors):
        conj = random_word(rng, n, 4).letters
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        letters += conj
        letters += _pure_letters(i, j, rng.choice((1, -1)))
        letters += [-x for x in reversed(conj)]
    return _checked_word(n, tuple(letters))


def all_permutations(n: int):
    """Iterate over all permutations of {1..n}."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
