"""The integral homological braid representation and its mod-m reductions.

The representation is the n-dimensional unreduced Burau representation
specialized at t = -1, used uniformly for every n.  Generator i acts by the
unipotent block [[2, -1], [1, 0]] at rows and columns (i, i+1) of the
identity.  Every image fixes the all-ones column vector on the right and the
alternating covector on the left, and preserves the skew form of
invariant_form.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import mul
from random import Random

from . import _EXPORTS, matrices
from .matrices import IntMatrix, check_integer, check_rows
from .words import BraidWord, _checked_word, check_modulus, check_strand_count, random_word

__all__ = list(_EXPORTS["burau"])


def _check_generator(n: int, i: int, sign: int) -> None:
    check_strand_count(n)
    check_integer("generator index", i, 1, n - 1)
    check_integer("sign", sign)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")


def generator_matrix(n: int, i: int, sign: int = 1) -> IntMatrix:
    """Image of the i-th generator (or its inverse) as an exact integer matrix."""
    _check_generator(n, i, sign)
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if sign > 0:
        rows[i - 1][i - 1 : i + 1] = [2, -1]
        rows[i][i - 1 : i + 1] = [1, 0]
    else:
        rows[i - 1][i - 1 : i + 1] = [0, 1]
        rows[i][i - 1 : i + 1] = [-1, 2]
    return tuple(tuple(r) for r in rows)


def burau_matrix(w: BraidWord) -> IntMatrix:
    """Exact integer image of a braid word; determinant 1 for every word."""
    # the row rule of _right_multiply, exact
    rows = [list(row) for row in matrices.identity(w.n)]
    for letter in w.letters:
        if letter > 0:
            i = letter - 1
            for row in rows:
                a = row[i]
                row[i] = a + a + row[letter]
                row[letter] = -a
        else:
            j = -letter
            i = j - 1
            for row in rows:
                b = row[j]
                row[j] = row[i] + b + b
                row[i] = -b
    return tuple(map(tuple, rows))


def _right_multiply(rows: list[list[int]], letters: Iterable[int], m: int) -> None:
    # right-multiply the rows in place by each letter's generator block, with
    # entries reduced into [0, m): a letter changes columns i and i + 1 only,
    # sigma_(i+1) maps (a, b) to (2a + b, -a) and its inverse to (-b, a + 2b)
    for letter in letters:
        if letter > 0:
            i = letter - 1
            for row in rows:
                a = row[i]
                row[i] = (a + a + row[letter]) % m
                row[letter] = -a % m
        else:
            j = -letter
            i = j - 1
            for row in rows:
                b = row[j]
                row[j] = (row[i] + b + b) % m
                row[i] = -b % m


def _is_identity_mod(w: BraidWord, m: int) -> bool:
    # whether w's image is the identity mod m.  Row r of g * sigma is
    # (row r of g) * sigma, so the rows can be walked apart and the answer
    # stays exact: row 0 first, then rows 1..n-1 only once row 0 has come
    # back to e_0, which most non-members miss.  No row is walked twice
    check_modulus(m)
    one = [list(row) for row in matrices.identity(w.n)]
    for rows in (one[:1], one[1:]):
        walked = [row[:] for row in rows]
        _right_multiply(walked, w.letters, m)
        if walked != rows:
            return False
    return True


def burau_matrix_mod(w: BraidWord, m: int) -> IntMatrix:
    """Image of a braid word with entries reduced into [0, m) at every step."""
    check_modulus(m)
    rows = [list(row) for row in matrices.identity(w.n)]
    _right_multiply(rows, w.letters, m)
    return tuple(map(tuple, rows))


def _mul_mod(a: IntMatrix, b: IntMatrix, m: int) -> IntMatrix:
    # the product with each entry reduced into [0, m)
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % m for col in cols) for row in a)


def _pow_mod(a: IntMatrix, k: int, m: int) -> IntMatrix:
    # a^k mod m by repeated squaring
    check_integer("exponent", k, 0)
    out, base = matrices.identity(len(a)), a
    while k:
        if k & 1:
            out = _mul_mod(out, base, m)
        k >>= 1
        if k:
            base = _mul_mod(base, base, m)
    return out


# the exact order search factors p^k - 1 (k <= n) by trial division, up to
# about sqrt(p^n) steps for the largest prime p dividing m: 0.08 s at 10^12
_FACTOR_LIMIT = 10**12


def order_mod(mat: IntMatrix, m: int) -> int | None:
    """Least k >= 1 with mat^k = identity mod m, or None when there is none.

    mat is any square integer matrix, other shapes raise; it is reduced mod
    m once, up front.
    Short orders, up to n * m (those of generator powers and full twists),
    are found by stepping.  Past the steps, one rule decides "no order": a
    matrix whose determinant shares a factor with m is not invertible mod m,
    has no such k, and gives None.  An invertible one has an order, found
    exactly: it divides a known multiple of the exponent of GL_n(Z/m), whose
    prime factors are stripped by powering by squaring.

    Factoring that multiple by trial division costs up to about p^(n/2)
    steps for the largest prime p dividing m, so the exact search runs only
    while p^n <= 10^12.  Beyond that, orders are found by stepping alone, up
    to 4 * m * n, and an invertible matrix whose order is longer raises
    ValueError.
    """
    check_modulus(m)
    n = len(mat)
    check_rows(mat, n)
    mat = tuple(tuple(x % m for x in row) for row in mat)
    primes = _prime_factors(m)
    exact = max(primes) ** n <= _FACTOR_LIMIT
    steps = n * m if exact else 4 * m * n
    one = matrices.identity(n)
    acc = mat
    for k in range(1, steps + 1):
        if acc == one:
            return k
        acc = _mul_mod(acc, mat, m)
    if math.gcd(matrices.determinant(mat), m) != 1:
        return None
    if not exact:
        raise ValueError(
            f"order of an invertible matrix exceeds {steps} steps, and "
            f"{max(primes)}^{n} is past the factoring limit {_FACTOR_LIMIT}"
        )
    factors = _exponent_multiple(n, primes)
    order = math.prod(q**f for q, f in factors.items())
    if _pow_mod(mat, order, m) != one:
        raise RuntimeError("an invertible matrix outlasts the exponent bound; internal bug")
    for q, f in factors.items():
        for _ in range(f):
            if _pow_mod(mat, order // q, m) != one:
                break
            order //= q
    return order


def _prime_factors(x: int) -> dict[int, int]:
    # trial division
    out: dict[int, int] = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def _exponent_multiple(n: int, primes: dict[int, int]) -> dict[int, int]:
    # factored multiple of the exponent of GL_n(Z/m), m = prod p^e over primes:
    # for p^e exactly dividing m, the kernel of reduction mod p has exponent
    # p^(e-1); mod p, the unipotent part of an element has order at most the
    # least p^j >= n and the semisimple part an order dividing
    # lcm(p^k - 1 : k <= n)
    out: dict[int, int] = {}
    for p, e in primes.items():
        j = 0
        while p**j < n:
            j += 1
        parts = [{p: e - 1 + j}] + [_prime_factors(p**k - 1) for k in range(1, n + 1)]
        for part in parts:
            for q, f in part.items():
                out[q] = max(out.get(q, 0), f)
    return {q: f for q, f in out.items() if f}


def ones_vector(n: int) -> tuple[int, ...]:
    """The right-invariant column vector of the representation."""
    check_strand_count(n)
    return (1,) * n


def alternating_covector(n: int) -> tuple[int, ...]:
    """The left-invariant row vector (1, -1, 1, ...)."""
    check_strand_count(n)
    return tuple((-1) ** k for k in range(n))


def invariant_form(n: int) -> IntMatrix:
    """The skew form J preserved by every image: g^T J g = J.

    J[r][c] = (-1)^(r+c+1) for r < c, J[c][r] = -J[r][c], and 0 on the
    diagonal.  Off the generator block, rows i and i+1 of J are opposite, and
    the block [[2, -1], [1, 0]] has determinant 1, so g^T J g = J for every
    letter g.
    """
    check_strand_count(n)
    return tuple(
        tuple((-1) ** (r + c + 1) * ((c > r) - (c < r)) for c in range(n)) for r in range(n)
    )


def transvection_generator(n: int, i: int, sign: int = 1) -> IntMatrix:
    """Generator image in the chain model of dimension n - 1.

    Basis vectors are the classes of a chain of curves with consecutive
    intersection one; each generator acts as a transvection along its curve.
    """
    _check_generator(n, i, sign)
    d = n - 1
    rows = [[1 if r == c else 0 for c in range(d)] for r in range(d)]
    if i >= 2:
        rows[i - 1][i - 2] = sign
    if i < d:
        rows[i - 1][i] = -sign
    return tuple(tuple(r) for r in rows)


def _chain_matrix_mod(w: BraidWord, m: int) -> IntMatrix:
    # right-multiply in place by each transvection: for letter +-(i+1),
    # column i-1 gains +-column i and column i+1 loses it.  Each row carries
    # a scratch column at either end, so column c sits at c + 1 and the
    # letters at the ends of the chain need no bounds test
    rows = [[0, *row, 0] for row in matrices.identity(w.n - 1)]
    for letter in w.letters:
        if letter > 0:
            for row in rows:
                x = row[letter]
                row[letter - 1] = (row[letter - 1] + x) % m
                row[letter + 1] = (row[letter + 1] - x) % m
        else:
            j = -letter
            for row in rows:
                x = row[j]
                row[j - 1] = (row[j - 1] - x) % m
                row[j + 1] = (row[j + 1] + x) % m
    return tuple(tuple(row[1:-1]) for row in rows)


def _conjugated_powers(rng: Random, n: int, k: int) -> BraidWord:
    # a product of one to three conjugates of a signed k-th generator power,
    # so a member of the level-k subgroup
    letters: list[int] = []
    for _ in range(rng.randint(1, 3)):
        conj = random_word(rng, n, 6).letters
        i = rng.randint(1, n - 1)
        letters += conj
        letters += (rng.choice((1, -1)) * i,) * k
        letters += [-x for x in reversed(conj)]
    return _checked_word(n, tuple(letters))


def check_transvection_model(n: int, m: int, seed: int = 0) -> bool:
    """Compare mod-m kernel membership across the two models on 200 random words.

    Half the samples are plain random words; the other half are synthesized
    kernel members (products of conjugated m-th generator powers), so the
    agreement is exercised in both directions.
    """
    check_strand_count(n)
    if n % 2 != 1:
        raise ValueError(f"chain model comparison requires odd strand count, got {n}")
    check_modulus(m)
    check_integer("seed", seed)
    rng = Random(seed)
    chain_one = matrices.identity(n - 1)
    for t in range(200):
        if t % 2 == 0:
            w = random_word(rng, n, 25)
        else:
            w = _conjugated_powers(rng, n, m)
        if _is_identity_mod(w, m) != (_chain_matrix_mod(w, m) == chain_one):
            return False
    return True
