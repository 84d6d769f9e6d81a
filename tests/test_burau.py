"""The integral representation, its modular reductions, and the invariant form."""

import itertools
import math
from random import Random

import pytest

from braidcong import burau
from braidcong.burau import (
    alternating_covector,
    burau_matrix,
    burau_matrix_mod,
    check_transvection_model,
    generator_matrix,
    invariant_form,
    ones_vector,
    order_mod,
    transvection_generator,
)
from braidcong.congruence import abelianization, enumerate_image, is_member
from braidcong.matrices import (
    determinant,
    identity,
    mat_mul,
    mat_vec,
    transpose,
)
from braidcong.smith import kernel_basis
from braidcong.words import BraidWord, full_twist, pair_list, pair_position, random_word


def test_generator_matrix_blocks():
    g = generator_matrix(3, 1)
    assert g == ((2, -1, 0), (1, 0, 0), (0, 0, 1))
    assert generator_matrix(3, 2) == ((1, 0, 0), (0, 2, -1), (0, 1, 0))
    assert mat_mul(g, generator_matrix(3, 1, -1)) == identity(3)
    with pytest.raises(ValueError):
        generator_matrix(3, 3)


def test_generators_are_unipotent():
    for n in range(3, 7):
        for i in range(1, n):
            for sign in (1, -1):
                g = generator_matrix(n, i, sign)
                nilpotent = tuple(
                    tuple(x - (1 if r == c else 0) for c, x in enumerate(row))
                    for r, row in enumerate(g)
                )
                assert all(
                    x == 0 for row in mat_mul(nilpotent, nilpotent) for x in row
                )
                assert determinant(g) == 1


def test_braid_relations_hold():
    for n in range(3, 6):
        for i in range(1, n - 1):
            a = generator_matrix(n, i)
            b = generator_matrix(n, i + 1)
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
        for i in range(1, n):
            for j in range(i + 2, n):
                a = generator_matrix(n, i)
                b = generator_matrix(n, j)
                assert mat_mul(a, b) == mat_mul(b, a)


def _generator_product(w):
    # oracle without the letter kernel: one full product per generator matrix
    product = identity(w.n)
    for k in w.letters:
        product = mat_mul(product, generator_matrix(w.n, abs(k), 1 if k > 0 else -1))
    return product


def _kernel_words(rng, n):
    # the empty word, single end letters, inverse-only words and mixed words
    yield BraidWord(n)
    for k in {1, n - 1, -1, -(n - 1)}:
        yield BraidWord(n, (k,) * 3)
    for _ in range(8):
        w = random_word(rng, n, 25)
        yield w
        yield BraidWord(n, tuple(-abs(k) for k in w.letters))


def test_word_evaluation_matches_matrix_products():
    """Dual route: the in-place column update against explicit products."""
    rng = Random(601)
    assert burau_matrix(BraidWord(4, ())) == identity(4)
    for _ in range(60):
        n = rng.randint(3, 6)
        w = random_word(rng, n, 30)
        product = _generator_product(w)
        assert burau_matrix(w) == product
        assert mat_mul(product, burau_matrix(w.inverse())) == identity(n)
        assert determinant(product) == 1
        m = rng.randint(2, 9)
        reduced = tuple(tuple(x % m for x in row) for row in product)
        assert burau_matrix_mod(w, m) == reduced


def test_invariant_vectors():
    rng = Random(602)
    for _ in range(40):
        n = rng.randint(3, 6)
        b = burau_matrix(random_word(rng, n, 20))
        assert mat_vec(b, ones_vector(n)) == ones_vector(n)
        assert mat_vec(transpose(b), alternating_covector(n)) == alternating_covector(n)


def test_order_mod_basics():
    tw = burau_matrix_mod(full_twist(3), 3)
    assert order_mod(tw, 3) == 2
    assert order_mod(identity(4), 7) == 1
    # a unipotent element has order m for prime m
    g = burau_matrix_mod(BraidWord(3, (1,)), 5)
    assert order_mod(g, 5) == 5
    # the input is reduced first, so integer images need no reduction
    assert order_mod(generator_matrix(3, 1), 5) == 5
    for m in (1, 0, -3):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            order_mod(identity(3), m)
    with pytest.raises(ValueError, match="row 0 has 2 entries, expected 1"):
        order_mod(((1, 2),), 3)
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        order_mod(((1, 0), (0,)), 3)


def _product_mod(a, b, m):
    # oracle: the exact integer product, then reduced
    return tuple(tuple(x % m for x in row) for row in mat_mul(a, b))


def _stepped_order(g, m, cap):
    # oracle: one multiplication at a time up to the cap
    acc = g
    for k in range(1, cap + 1):
        if acc == identity(len(g)):
            return k
        acc = _product_mod(acc, g, m)
    return None


def test_order_mod_is_exact_above_the_old_cap():
    rng = Random(130)
    long_orders = 0
    for _ in range(12):
        g = burau_matrix_mod(random_word(rng, 9, 40), 7)
        k = order_mod(g, 7)
        assert k == _stepped_order(g, 7, 10**4)
        long_orders += k > 4 * 7 * 9
    assert long_orders > 0


def test_order_mod_composite_moduli_and_singular_matrices():
    rng = Random(131)
    for n, m in ((3, 8), (4, 9), (4, 12), (3, 25), (5, 6)):
        for _ in range(4):
            g = burau_matrix_mod(random_word(rng, n, 30), m)
            assert order_mod(g, m) == _stepped_order(g, m, 10**4)
    # the companion matrix of x^3 - x - 1 mod p^e: its order has a p-part
    # from the kernel of reduction mod p, beyond what stepping to 3m reaches
    for m in (32, 27, 25):
        g = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
        assert order_mod(g, m) == _stepped_order(g, m, 10**4) > 3 * m
    # no power of a matrix that is not invertible mod m is the identity
    assert order_mod(((2, 0), (0, 1)), 4) is None
    assert order_mod(((3, 1), (0, 1)), 9) is None


def test_order_mod_is_none_exactly_for_singular_matrices():
    # the exact regime: no power of a matrix that is not invertible mod m is
    # the identity, and every invertible one has an order
    assert order_mod(((0, 0), (0, 0)), 5) is None
    for m in (4, 6):
        for entries in itertools.product(range(m), repeat=4):
            g = (entries[:2], entries[2:])
            k = order_mod(g, m)
            assert (k is None) == (math.gcd(determinant(g), m) != 1)
            if k is not None:
                assert k == _stepped_order(g, m, 10**4)


def test_order_mod_raises_on_a_wrong_exponent_bound(monkeypatch):
    # the companion matrix of x^3 - x - 1 mod 25 is invertible with an order
    # beyond the steps; a bound missing a prime of that order is a bug
    g, m = ((0, 0, 1), (1, 0, 1), (0, 1, 0)), 25
    order = order_mod(g, m)
    assert order > 3 * m
    dropped = max(burau._prime_factors(order))
    exact = burau._exponent_multiple

    def short(n, primes):
        return {q: f for q, f in exact(n, primes).items() if q != dropped}

    monkeypatch.setattr(burau, "_exponent_multiple", short)
    with pytest.raises(RuntimeError, match="exponent bound"):
        order_mod(g, m)


def test_order_mod_steps_only_beyond_the_factoring_limit(monkeypatch):
    # 29^13 > 10^12: factoring 29^13 - 1 by trial division could take minutes,
    # so the search steps to 4 * m * n and factors nothing
    def refuse(n, primes):
        raise AssertionError("exact order search beyond the factoring limit")

    monkeypatch.setattr(burau, "_exponent_multiple", refuse)
    n, m = 13, 29
    assert order_mod(burau_matrix_mod(BraidWord(n, (1,)), m), m) == m
    # an invertible matrix has an order, only too long to find here; a
    # singular one has none
    g = burau_matrix_mod(random_word(Random(133), n, 40), m)
    with pytest.raises(ValueError, match="past the factoring limit 1000000000000$"):
        order_mod(g, m)
    singular = ((m,) * n,) + g[1:]
    assert order_mod(singular, m) is None


def test_modular_power_matches_repeated_products():
    g = burau_matrix_mod(random_word(Random(132), 4, 20), 5)
    acc = identity(4)
    for k in range(12):
        assert burau._pow_mod(g, k, 5) == acc
        acc = _product_mod(acc, g, 5)
    with pytest.raises(ValueError):
        burau._pow_mod(g, -1, 5)


def test_generator_reduces_to_permutation_matrix_mod_two():
    assert burau_matrix_mod(BraidWord(3, (1,)), 2) == (
        (0, 1, 0),
        (1, 0, 0),
        (0, 0, 1),
    )


def test_full_twist_matrix_is_central():
    for n in (3, 4, 5):
        tw = burau_matrix(full_twist(n))
        for i in range(1, n):
            g = generator_matrix(n, i)
            assert mat_mul(tw, g) == mat_mul(g, tw)


def test_full_twist_negates_the_invariant_hyperplane_for_odd_n():
    # for odd n the twist fixes the all-ones vector and negates the
    # hyperplane annihilated by the alternating covector
    for n in (3, 5):
        tw = burau_matrix(full_twist(n))
        assert mat_vec(tw, ones_vector(n)) == ones_vector(n)
        for k in range(n - 1):
            v = tuple(1 if t in (k, k + 1) else 0 for t in range(n))
            assert mat_vec(tw, v) == tuple(-x for x in v)


def test_full_twist_order_table():
    for n in (3, 5, 7):
        assert order_mod(burau_matrix_mod(full_twist(n), 2), 2) == 1
        for m in range(3, 8):
            assert order_mod(burau_matrix_mod(full_twist(n), m), m) == 2
    for n in (4, 6):
        for m in (3, 5, 7):
            assert order_mod(burau_matrix_mod(full_twist(n), m), m) == m
        for m in (4, 6):
            assert order_mod(burau_matrix_mod(full_twist(n), m), m) == m // 2


@pytest.mark.parametrize("n", range(2, 13))
def test_invariant_form_is_pinned(n):
    # J[r][c] = +-1 off the diagonal, + on the superdiagonal and alternating
    # away from it
    j = invariant_form(n)
    assert j == tuple(
        tuple(0 if r == c else (1 if c > r else -1) * (-1) ** (abs(c - r) - 1) for c in range(n))
        for r in range(n)
    )
    assert j == tuple(tuple(-j[c][r] for c in range(n)) for r in range(n))  # skew


def test_invariant_form_is_preserved():
    for n in range(2, 13):
        j = invariant_form(n)
        for i in range(1, n):
            for sign in (1, -1):
                g = generator_matrix(n, i, sign)
                assert mat_mul(mat_mul(transpose(g), j), g) == j, (n, i, sign)


def _form_constraints(n):
    # the constraint system on the above-diagonal entries of a skew form J,
    # one unknown per strand pair: the entry of g^T J g - J at each pair,
    # for each generator image g
    pairs = pair_list(n)
    rows = []
    for i in range(1, n):
        g = generator_matrix(n, i)
        for p in pairs:
            row = [0] * len(pairs)
            for a in pairs:
                coeff = (
                    g[a.i - 1][p.i - 1] * g[a.j - 1][p.j - 1]
                    - g[a.j - 1][p.i - 1] * g[a.i - 1][p.j - 1]
                )
                row[pair_position(n, a)] = coeff - (a == p)
            rows.append(row)
    return rows


def test_invariant_form_spans_the_constraint_solutions():
    """The solver oracle: the integer kernel of the constraint system has
    rank 1 and is spanned by J's above-diagonal entries, so J is the only
    preserved skew form up to a scalar."""
    for n in range(3, 10):
        j = invariant_form(n)
        basis = kernel_basis(_form_constraints(n))
        above = tuple(j[p.i - 1][p.j - 1] for p in pair_list(n))
        assert len(basis) == 1, n
        assert basis[0] in (above, tuple(-x for x in above)), n


def _chain_basis(n):
    # column k is e_k + e_(k+1): a basis of the kernel of the alternating covector
    return tuple(tuple(1 if r - c in (0, 1) else 0 for c in range(n - 1)) for r in range(n))


def test_invariant_form_parity_behavior():
    """J restricted to the kernel of the alternating covector, f^T J f, is
    unimodular for odd n; for even n its kernel lifts to the all-ones vector
    up to sign, which every generator fixes and the full form does not kill."""
    for n in range(3, 10):
        f = _chain_basis(n)
        j = invariant_form(n)
        restriction = mat_mul(transpose(f), mat_mul(j, f))
        if n % 2:
            assert determinant(restriction) == 1, n
            continue
        lifted = [mat_vec(f, y) for y in kernel_basis(restriction)]
        assert len(lifted) == 1, n
        v = lifted[0]
        assert v in (ones_vector(n), tuple(-x for x in ones_vector(n))), n
        for i in range(1, n):
            for sign in (1, -1):
                assert mat_vec(generator_matrix(n, i, sign), v) == v
        assert any(mat_vec(j, v))


def test_transvection_generators_satisfy_relations():
    for n in (3, 5, 7):
        size = n - 1
        for i in range(1, n - 1):
            a = transvection_generator(n, i)
            b = transvection_generator(n, i + 1)
            assert mat_mul(mat_mul(a, b), a) == mat_mul(mat_mul(b, a), b)
        for i in range(1, n):
            assert mat_mul(
                transvection_generator(n, i), transvection_generator(n, i, -1)
            ) == identity(size)
            for j in range(i + 2, n):
                a = transvection_generator(n, i)
                b = transvection_generator(n, j)
                assert mat_mul(a, b) == mat_mul(b, a)


def test_transvection_model_agreement():
    for (n, m) in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        assert check_transvection_model(n, m, seed=603)


def _composed_conjugated_powers(rng, n, k):
    # oracle: the product formula _conjugated_powers used before it built its
    # letters in one list
    w = BraidWord(n)
    for _ in range(rng.randint(1, 3)):
        conj = random_word(rng, n, 6)
        i = rng.randint(1, n - 1)
        power = BraidWord(n, (rng.choice((1, -1)) * i,) * k)
        w = w * conj * power * conj.inverse()
    return w


def test_conjugated_powers_keep_the_composed_draw_stream():
    checked = 0
    for n in range(2, 9):
        for k in range(2, 8):
            fast, oracle = Random(10 * n + k), Random(10 * n + k)
            for _ in range(4):
                w = burau._conjugated_powers(fast, n, k)
                assert w == _composed_conjugated_powers(oracle, n, k), (n, k)
                assert fast.getstate() == oracle.getstate(), (n, k)
                assert is_member(w, k)
                checked += 1
    assert checked == 7 * 6 * 4


def _two_matrix_agreement(n, m, seed):
    # oracle: check_transvection_model's loop with both models' full images
    rng = Random(seed)
    for t in range(200):
        if t % 2 == 0:
            w = random_word(rng, n, 25)
        else:
            w = burau._conjugated_powers(rng, n, m)
        if (burau_matrix_mod(w, m) == identity(n)) != (
            burau._chain_matrix_mod(w, m) == identity(n - 1)
        ):
            return False
    return True


def _row_zero_fixers(rng, n):
    # words in sigma_2 .. sigma_(n-1) only: they fix row 0, so the second
    # stage of the membership test decides them
    for length in (1, 2, 3, 6, 12, 25):
        yield BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(2, n - 1) for _ in range(length)))


def test_membership_screen_matches_the_full_image():
    """is_member walks row 0 first; the full mod-m image is the oracle."""
    rng = Random(2200)
    seen = {True: 0, False: 0}
    fixers = 0
    for n in range(2, 8):
        one = identity(n)
        for m in range(2, 10):
            words = [random_word(rng, n, 30) for _ in range(12)]
            words += [burau._conjugated_powers(rng, n, m) for _ in range(6)]
            words += [BraidWord(n, (i,) * m) for i in range(1, n)]
            if n >= 3:
                row_zero = list(_row_zero_fixers(rng, n))
                assert all(burau_matrix_mod(w, m)[0] == one[0] for w in row_zero)
                words += row_zero
                words += [w**m for w in row_zero]
                fixers += 2 * len(row_zero)
            for w in words:
                want = burau_matrix_mod(w, m) == one
                assert is_member(w, m) == want, (w, m)
                seen[want] += 1
    # both answers, and both answers past row 0, are exercised
    assert min(seen.values()) > 300
    assert fixers == 5 * 8 * 12
    assert not is_member(BraidWord(4, (2, 3)), 2)
    assert is_member(BraidWord(3, (2, 2, 2)), 3)


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (3, 7), (5, 2), (5, 3), (5, 4), (7, 5)])
def test_transvection_check_matches_the_two_matrix_comparison(monkeypatch, n, m):
    for seed in (0, 603, 2026):
        assert check_transvection_model(n, m, seed) is _two_matrix_agreement(n, m, seed)
    # a wrong chain model must be caught the same way by both
    monkeypatch.setattr(burau, "_chain_matrix_mod", lambda w, m: identity(w.n - 1))
    assert check_transvection_model(n, m, 5) is _two_matrix_agreement(n, m, 5) is False


def _chain_product_mod(w, m):
    # oracle: one full matrix product per transvection generator
    out = identity(w.n - 1)
    for k in w.letters:
        g = transvection_generator(w.n, abs(k), 1 if k > 0 else -1)
        out = tuple(tuple(x % m for x in row) for row in mat_mul(out, g))
    return out


def test_chain_matrix_matches_the_transvection_product():
    for n in (3, 5, 7):
        for m in (2, 3, 7):
            for i in range(1, n):
                for sign in (1, -1):
                    expect = tuple(
                        tuple(x % m for x in row)
                        for row in transvection_generator(n, i, sign)
                    )
                    assert burau._chain_matrix_mod(BraidWord(n, (sign * i,)), m) == expect
    rng = Random(604)
    for n in (3, 5, 7):
        for _ in range(40):
            m = rng.randint(2, 12)
            w = random_word(rng, n, 30)
            assert burau._chain_matrix_mod(w, m) == _chain_product_mod(w, m)
    for n in (3, 5, 7, 9):
        for m in (2, 3, 4, 7, 10**9):
            for w in _kernel_words(rng, n):
                assert burau._chain_matrix_mod(w, m) == _chain_product_mod(w, m), (w, m)


@pytest.mark.parametrize("n, m", [(3, 3), (5, 2)])
def test_transvection_check_fails_on_a_wrong_chain_model(monkeypatch, n, m):
    # a chain model that maps every word to the identity calls every random
    # word a kernel member, so the comparison must report the disagreement
    monkeypatch.setattr(burau, "_chain_matrix_mod", lambda w, m: identity(w.n - 1))
    assert check_transvection_model(n, m) is False


def test_transvection_model_rejects_bad_input():
    with pytest.raises(ValueError):
        check_transvection_model(4, 3)
    with pytest.raises(ValueError):
        check_transvection_model(3, 1)


@pytest.mark.parametrize("m", [1, 0, -3])
def test_every_modulus_below_two_is_rejected(m):
    w = BraidWord(3, (1, 2))
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        burau_matrix_mod(w, m)
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        is_member(w, m)
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        enumerate_image(3, m)
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        abelianization(3, m)
    with pytest.raises(ValueError, match="modulus must be at least 2"):
        check_transvection_model(3, m)


@pytest.mark.parametrize("m", [2.5, 3.0, True])
def test_every_non_integer_modulus_is_rejected(m):
    w = BraidWord(3, (1, 2))
    message = f"modulus must be an integer, got {m!r}"
    for call in (
        lambda: enumerate_image(3, m),
        lambda: burau_matrix_mod(w, m),
        lambda: is_member(w, m),
        lambda: abelianization(3, m),
        lambda: order_mod(burau_matrix(w), m),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("m", [2, 3, 4, 7, 10**9])
def test_letter_kernel_matches_the_exact_image_and_the_generator_product(m):
    rng = Random(2100 + m % 1000)
    for n in range(2, 9):
        for w in _kernel_words(rng, n):
            exact = burau_matrix(w)
            assert exact == _generator_product(w), w
            reduced = tuple(tuple(x % m for x in row) for row in exact)
            assert burau_matrix_mod(w, m) == reduced, (w, m)


def test_exact_image_of_long_words_with_large_entries():
    # the entries of these words grow exponentially with their length, far
    # past any bound linear in it; those of a generator power grow linearly
    for w in (BraidWord(3, (1, -2) * 60), BraidWord(4, (1, -2, 3) * 40)):
        product = _generator_product(w)
        assert max(abs(x) for row in product for x in row) > 10**20
        assert burau_matrix(w) == product
    w = BraidWord(3, (1,) * 200)
    assert burau_matrix(w) == _generator_product(w) == ((201, -200, 0), (200, -199, 0), (0, 0, 1))
