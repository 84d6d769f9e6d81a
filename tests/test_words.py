"""Word algebra, permutations, linking vectors and their conjugation action."""

from random import Random

import pytest

from braidcong import congruence, cryst
from braidcong.cryst import CrystElement
from braidcong.matrices import check_integer
from braidcong.words import (
    BraidWord,
    LinkingVector,
    PairIndex,
    Permutation,
    _pair_grid,
    _position,
    all_permutations,
    full_twist,
    linking_vector,
    pair_action,
    pair_count,
    pair_list,
    pair_position,
    permutation,
    pure_generator,
    random_pure_word,
    random_word,
    torelli_chain,
)


def test_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, ())
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, (-5,))
    assert len(BraidWord(5, ())) == 0
    # pair_count(n) is 0, 0 and 3 here, so the coordinate count alone passes
    for n in (1, 0, -2):
        for build in (LinkingVector.zero, lambda n: LinkingVector(n, (0,) * pair_count(n))):
            with pytest.raises(ValueError, match=f"^strand count must be at least 2, got {n}$"):
                build(n)


def test_word_algebra():
    u = BraidWord(4, (1, 2, -3))
    v = BraidWord(4, (3,))
    assert (u * v).letters == (1, 2, -3, 3)
    assert u.inverse().letters == (3, -2, -1)
    assert (u ** 0).letters == ()
    assert (u ** 2).letters == u.letters * 2
    assert (u ** -1).letters == u.inverse().letters
    with pytest.raises(ValueError):
        u * BraidWord(5, (1,))


def test_derived_words_equal_the_checked_construction():
    """Products, inverses and powers skip the letter check but build the
    same word as BraidWord(n, letters), which still checks."""
    rng = Random(2610)
    for _ in range(200):
        n = rng.randint(2, 6)
        u, v = random_word(rng, n, 8), random_word(rng, n, 8)
        k = rng.randint(-3, 3)
        assert u == BraidWord(n, u.letters)
        assert u * v == BraidWord(n, u.letters + v.letters)
        assert u.inverse() == BraidWord(n, tuple(-x for x in reversed(u.letters)))
        assert u**k == BraidWord(n, (u.letters if k >= 0 else u.inverse().letters) * abs(k))
        for w in (u * v, u.inverse(), u**k):
            assert type(w.letters) is tuple and w.n == n
    for letter in (0, 3, -3, 7):
        with pytest.raises(ValueError, match=f"letter {letter} is out of range for 3 strands"):
            BraidWord(3, (letter,))
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"strand count must be at least 2, got {n}"):
            random_word(Random(1), n, 5)


def test_sequence_arguments_are_stored_as_tuples():
    built = (BraidWord(3, [1, -2]), Permutation([2, 1, 3]), LinkingVector(3, [1, 0, 0]))
    expected = (BraidWord(3, (1, -2)), Permutation((2, 1, 3)), LinkingVector(3, (1, 0, 0)))
    for value, tuple_built in zip(built, expected):
        assert value == tuple_built and hash(value) == hash(tuple_built)
    word, perm, vec = built
    assert type(word.letters) is type(perm.images) is type(vec.coords) is tuple


def test_permutation_convention():
    # strand k ends at position images[k-1]; words act left to right
    assert permutation(BraidWord(3, (1,))).images == (2, 1, 3)
    assert permutation(BraidWord(3, (1, 2))).images == (3, 1, 2)
    assert permutation(BraidWord(3, (-1,))).images == (2, 1, 3)


def test_permutation_multiplicative():
    rng = Random(4001)
    for _ in range(1000):
        n = rng.randint(2, 7)
        u = random_word(rng, n, 12)
        v = random_word(rng, n, 12)
        assert permutation(u * v) == permutation(u) * permutation(v)


def test_permutation_inverse_and_order():
    rng = Random(4002)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = permutation(random_word(rng, n, 12))
        assert (p * p.inverse()).is_identity()
        assert p.order() >= 1
        q = Permutation.identity(n)
        for _ in range(p.order()):
            q = q * p
        assert q.is_identity()


def test_cycle_type_and_order_match_stepping():
    """Both against the step-by-step loops, on every permutation with n <= 6."""
    for n in range(1, 7):
        for p in all_permutations(n):
            order, q = 1, p
            while not q.is_identity():
                q = q * p
                order += 1
            assert p.order() == order
            orbit = []
            for x in range(1, n + 1):
                length, y = 1, p(x)
                while y != x:
                    y = p(y)
                    length += 1
                orbit.append(length)
            # a cycle of length L contributes L points with orbit length L
            want = tuple(
                sorted((L for L in set(orbit) for _ in range(orbit.count(L) // L)), reverse=True)
            )
            assert p.cycle_type() == want
            assert sum(p.cycle_type()) == n
    assert Permutation((2, 3, 1, 5, 4, 6)).cycle_type() == (3, 2, 1)
    assert Permutation((2, 3, 1, 5, 4, 6)).order() == 6


def test_pair_index_normalizes():
    assert PairIndex(3, 1) == PairIndex(1, 3)
    assert PairIndex(3, 1).i == 1 and PairIndex(3, 1).j == 3
    with pytest.raises(ValueError):
        PairIndex(2, 2)
    with pytest.raises(ValueError):
        PairIndex(0, 2)
    with pytest.raises(ValueError):
        PairIndex(2, 0)


def test_pair_positions_cover_lexicographic_order():
    for n in range(2, 8):
        pairs = pair_list(n)
        assert len(pairs) == pair_count(n)
        assert [pair_position(n, p) for p in pairs] == list(range(pair_count(n)))
    with pytest.raises(ValueError):
        pair_position(3, PairIndex(1, 4))


def test_pair_action_matches_the_pair_index_oracle():
    for n in range(2, 7):
        pairs = pair_list(n)
        for perm in all_permutations(n):
            oracle = tuple(
                pair_position(n, PairIndex(perm(p.i), perm(p.j))) for p in pairs
            )
            assert pair_action(perm) == oracle


def test_pair_grid_tabulates_the_pair_position():
    for n in range(2, 25):
        width = n + 1
        grid = _pair_grid(n)
        assert len(grid) == width * width
        for a in range(width):
            for b in range(width):
                expected = _position(n, a, b) if a and b and a != b else None
                assert grid[a * width + b] == expected, (n, a, b)
        # each coordinate appears once per order of its pair
        assert sorted(x for x in grid if x is not None) == sorted(list(range(pair_count(n))) * 2)


@pytest.mark.parametrize(
    "call, a, b",
    [
        (lambda: BraidWord(3, (1,)) * BraidWord(4, (1,)), 3, 4),
        (lambda: Permutation.identity(4) * Permutation.identity(3), 4, 3),
        (lambda: CrystElement.identity(3) * CrystElement.identity(5), 3, 5),
        (lambda: LinkingVector.zero(3) + LinkingVector.zero(4), 3, 4),
        (lambda: LinkingVector.zero(4) - LinkingVector.zero(3), 4, 3),
        (lambda: congruence.enumerate_image(3, 2).trace(1, BraidWord(4)), 4, 3),
        (
            lambda: congruence.subgroup_coordinates(
                congruence.enumerate_image(3, 2), BraidWord(5)
            ),
            5,
            3,
        ),
        (
            lambda: congruence.conjugation_action(
                congruence.abelianization(3, 2), BraidWord(4)
            ),
            4,
            3,
        ),
        (lambda: cryst.power_endomorphism(4, 3, CrystElement.identity(3)), 3, 4),
        (lambda: cryst.power_quotient_class(5, 3, CrystElement.identity(3)), 3, 5),
    ],
    ids=[
        "BraidWord-product",
        "Permutation-product",
        "CrystElement-product",
        "LinkingVector-sum",
        "LinkingVector-difference",
        "trace",
        "subgroup_coordinates",
        "conjugation_action",
        "power_endomorphism",
        "power_quotient_class",
    ],
)
def test_strand_count_mismatch_has_one_message(call, a, b):
    with pytest.raises(ValueError, match=rf"^strand count mismatch: {a} vs {b}$"):
        call()


def test_pure_generator_words():
    assert pure_generator(3, 1, 2).letters == (1, 1)
    assert pure_generator(5, 2, 5).letters == (4, 3, 2, 2, -3, -4)


def test_pure_generator_matches_the_conjugated_square():
    # the word as a product of checked words: conj sigma_i^2 conj^-1
    for n in range(2, 8):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                conj = BraidWord(n, tuple(range(j - 1, i, -1)))
                expect = conj * BraidWord(n, (i, i)) * conj.inverse()
                assert pure_generator(n, i, j) == expect
                assert type(pure_generator(n, i, j).letters) is tuple


def test_pure_generator_is_pure():
    for n in range(3, 7):
        for p in pair_list(n):
            w = pure_generator(n, p.i, p.j)
            assert permutation(w).is_identity()
            assert linking_vector(w) == LinkingVector.unit(n, p.i, p.j)
    with pytest.raises(ValueError):
        pure_generator(3, 2, 2)


def test_full_twist_is_pure_and_central_shape():
    assert full_twist(2).letters == (1, 1)
    assert full_twist(3).letters == (1, 2) * 3
    for n in range(3, 7):
        w = full_twist(n)
        assert len(w) == n * (n - 1)
        assert permutation(w).is_identity()
        # the full twist links every pair of strands exactly once
        assert linking_vector(w).coords == (1,) * pair_count(n)


def test_torelli_chain_words():
    assert torelli_chain(3, 2).letters == (1, 2) * 6
    assert torelli_chain(5, 4).letters == (1, 2, 3, 4) * 10
    assert permutation(torelli_chain(3, 2)).is_identity()
    assert permutation(torelli_chain(5, 2)).is_identity()
    with pytest.raises(ValueError):
        torelli_chain(4, 3)
    with pytest.raises(ValueError):
        torelli_chain(3, 4)


def test_linking_vector_rejects_nonpure():
    with pytest.raises(ValueError):
        linking_vector(BraidWord(3, (1,)))


def test_linking_vector_additive_on_pure_products():
    rng = Random(4003)
    for _ in range(40):
        n = rng.randint(3, 6)
        u = random_pure_word(rng, n, factors=2)
        v = random_pure_word(rng, n, factors=2)
        assert linking_vector(u * v) == linking_vector(u) + linking_vector(v)
        assert linking_vector(u.inverse()) == -linking_vector(u)


def test_linking_vector_conjugation_permutes_pairs():
    rng = Random(4004)
    for _ in range(60):
        n = rng.randint(3, 6)
        w = random_pure_word(rng, n, factors=2)
        g = random_word(rng, n, 8)
        pi = permutation(g.inverse())
        # the coordinate of each pair moves to the coordinate of its image
        moved = [0] * pair_count(n)
        for x, target in zip(linking_vector(w).coords, pair_action(pi)):
            moved[target] = x
        assert linking_vector(g * w * g.inverse()).coords == tuple(moved)


def test_random_pure_words_are_pure():
    rng = Random(4005)
    for _ in range(40):
        n = rng.randint(3, 6)
        w = random_pure_word(rng, n, factors=rng.randint(1, 3))
        assert permutation(w).is_identity()


def test_all_permutations_counts():
    assert sum(1 for _ in all_permutations(4)) == 24
    assert all(isinstance(p, Permutation) for p in all_permutations(3))


def test_random_word_keeps_the_two_call_draw_stream():
    """The letters come from getrandbits, yet match the choice-times-randint
    formula draw for draw and leave the generator in the same state."""
    checked = 0
    for n in range(2, 13):
        for length in range(41):
            seed = 1000 * n + length
            fast, oracle = Random(seed), Random(seed)
            for _ in range(3):
                w = random_word(fast, n, length)
                size = oracle.randint(0, length)
                letters = tuple(
                    oracle.choice((1, -1)) * oracle.randint(1, n - 1) for _ in range(size)
                )
                assert w.letters == letters, (n, length)
                assert fast.getstate() == oracle.getstate(), (n, length)
                checked += 1
    assert checked == 11 * 41 * 3


def test_random_word_rejects_a_negative_length_before_drawing():
    rng = Random(7)
    state = rng.getstate()
    for max_length in (-1, -5):
        with pytest.raises(ValueError, match=f"^max_length must be non-negative, got {max_length}$"):
            random_word(rng, 3, max_length)
    assert rng.getstate() == state
    assert random_word(rng, 3, 0) == BraidWord(3)


def test_random_pure_word_rejects_a_negative_factor_count_before_drawing():
    rng = Random(7)
    state = rng.getstate()
    for factors in (-1, -5):
        with pytest.raises(ValueError, match=f"^factors must be non-negative, got {factors}$"):
            random_pure_word(rng, 3, factors)
    assert rng.getstate() == state
    assert random_pure_word(rng, 3, 0) == BraidWord(3)


def _composed_pure_word(rng, n, factors):
    # oracle: the product formula random_pure_word used before it built its
    # letters in one list
    w = BraidWord(n)
    for _ in range(factors):
        conj = random_word(rng, n, 4)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        w = w * (conj * pure_generator(n, i, j) ** rng.choice((1, -1)) * conj.inverse())
    return w


def test_random_pure_word_keeps_the_composed_draw_stream():
    """One list of letters gives the word of the product formula, draw for
    draw, and leaves the generator in the same state."""
    checked = 0
    for n in range(3, 9):
        for factors in range(5):
            seed = 100 * n + factors
            fast, oracle = Random(seed), Random(seed)
            for _ in range(4):
                w = random_pure_word(fast, n, factors)
                assert w == _composed_pure_word(oracle, n, factors), (n, factors)
                assert fast.getstate() == oracle.getstate(), (n, factors)
                assert permutation(w).is_identity()
                checked += 1
    assert checked == 6 * 5 * 4


@pytest.mark.parametrize(
    "n, message",
    [(1, "strand count must be at least 2, got 1"), (2.5, "strand count must be an integer, got 2.5")],
)
def test_random_pure_word_rejects_a_bad_strand_count_before_drawing(n, message):
    rng = Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_pure_word(rng, n, 0)
    assert rng.getstate() == state


def test_permutation_rejects_points_outside_its_range():
    p = Permutation((2, 1, 3))
    assert [p(x) for x in (1, 2, 3)] == [2, 1, 3]
    for x in (0, -1, 4):
        with pytest.raises(ValueError, match=rf"^point {x} out of range 1\.\.3$"):
            p(x)


def test_derived_permutations_pass_the_check():
    """Products and inverses skip the constructor's check; rebuilding each
    result through the checked constructor gives it back."""
    rng = Random(2121)
    for _ in range(300):
        n = rng.randint(2, 7)
        p = permutation(random_word(rng, n, 12))
        q = permutation(random_word(rng, n, 12))
        for r in (p * q, p.inverse()):
            assert Permutation(r.images) == r


def test_check_integer_words_each_bound():
    check_integer("x", -7)
    check_integer("x", 0, 0)
    check_integer("x", 3, 1, 3)
    bounds = ((0, "non-negative"), (1, "positive"), (2, "at least 2"), (-3, "at least -3"))
    for low, bound in bounds:
        with pytest.raises(ValueError, match=f"^x must be {bound}, got {low - 1}$"):
            check_integer("x", low - 1, low)
    for value in (0, 4):
        with pytest.raises(ValueError, match=rf"^x {value} out of range 1\.\.3$"):
            check_integer("x", value, 1, 3)
