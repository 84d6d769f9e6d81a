"""Normal forms and torsion in the crystallographic braid quotient."""

import math
import re
from random import Random

import pytest

from braidcong.cryst import (
    CrystElement,
    _cycle_types,
    _first_of_type,
    _letterwise_power,
    _orbit_solution,
    _partitions,
    _power_offset,
    element_order,
    in_power_image,
    normal_form,
    pair_permutation_matrix,
    power_endomorphism,
    power_map_is_homomorphism,
    power_map_scales_lattice,
    power_quotient_class,
    representative_word,
    section_word,
    torsion_search,
)
from braidcong.matrices import IntMatrix, mat_mul, mat_vec
from braidcong.smith import solve_integer
from braidcong.words import (
    BraidWord,
    LinkingVector,
    PairIndex,
    Permutation,
    all_permutations,
    full_twist,
    linking_vector,
    pair_action,
    pair_list,
    pair_position,
    permutation,
    pure_generator,
    random_pure_word,
    random_word,
)


def _inversions(perm: Permutation) -> int:
    img = perm.images
    n = len(img)
    return sum(1 for a in range(n) for b in range(a + 1, n) if img[a] > img[b])


def test_section_word_is_reduced_and_correct():
    rng = Random(801)
    for _ in range(60):
        n = rng.randint(2, 7)
        target = permutation(random_word(rng, n, 25))
        w = section_word(target)
        assert all(k > 0 for k in w.letters)
        assert permutation(w) == target
        assert len(w) == _inversions(target)


def _bubble_sort_word(perm: Permutation) -> BraidWord:
    # oracle: bubble passes until one makes no swap
    arr = list(perm.inverse().images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for p in range(perm.n - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                swaps.append(p + 1)
                changed = True
    return BraidWord(perm.n, tuple(reversed(swaps)))


def test_section_word_matches_bubble_sort_until_sorted():
    """n - 1 passes sort any permutation, so the words equal those of the
    bubble sort that stops after a pass without a swap."""
    for n in range(2, 8):
        for perm in all_permutations(n):
            assert section_word(perm) == _bubble_sort_word(perm)


def _braid_move_variants(letters):
    """All words one far-commutation or braid move away."""
    out = []
    for t in range(len(letters) - 1):
        a, b = letters[t], letters[t + 1]
        if abs(a - b) >= 2:
            out.append(letters[:t] + (b, a) + letters[t + 2 :])
    for t in range(len(letters) - 2):
        a, b, c = letters[t : t + 3]
        if a == c and abs(a - b) == 1:
            out.append(letters[:t] + (b, a, b) + letters[t + 3 :])
    return out


def test_section_is_canonical_across_reduced_words():
    """Any reduced word for the same permutation normalizes identically."""
    rng = Random(802)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 6)
        target = permutation(random_word(rng, n, 20))
        base = section_word(target)
        expected = CrystElement(n, target, LinkingVector.zero(n))
        assert normal_form(base) == expected
        for variant in _braid_move_variants(base.letters):
            w = BraidWord(n, variant)
            assert permutation(w) == target
            assert normal_form(w) == expected
            checked += 1
    # seed-determined variant count; the floor just guards against a
    # degenerate sample of near-identity permutations
    assert checked >= 20


def test_normal_form_of_pure_words_is_the_linking_vector():
    rng = Random(803)
    for _ in range(40):
        n = rng.randint(3, 6)
        w = random_pure_word(rng, n, factors=2)
        a = normal_form(w)
        assert a.perm.is_identity()
        assert a.vec == linking_vector(w)


def test_normal_form_known_values():
    e12 = LinkingVector.unit(3, 1, 2)
    assert normal_form(BraidWord(3, (1, 1))) == CrystElement.lattice(e12)
    assert normal_form(full_twist(3)) == CrystElement(
        3, Permutation((1, 2, 3)), LinkingVector(3, (1, 1, 1))
    )
    assert normal_form(BraidWord(3, (1, 1, 1))) == CrystElement(
        3, Permutation((2, 1, 3)), e12
    )


def test_lattice_elements_multiply_by_adding_vectors():
    a = CrystElement.lattice(LinkingVector.unit(3, 1, 2))
    b = CrystElement.lattice(LinkingVector.unit(3, 1, 3))
    assert a * b == CrystElement.lattice(LinkingVector(3, (1, 1, 0)))
    assert a * b == b * a


def test_normal_form_is_multiplicative():
    rng = Random(804)
    for _ in range(150):
        n = rng.randint(3, 6)
        u = random_word(rng, n, 14)
        v = random_word(rng, n, 14)
        assert normal_form(u * v) == normal_form(u) * normal_form(v)


def test_element_algebra():
    a = normal_form(BraidWord(3, (1, 2, -1)))
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()
    assert a ** 0 == CrystElement.identity(3)
    assert a ** 3 == a * a * a
    assert a ** -2 == (a.inverse()) * (a.inverse())
    with pytest.raises(ValueError):
        a * CrystElement.identity(4)


def test_representative_word_round_trip():
    rng = Random(805)
    for _ in range(60):
        n = rng.randint(3, 6)
        a = normal_form(random_word(rng, n, 15))
        assert normal_form(representative_word(a)) == a


def test_element_orders():
    assert element_order(CrystElement.identity(3)) == 1
    # sigma_1 squares to a lattice generator, so its class has infinite order
    assert element_order(normal_form(BraidWord(3, (1,)))) is None
    assert element_order(normal_form(full_twist(3))) is None


def test_known_torsion_element():
    # order-3 element: 3-cycle permutation with compensating lattice part
    perm = Permutation((3, 1, 2))
    t = CrystElement(3, perm, LinkingVector(3, (-1, 0, 0)))
    assert not t.is_identity()
    assert not (t * t).is_identity()
    assert (t * t * t).is_identity()
    assert element_order(t) == 3


def test_torsion_search():
    found = torsion_search(3, 3)
    assert found is not None
    assert element_order(found) == 3
    assert torsion_search(3, 2) is None
    assert torsion_search(4, 2) is None
    assert torsion_search(5, 2) is None
    with pytest.raises(ValueError):
        torsion_search(3, 1)


@pytest.mark.parametrize("k", [3.0, True])
def test_torsion_search_rejects_an_order_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=re.escape(f"order must be an integer, got {k!r}")):
        torsion_search(5, k)


@pytest.mark.parametrize("n", [1, 0])
def test_strand_counts_below_two_are_rejected(n):
    message = f"strand count must be at least 2, got {n}"
    with pytest.raises(ValueError, match=message):
        torsion_search(n, 2)
    with pytest.raises(ValueError, match=message):
        power_map_is_homomorphism(n, 3)
    with pytest.raises(ValueError, match=message):
        power_map_scales_lattice(n, 3)


def test_power_map_relations():
    for (n, m) in [(3, 3), (3, 5), (4, 3), (4, 5), (5, 3)]:
        assert power_map_is_homomorphism(n, m)
    assert power_map_is_homomorphism(3, 1)
    # for even exponents the braid relation genuinely breaks
    assert not power_map_is_homomorphism(3, 2)
    assert not power_map_is_homomorphism(4, 2)


def power_endomorphism_of_identity(n, m):
    return power_endomorphism(n, m, CrystElement.identity(n))


def in_power_image_of_identity(n, m):
    return in_power_image(n, m, CrystElement.identity(n))


def power_quotient_class_of_identity(n, m):
    return power_quotient_class(n, m, CrystElement.identity(n))


@pytest.mark.parametrize(
    "check",
    [
        power_map_is_homomorphism,
        power_map_scales_lattice,
        power_endomorphism_of_identity,
        in_power_image_of_identity,
        power_quotient_class_of_identity,
    ],
)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [0, -1, 3.0, True])
def test_power_map_checks_reject_non_positive_powers(check, n, m):
    # a letter repeated m < 1 times is the empty word, which would make the
    # check vacuous; n = 2 has no braid relators, so the check runs at entry.
    # The power map on elements says the same, not that m must be odd.
    # A float or a bool compares like a number but is no exact power: 3.0
    # would give float coordinates and True would act as m = 1
    if isinstance(m, int) and not isinstance(m, bool):
        message = f"power must be positive, got {m}"
    else:
        message = f"power must be an integer, got {m!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check(n, m)


def test_power_endomorphism_rejects_even_exponents():
    a = normal_form(BraidWord(3, (1,)))
    with pytest.raises(ValueError):
        power_endomorphism(3, 2, a)


def test_power_endomorphism_is_a_homomorphism_on_samples():
    rng = Random(806)
    for (n, m) in [(3, 3), (4, 3)]:
        for _ in range(40):
            x = normal_form(random_word(rng, n, 10))
            y = normal_form(random_word(rng, n, 10))
            assert power_endomorphism(n, m, x * y) == power_endomorphism(
                n, m, x
            ) * power_endomorphism(n, m, y)


def test_power_endomorphism_known_values():
    assert power_endomorphism(3, 3, CrystElement.identity(3)) == CrystElement.identity(3)
    cube = power_endomorphism(3, 3, normal_form(BraidWord(3, (1,))))
    assert cube == normal_form(BraidWord(3, (1, 1, 1)))
    assert cube.perm == Permutation((2, 1, 3))
    assert cube.vec == LinkingVector.unit(3, 1, 2)


def test_power_endomorphism_scales_the_lattice():
    for (n, m) in [(3, 3), (3, 5), (4, 3)]:
        for p in pair_list(n):
            cls = normal_form(pure_generator(n, p.i, p.j))
            want = CrystElement.lattice(LinkingVector.unit(n, p.i, p.j).scaled(m))
            assert power_endomorphism(n, m, cls) == want


def test_power_image_membership():
    rng = Random(807)
    sigma = normal_form(BraidWord(3, (1,)))
    assert not in_power_image(3, 3, sigma)
    assert in_power_image(3, 3, CrystElement.lattice(LinkingVector.unit(3, 1, 2).scaled(3)))
    assert not in_power_image(3, 3, CrystElement.lattice(LinkingVector.unit(3, 1, 2)))
    for _ in range(40):
        x = normal_form(random_word(rng, 3, 10))
        assert in_power_image(3, 3, power_endomorphism(3, 3, x))


def test_power_classes_reject_elements_on_other_strand_counts():
    a = normal_form(BraidWord(3, (1,)))
    with pytest.raises(ValueError, match="strand count mismatch: 3 vs 5"):
        power_quotient_class(5, 3, a)
    with pytest.raises(ValueError, match="strand count mismatch: 3 vs 7"):
        in_power_image(7, 3, a)


def test_power_injectivity_on_samples():
    rng = Random(808)
    for _ in range(150):
        x = normal_form(random_word(rng, 3, 10))
        y = normal_form(random_word(rng, 3, 10))
        same_image = power_endomorphism(3, 3, x) == power_endomorphism(3, 3, y)
        assert same_image == (x == y)


def test_quotient_class_translation_by_lattice():
    rng = Random(809)
    for _ in range(40):
        x = normal_form(random_word(rng, 3, 10))
        v = LinkingVector(3, tuple(rng.randint(-4, 4) for _ in range(3)))
        shifted = power_endomorphism(3, 3, x) * CrystElement.lattice(v)
        assert power_quotient_class(3, 3, shifted) == tuple(c % 3 for c in v.coords)


def test_quotient_class_known_values():
    a = CrystElement.lattice(LinkingVector.unit(3, 1, 2))
    assert power_quotient_class(3, 3, a) == (1, 0, 0)
    assert power_quotient_class(3, 3, a * a) == (2, 0, 0)
    assert power_quotient_class(3, 3, a * a * a) == (0, 0, 0)
    rng = Random(814)
    for _ in range(20):
        x = normal_form(random_word(rng, 3, 10))
        assert power_quotient_class(3, 3, power_endomorphism(3, 3, x)) == (0, 0, 0)


def test_quotient_class_obeys_the_twisted_product_rule():
    """class(ab) = pair_action(perm(b)) . class(a) + class(b).

    Plain additivity fails off the lattice; the correct rule twists the
    first argument by the pair action of the second factor's permutation.
    """
    rng = Random(810)
    plain_failures = 0
    for _ in range(200):
        x = normal_form(random_word(rng, 3, 12))
        y = normal_form(random_word(rng, 3, 12))
        lhs = power_quotient_class(3, 3, x * y)
        rx = power_quotient_class(3, 3, x)
        ry = power_quotient_class(3, 3, y)
        moved = mat_vec(pair_permutation_matrix(y.perm), rx)
        assert lhs == tuple((a + b) % 3 for a, b in zip(moved, ry))
        if lhs != tuple((a + b) % 3 for a, b in zip(rx, ry)):
            plain_failures += 1
    assert plain_failures > 0


def test_quotient_classes_cover_all_residues():
    classes = {
        power_quotient_class(3, 3, CrystElement.lattice(LinkingVector(3, (a, b, c))))
        for a in range(3)
        for b in range(3)
        for c in range(3)
    }
    assert len(classes) == 27


def test_pair_permutation_matrix_conventions():
    for n in (3, 4):
        perms = list(all_permutations(n))
        for p1 in perms[:8]:
            for p2 in perms[:8]:
                lhs = pair_permutation_matrix(p1 * p2)
                rhs = mat_mul(pair_permutation_matrix(p2), pair_permutation_matrix(p1))
                assert lhs == rhs
    # moving a single coordinate
    perm = permutation(BraidWord(3, (1,)))
    mat = pair_permutation_matrix(perm)
    for p in pair_list(3):
        src = [0, 0, 0]
        src[pair_position(3, p)] = 1
        out = mat_vec(mat, tuple(src))
        assert out[pair_position(3, PairIndex(perm(p.i), perm(p.j)))] == 1


def test_holonomy_faithfulness_matches_brute_force():
    """The pair action of S_n on the lattice is faithful exactly when n >= 3;
    at n = 2 the swap fixes the one pair."""
    for n in range(2, 7):
        fixed = tuple(range(n * (n - 1) // 2))
        kernel = [p for p in all_permutations(n) if pair_action(p) == fixed]
        assert len(kernel) == (1 if n >= 3 else 2)


# The word path: normalize products, inverses and powers of representative
# words.  It is independent of the closed-form group law and is its oracle.


def _word_product(a: CrystElement, b: CrystElement) -> CrystElement:
    return normal_form(representative_word(a) * representative_word(b))


def _word_power(a: CrystElement, k: int) -> CrystElement:
    return normal_form(representative_word(a) ** k)


def _seeded_element(rng: Random, n: int, large: bool) -> CrystElement:
    perm = permutation(random_word(rng, n, 3 * n))
    coords = [rng.randint(-3, 3) for _ in range(n * (n - 1) // 2)]
    if large:
        coords[rng.randrange(len(coords))] = rng.choice((1, -1)) * rng.randint(900, 1100)
    return CrystElement(n, perm, LinkingVector(n, tuple(coords)))


def test_closed_form_law_matches_the_word_path():
    """*, inverse and ** against normalized representative words, n = 2..7."""
    rng = Random(815)
    large_pairs = 0
    for t in range(300):
        n = rng.randint(3, 7)
        large = t % 10 == 0
        a = _seeded_element(rng, n, large)
        b = _seeded_element(rng, n, False)
        large_pairs += large
        assert a * b == _word_product(a, b)
        assert b * a == _word_product(b, a)
        assert a.inverse() == normal_form(representative_word(a).inverse())
        # the word of a**k grows with |k| times the coordinates
        span = 1 if large else 3
        for k in range(-span, span + 1):
            assert a**k == _word_power(a, k)
    assert large_pairs == 30
    # n = 2 in a loop of its own, so the seeded draws above stay the same:
    # every product of two elements with a coordinate in -2..2
    elements = [
        CrystElement(2, perm, LinkingVector(2, (c,)))
        for perm in all_permutations(2)
        for c in range(-2, 3)
    ]
    for a in elements:
        assert a.inverse() == normal_form(representative_word(a).inverse())
        for k in range(-3, 4):
            assert a**k == _word_power(a, k)
        for b in elements:
            assert a * b == _word_product(a, b)


def test_powers_match_repeated_products():
    """a ** k against |k| factors of a, or of a.inverse() for k < 0, multiplied
    one at a time: ** squares from the lowest set bit of k, the oracle does
    not."""
    rng = Random(830)
    for n in range(2, 8):
        identity = CrystElement.identity(n)
        elements = [identity] + [_seeded_element(rng, n, large) for large in (False, True, False)]
        for a in elements:
            inverse = a.inverse()
            assert a * inverse == identity
            for k in range(-7, 10):
                factor = a if k >= 0 else inverse
                expected = identity
                for _ in range(abs(k)):
                    expected = expected * factor
                assert a**k == expected, (n, k)


def test_power_endomorphism_matches_letterwise_expansion():
    rng = Random(816)
    for _ in range(60):
        n = rng.randint(3, 6)
        m = rng.choice((1, 3, 5))
        a = _seeded_element(rng, n, False)
        letters = representative_word(a).letters
        expanded = BraidWord(n, tuple(x for letter in letters for x in (letter,) * m))
        assert power_endomorphism(n, m, a) == normal_form(expanded)


# torsion_search(n, k) for n = 3..6 and k = 2..6, as the word-based law found them
TORSION_TABLE = {
    (3, 3): ((2, 3, 1), (-1, 0, 0)),
    (4, 3): ((1, 3, 4, 2), (0, 0, 0, -1, 0, 0)),
    (5, 3): ((1, 2, 4, 5, 3), (0, 0, 0, 0, 0, 0, 0, -1, 0, 0)),
    (5, 5): ((2, 3, 4, 5, 1), (-1, -1, 0, 0, 0, 0, 0, 0, 0, 0)),
    (6, 3): ((1, 2, 3, 5, 6, 4), (0,) * 12 + (-1, 0, 0)),
    (6, 5): ((1, 3, 4, 5, 6, 2), (0,) * 5 + (-1, -1) + (0,) * 8),
}


def test_torsion_search_is_pinned():
    for n in range(3, 7):
        for k in range(2, 7):
            found = torsion_search(n, k)
            if (n, k) not in TORSION_TABLE:
                assert found is None, (n, k)
                continue
            perm, vec = TORSION_TABLE[(n, k)]
            assert found == CrystElement(n, Permutation(perm), LinkingVector(n, vec)), (n, k)


def test_first_of_type_is_the_first_permutation_of_its_cycle_type():
    partition_counts = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
    for n, count in partition_counts.items():
        first: dict[tuple[int, ...], Permutation] = {}
        for perm in all_permutations(n):
            first.setdefault(perm.cycle_type(), perm)
        parts = list(_partitions(n))
        assert len(parts) == len(set(parts)) == count
        for p in parts:
            assert list(p) == sorted(p)
            assert _first_of_type(p) == first[tuple(reversed(p))], p
        # torsion_search tries candidates in this order, which must be all_permutations'
        images = [_first_of_type(p).images for p in parts]
        assert images == sorted(images)


def _every_partition(n: int, smallest: int = 1):
    # the partitions of n into parts of at least smallest, lexicographic,
    # each listed shortest part first
    if n == 0:
        yield ()
    for part in range(smallest, n + 1):
        for rest in _every_partition(n - part, part):
            yield (part,) + rest


def test_cycle_types_are_the_partitions_with_that_lcm_in_order():
    """Partitions into divisors of k only, filtered by lcm, are those of
    every partition of n filtered the same way, in the same order."""
    for n in range(2, 21):
        every = list(_every_partition(n))
        for k in range(2, 31):
            assert list(_cycle_types(n, k)) == [p for p in every if math.lcm(*p) == k], (n, k)
    # torsion_search(24, 7) walks the partitions of 24 into 1s and 7s
    assert sum(1 for _ in _partitions(24)) == 1575
    ones_and_sevens = [(1,) * 24, (1,) * 17 + (7,), (1,) * 10 + (7, 7), (1, 1, 1, 7, 7, 7)]
    assert list(_partitions(24, [1, 7])) == ones_and_sevens


def _orbit_sum(perm: Permutation, k: int) -> IntMatrix:
    """The sum of P^0 .. P^(k-1) for P = pair_permutation_matrix(perm).

    Column c of P^j is the unit vector of the j-th image of pair c, so the
    sum is read off by following each pair's orbit for k steps.
    """
    action = pair_action(perm)
    rows = [[0] * len(action) for _ in action]
    for col in range(len(action)):
        pos = col
        for _ in range(k):
            rows[pos][col] += 1
            pos = action[pos]
    return tuple(map(tuple, rows))


def _torsion_solution(perm: Permutation, k: int) -> tuple[int, ...] | None:
    # oracle: the integer system of torsion_search, solved by Smith normal form
    base = (CrystElement(perm.n, perm, LinkingVector.zero(perm.n)) ** k).vec
    return solve_integer(_orbit_sum(perm, k), tuple(-x for x in base.coords))


def _full_scan_torsion_search(n: int, k: int) -> CrystElement | None:
    # the search over every permutation, in all_permutations order
    refused: set[tuple[int, ...]] = set()
    for perm in all_permutations(n):
        shape = perm.cycle_type()
        if shape in refused or perm.order() != k:
            continue
        solution = _torsion_solution(perm, k)
        if solution is None:
            refused.add(shape)
            continue
        return CrystElement(n, perm, LinkingVector(n, solution))
    return None


def test_torsion_search_matches_the_full_scan():
    for n in range(2, 8):
        for k in range(2, 13):
            assert torsion_search(n, k) == _full_scan_torsion_search(n, k), (n, k)


def test_torsion_decisions_match_the_orbit_criterion():
    """The orbit closed form against the Smith normal form solve of the same
    system, for each non-trivial cycle type with n <= 9, accepted or refused
    alike: the two agree on the decision and on the solution."""
    types = accepted = 0
    for n in range(2, 10):
        for parts in _partitions(n):
            perm = _first_of_type(parts)
            k = perm.order()
            if k == 1:
                continue
            types += 1
            base = (CrystElement(n, perm, LinkingVector.zero(n)) ** k).vec
            solution = _orbit_solution(perm, k, base.coords)
            assert solution == _torsion_solution(perm, k), perm
            if solution is not None:
                accepted += 1
                assert element_order(CrystElement(n, perm, LinkingVector(n, solution))) == k
    assert types == 87
    assert 0 < accepted < types


def test_orbit_solution_decides_any_right_hand_side():
    """Right-hand sides off the torsion system too, against the Smith solve:
    S u for the orbit sum S is solvable, and raising one coordinate of it
    by 1 breaks constancy on an orbit or divisibility by k/s."""
    rng = Random(2801)
    for n in range(2, 7):
        for parts in _partitions(n):
            perm = _first_of_type(parts)
            k = perm.order()
            if k == 1:
                continue
            sums = _orbit_sum(perm, k)
            solvable = mat_vec(sums, tuple(rng.randint(-5, 5) for _ in sums))
            for raised in range(-1, len(sums)):
                base = tuple(x + (pos == raised) for pos, x in enumerate(solvable))
                target = tuple(-x for x in base)
                solution = _orbit_solution(perm, k, base)
                assert (solution is None) == (raised >= 0), (perm, raised)
                assert (solve_integer(sums, target) is None) == (raised >= 0), (perm, raised)
                if solution is not None:
                    assert mat_vec(sums, solution) == target, perm


def _candidate_torsion_search(n: int, k: int) -> CrystElement | None:
    # the search over the first permutation of each cycle type, by Smith normal form
    for parts in _partitions(n):
        if math.lcm(*parts) != k:
            continue
        perm = _first_of_type(parts)
        solution = _torsion_solution(perm, k)
        if solution is not None:
            return CrystElement(n, perm, LinkingVector(n, solution))
    return None


def test_torsion_search_matches_the_smith_solve_past_the_full_scan():
    """n = 8..12, where the scan over all permutations is too slow."""
    found = 0
    for n in range(8, 13):
        for k in range(2, 16):
            expected = _candidate_torsion_search(n, k)
            assert torsion_search(n, k) == expected, (n, k)
            found += expected is not None
    # the odd permutation orders up to 15: 4 at n = 8, 5 at 9 and 10, 6 at 11 and 12
    assert found == 26


def _permutation_orders(n: int) -> set[int]:
    # the lcm of the parts of every partition of n: one part, then a partition of the rest
    orders = {0: {1}}
    for total in range(1, n + 1):
        orders[total] = {
            math.lcm(part, rest) for part in range(1, total + 1) for rest in orders[total - part]
        }
    return orders[n]


def test_torsion_orders_are_the_odd_permutation_orders():
    for n in range(3, 11):
        found = {k for k in range(2, 31) if torsion_search(n, k) is not None}
        assert found == {k for k in _permutation_orders(n) if k % 2 and 2 <= k <= 30}, n


def test_orders_of_conjugates_with_huge_coordinates():
    """element_order of L * t * L^-1 is k whatever the size of L."""
    rng = Random(817)
    for (n, k), (perm, vec) in TORSION_TABLE.items():
        t = CrystElement(n, Permutation(perm), LinkingVector(n, vec))
        for scale in (10**5, 10**9):
            coords = tuple(rng.randint(-scale, scale) for _ in vec)
            lattice = CrystElement.lattice(LinkingVector(n, coords))
            conjugate = lattice * t * lattice.inverse()
            assert max(map(abs, conjugate.vec.coords)) > scale // 100
            assert element_order(conjugate) == k
            assert (conjugate**k).is_identity()
            assert element_order(lattice) is None
            assert element_order(t * lattice) is None


# The three-walk word path, oracle of the closed forms: the permutation of w,
# then the linking vector of the section's inverse times w.


def _reference_normal_form(w: BraidWord) -> CrystElement:
    perm = permutation(w)
    return CrystElement(w.n, perm, linking_vector(section_word(perm).inverse() * w))


def test_normal_form_matches_the_three_walk_path():
    rng = Random(818)
    checked = 0
    for n in range(2, 10):
        empty = BraidWord(n)
        assert normal_form(empty) == _reference_normal_form(empty) == CrystElement.identity(n)
        for _ in range(640):
            w = random_word(rng, n, 30)
            assert normal_form(w) == _reference_normal_form(w), w
            checked += 1
    assert checked == 5120


def test_cocycle_matches_the_section_word_product():
    """The cocycle term of the group law: the product of two section classes
    against the normalized product of their section words."""
    for n in range(2, 6):
        perms, zero = list(all_permutations(n)), LinkingVector.zero(n)
        for s in perms:
            for t in perms:
                product = section_word(s) * section_word(t)
                closed = (CrystElement(n, s, zero) * CrystElement(n, t, zero)).vec
                assert closed == _reference_normal_form(product).vec, (s, t)


def test_power_offset_matches_the_letterwise_power():
    for n in range(2, 7):
        for perm in all_permutations(n):
            section = section_word(perm)
            for m in (1, 3, 5, 7, 9):
                assert _power_offset(n, m, perm) == _letterwise_power(section, m).vec, (perm, m)


def test_normal_form_places_each_pair_at_its_final_positions():
    """The inlined pair position, against the linking-vector oracle with the
    permutation and the vector compared apart, and against the section times
    each pure generator, whose vector is that generator's unit vector."""
    rng = Random(2120)
    for n in range(2, 8):
        for _ in range(300):
            w = random_word(rng, n, 24)
            a = normal_form(w)
            perm = permutation(w)
            assert a.perm == perm
            assert a.vec == linking_vector(section_word(perm).inverse() * w)
            assert a == CrystElement(n, Permutation(a.perm.images), LinkingVector(n, a.vec.coords))
    for n in range(2, 6):
        for perm in all_permutations(n):
            for p in pair_list(n):
                w = section_word(perm) * pure_generator(n, p.i, p.j)
                assert normal_form(w) == CrystElement(n, perm, LinkingVector.unit(n, p.i, p.j))
