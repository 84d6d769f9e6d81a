"""Membership, image enumeration, coset tables, and abelianizations."""

import math
from dataclasses import replace
from random import Random

import pytest

from braidcong import congruence
from braidcong.congruence import (
    LimitExceeded,
    abelianization,
    artin_relators,
    conjugation_action,
    coset_table,
    divisibility_check,
    enumerate_image,
    image_center,
    is_member,
    letter_order,
    subgroup_coordinates,
)
from braidcong.burau import ModularMatrix, burau_matrix_mod
from braidcong.matrices import mat_mul
from braidcong.smith import smith_normal_form
from braidcong.words import (
    BraidWord,
    full_twist,
    pair_count,
    permutation,
    pure_generator,
    random_pure_word,
    random_word,
)

# frozen from the reference implementation: BFS numbering of the mod-2 image
# at n=3 (letter order sigma_1, sigma_1^-1, sigma_2, sigma_2^-1)
GOLDEN_32_ELEMENTS = (
    "010000000100000001",
    "000100010000000001",
    "010000000001000100",
    "000001010000000100",
    "000100000001010000",
    "000001000100010000",
)
GOLDEN_32_ACTION = (
    (1, 1, 2, 2),
    (0, 0, 3, 3),
    (4, 4, 0, 0),
    (5, 5, 1, 1),
    (2, 2, 5, 5),
    (3, 3, 4, 4),
)
GOLDEN_32_TRANSVERSALS = ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1))


def test_membership_basics():
    assert is_member(BraidWord(3, ()), 2)
    assert is_member(BraidWord(3, (1, 1)), 2)
    assert not is_member(BraidWord(3, (1,)), 2)
    assert is_member(BraidWord(4, (2,) * 6), 3)
    assert not is_member(BraidWord(4, (2,) * 6), 4)


def test_level_two_is_purity():
    rng = Random(701)
    for _ in range(150):
        n = rng.randint(3, 6)
        w = random_word(rng, n, 30)
        assert is_member(w, 2) == permutation(w).is_identity()


def test_letter_order():
    assert letter_order(3) == (1, -1, 2, -2)
    assert letter_order(4) == (1, -1, 2, -2, 3, -3)


def test_enumeration_golden_numbering():
    """The breadth-first numbering is part of the contract; pin it."""
    g = enumerate_image(3, 2)
    assert g.letters == (1, -1, 2, -2)
    flat = (bytes(x for row in g.matrix(k).entries for x in row) for k in range(g.size))
    assert tuple(e.hex() for e in flat) == GOLDEN_32_ELEMENTS
    assert g.edges[0] == (1, 1, 2, 2)


def test_image_orders():
    assert enumerate_image(3, 2).size == 6
    assert enumerate_image(4, 2).size == 24
    assert enumerate_image(5, 2).size == 120
    assert enumerate_image(3, 3).size == 24
    assert enumerate_image(3, 5).size == 120


def test_strand_counts_below_two_are_rejected():
    for n in (1, 0, -3):
        for build in (enumerate_image, coset_table, abelianization):
            with pytest.raises(ValueError, match="strand count must be at least 2"):
                build(n, 3)


def test_enumeration_respects_cap():
    with pytest.raises(LimitExceeded) as err:
        enumerate_image(3, 3, element_cap=10)
    assert err.value.partial == 10
    assert err.value.stage == "image"


def test_capped_enumeration_does_bounded_row_work(monkeypatch):
    """The row orbit of e_1 at (3, 10007) has about 10^8 rows; a search
    stopped after ten elements must fill the letter tables for a few rows
    only, not close the orbit."""
    calls = []
    row_letter = congruence._row_letter

    def counted(row, letter, m):
        calls.append(letter)
        if len(calls) > 200:
            raise AssertionError("row work is not bounded by the scanned states")
        return row_letter(row, letter, m)

    monkeypatch.setattr(congruence, "_row_letter", counted)
    with pytest.raises(LimitExceeded) as err:
        enumerate_image(3, 10007, element_cap=10)
    assert err.value.partial == 10
    assert 0 < len(calls) <= 200


def test_enumeration_is_closed_under_generators():
    g = enumerate_image(3, 3)
    gens = [burau_matrix_mod(BraidWord(3, (letter,)), 3) for letter in g.letters]
    for k, edges in enumerate(g.edges):
        for pos, target in enumerate(edges):
            expect = g.matrix(k) * gens[pos]
            assert g.matrix(target) == expect


def test_image_center():
    g = enumerate_image(3, 3)
    center = image_center(g)
    assert len(center) == 2
    assert 0 in center
    others = [k for k in center if k != 0]
    assert g.matrix(others[0]) == burau_matrix_mod(full_twist(3), 3)


def test_image_center_level_two_is_trivial():
    center = image_center(enumerate_image(3, 2))
    assert center == (0,)


def test_image_center_contains_full_twist_at_four_strands():
    g = enumerate_image(4, 3)
    assert g.size == 648
    center = image_center(g)
    assert len(center) == 3
    twist = burau_matrix_mod(full_twist(4), 3)
    assert any(g.matrix(k) == twist for k in center)


@pytest.mark.parametrize("n, m", [(4, 3), (6, 2), (3, 5), (2, 257), (4, 4), (3, 16)])
def test_image_search_agrees_with_modular_matrix_products(n, m):
    """Oracle: ModularMatrix products, brute-force commutation and a second
    tree pass.

    At m = 257 every residue takes two bytes.  At the composite levels
    (4, 4) and (3, 16) the row orbit is much larger than n.
    """
    g = enumerate_image(n, m)
    table = coset_table(n, m)
    mats = [g.matrix(k) for k in range(g.size)]
    gens = [burau_matrix_mod(BraidWord(n, (letter,)), m) for letter in g.letters]
    for k in range(g.size):
        assert mats[k] == burau_matrix_mod(table.transversal(k + 1), m)
        for pos, target in enumerate(g.edges[k]):
            assert mats[target] == mats[k] * gens[pos]
    positive = [x for l, x in zip(g.letters, gens) if l > 0]
    brute = tuple(
        k for k, a in enumerate(mats) if all(a * x == x * a for x in positive)
    )
    assert image_center(g) == brute
    # the tree re-derived from the edges, first discovery in scan order
    parents = [None] * g.size
    seen = [True] + [False] * (g.size - 1)
    for k in range(g.size):
        for pos, letter in enumerate(g.letters):
            t = g.edges[k][pos]
            if not seen[t]:
                seen[t] = True
                parents[t] = (k, letter)
    words = [()] * g.size
    for k in range(1, g.size):
        words[k] = words[parents[k][0]] + (parents[k][1],)
    assert table.transversals == tuple(words)
    assert g.parents == tuple(parents)
    for k, a in enumerate(mats):
        assert g.index_of(a) == k
    zero = ModularMatrix(m, tuple((0,) * n for _ in range(n)))
    for outside in (zero, ModularMatrix.identity(n, m + 1), ModularMatrix.identity(n + 1, m)):
        with pytest.raises(KeyError):
            g.index_of(outside)


def test_five_strand_level_three_image_is_sp4_f3():
    """|Sp4(F3)| = 3^4 (3^2 - 1)(3^4 - 1); its center is {1, -1}."""
    g = enumerate_image(5, 3)
    assert g.size == 3**4 * (3**2 - 1) * (3**4 - 1) == 51840
    assert len(image_center(g)) == 2


def test_five_strand_level_four_image_order():
    """|B5 / B5[4]| = 5! * 2^10: B5[2] is the pure braid group, and
    B5[2] / B5[4] is (F_2)^10, one coordinate per strand pair."""
    g = enumerate_image(5, 4)
    assert g.size == 122_880 == math.factorial(5) * 2**10
    center = image_center(g)
    assert len(center) == 2
    assert g.matrix(center[1]) == burau_matrix_mod(full_twist(5), 4)


def test_coset_table_layout():
    t = coset_table(3, 2)
    assert t.size == 6
    assert t.edges == GOLDEN_32_ACTION
    assert t.transversals == GOLDEN_32_TRANSVERSALS
    # public interface is 1-based with coset 1 the subgroup itself
    assert t.apply(1, 1) == 2
    assert t.apply(1, 2) == 3
    assert t.apply(2, -1) == 1


def test_coset_table_is_the_image():
    for n, m in [(3, 2), (3, 3), (4, 2)]:
        assert coset_table(n, m) == enumerate_image(n, m)


def test_apply_rejects_letters_outside_the_strand_range():
    t = coset_table(3, 2)
    for letter in (0, 3, -3, 7):
        with pytest.raises(ValueError, match=f"letter {letter} out of range for 3 strands"):
            t.apply(1, letter)


def _last_letter_relation_rows(table):
    # the relation rows as built from transversal words: the tree edge into
    # coset c is the last letter of its transversal, and its parent is found
    # by walking that letter back
    n = table.n
    degree = table.size * (n - 1)
    rows = []
    for c in range(table.size):
        tau = table.transversal(c + 1)
        for rel in artin_relators(n):
            coords = subgroup_coordinates(table, tau * rel * tau.inverse())
            rows.append([coords.get(k, 0) for k in range(degree)])
    for c in range(1, table.size):
        last = table.transversals[c][-1]
        if last > 0:
            parent = table.apply(c + 1, -last) - 1
            k = parent * (n - 1) + last - 1
        else:
            k = c * (n - 1) - last - 1
        rows.append([int(k == j) for j in range(degree)])
    return rows


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_relation_rows_match_the_last_letter_derivation(n, m):
    table = coset_table(n, m)
    rows = [list(row) for row in congruence._relation_rows(table)]
    assert rows == _last_letter_relation_rows(table)


def test_coset_numbers_outside_the_table_are_rejected():
    t = coset_table(3, 2)
    for coset in (0, -1, 7):
        for call in (
            lambda: t.apply(coset, 1),
            lambda: t.trace(coset, BraidWord(3, (1, 2))),
            lambda: t.trace(coset, BraidWord(3)),
            lambda: t.transversal(coset),
        ):
            with pytest.raises(ValueError, match=r"out of range 1\.\.6"):
                call()


def test_coset_tables_reject_words_on_other_strand_counts():
    t = coset_table(3, 2)
    for w in (BraidWord(4, (1, 1)), BraidWord(4, (3, 3)), BraidWord(5, (1, 2))):
        with pytest.raises(ValueError, match=f"strand count mismatch: {w.n} vs 3"):
            t.trace(1, w)
        with pytest.raises(ValueError, match=f"strand count mismatch: {w.n} vs 3"):
            subgroup_coordinates(t, w)


def test_coset_table_transversals_reach_their_cosets():
    for (n, m) in [(3, 2), (3, 3), (4, 2)]:
        t = coset_table(n, m)
        for coset in range(1, t.size + 1):
            assert t.trace(1, t.transversal(coset)) == coset
        rng = Random(703)
        for _ in range(30):
            w = random_word(rng, n, 20)
            coset = t.trace(1, w)
            assert 1 <= coset <= t.size
            # tracing the inverse word walks back to the subgroup
            assert t.trace(coset, w.inverse()) == 1


def test_artin_relators_are_trivial_everywhere():
    for n in (3, 4):
        t = coset_table(n, 2)
        for rel in artin_relators(n):
            for coset in range(1, t.size + 1):
                assert t.trace(coset, rel) == coset


def test_generator_powers_stabilize_the_subgroup_coset():
    t = coset_table(3, 3)
    for i in (1, 2):
        assert t.trace(1, BraidWord(3, (i,) * 3)) == 1
        assert t.trace(1, BraidWord(3, (i,))) != 1


def test_subgroup_coordinates_additive_on_members():
    t = coset_table(3, 2)
    rng = Random(704)
    for _ in range(40):
        u = random_pure_word(rng, 3, factors=2)
        v = random_pure_word(rng, 3, factors=2)
        cu = subgroup_coordinates(t, u)
        cv = subgroup_coordinates(t, v)
        cuv = subgroup_coordinates(t, u * v)
        total = {k: cu.get(k, 0) + cv.get(k, 0) for k in cu.keys() | cv.keys()}
        assert cuv == {k: e for k, e in total.items() if e}
    with pytest.raises(ValueError):
        subgroup_coordinates(t, BraidWord(3, (1,)))


def test_abelianization_level_two_matches_pure_braid_rank():
    """Independent oracle: the pure braid group abelianizes to Z^(pairs)."""
    for n in (3, 4):
        ab = abelianization(n, 2)
        assert ab.free_rank == pair_count(n)
        assert ab.invariant_factors == ()


def test_abelianization_known_ranks():
    ab = abelianization(3, 3)
    assert (ab.table.size, ab.free_rank, ab.invariant_factors) == (24, 4, ())
    ab = abelianization(3, 4)
    assert (ab.table.size, ab.free_rank, ab.invariant_factors) == (48, 6, ())


def test_abelianization_respects_coset_cap():
    # the enumeration stops at the coset cap instead of finishing the image
    with pytest.raises(LimitExceeded, match="coset cap 5") as err:
        abelianization(3, 3, coset_cap=5)
    assert (err.value.partial, err.value.stage) == (5, "coset")
    assert abelianization(3, 3, coset_cap=24).table.size == 24
    with pytest.raises(ValueError):
        abelianization(3, 3, coset_cap=0)


def _sl2_order(m):
    order = m**3
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            order = order * (p * p - 1) // (p * p)
    return order


def test_abelianization_three_strand_ranks_match_the_closed_form():
    """Independent oracle: B3[m] is Z times a free group of rank 1 + |SL2(Z/m)|/12.

    The level-m subgroup modulo the center Z embeds in PSL2(Z), of Euler
    characteristic -1/6, with index |SL2(Z/m)|/2 for m >= 3.
    """
    ranks = []
    for m in range(3, 9):
        ab = abelianization(3, m)
        assert ab.invariant_factors == ()
        assert ab.free_rank == 2 + _sl2_order(m) // 12
        ranks.append(ab.free_rank)
    assert ranks == [4, 6, 12, 14, 30, 34]


def test_class_vector_of_pure_words_matches_linking_numbers():
    # at level 2 the subgroup is the pure braid group and the free part of
    # the abelianization is spanned by the strand pair linking numbers
    ab = abelianization(3, 2)
    rng = Random(705)
    from braidcong.words import linking_vector

    unit_images = {}
    for p_idx, p in enumerate(
        [(1, 2), (1, 3), (2, 3)]
    ):
        w = pure_generator(3, *p)
        unit_images[p_idx] = ab.free_coordinates(subgroup_coordinates(ab.table, w))
    for _ in range(25):
        w = random_pure_word(rng, 3, factors=2)
        lv = linking_vector(w)
        x = ab.free_coordinates(subgroup_coordinates(ab.table, w))
        expect = tuple(
            sum(lv.coords[i] * unit_images[i][c] for i in range(3))
            for c in range(len(x))
        )
        assert x == expect


def test_conjugation_action_central_twist():
    for m in (3, 4, 7):
        ab = abelianization(3, m)
        assert conjugation_action(ab, full_twist(3)).is_identity()


def _dense(vector, degree):
    return tuple(vector.get(k, 0) for k in range(degree))


def _dense_action_rows(ab, w):
    """Rows rank.. of R^-1 theta R, with R, R^-1 and theta made dense here."""
    table, n, degree = ab.table, ab.n, ab.num_generators
    theta = []
    for c in range(1, table.size + 1):
        for i in range(1, n):
            s = BraidWord(n, (i,))
            gen = table.transversal(c) * s * table.transversal(table.trace(c, s)).inverse()
            theta.append(_dense(subgroup_coordinates(table, w.inverse() * gen * w), degree))
    right = tuple(zip(*(_dense(column, degree) for column in ab.right_columns)))
    lower = tuple(_dense(row, degree) for row in ab.right_inverse_rows[ab.rank :])
    return mat_mul(mat_mul(lower, tuple(theta)), right)


def test_conjugation_action_matches_the_dense_product():
    """Oracle: the free block of the full product R^-1 theta R."""
    rng = Random(712)
    for n, m in ((3, 4), (4, 2), (3, 6)):
        ab = abelianization(n, m)
        for _ in range(3):
            w = random_word(rng, n, 10)
            full = _dense_action_rows(ab, w)
            free_block = tuple(tuple(row[ab.rank :]) for row in full)
            assert conjugation_action(ab, w).matrix == free_block


def test_torsion_leaks_on_a_quotient_with_torsion():
    """A quotient of the level-2 abelianization whose torsion the action reaches.

    At level 2 the free part is Z^3 on the pair generators A_12, A_13, A_23,
    which conjugation permutes.  Adding the relations 3(A_12 - A_13) and
    3(A_13 - A_23) leaves Z + (Z/3)^2, and no lift of the free generator is
    fixed by both sigma_1 and sigma_2 modulo 3, so one of them leaks.
    """
    ab = abelianization(3, 2)
    degree = ab.num_generators
    pairs = [
        _dense(subgroup_coordinates(ab.table, pure_generator(3, i, j)), degree)
        for i, j in ((1, 2), (1, 3), (2, 3))
    ]
    rows = congruence._relation_rows(ab.table)
    for a, b in ((0, 1), (1, 2)):
        rows.append([3 * (x - y) for x, y in zip(pairs[a], pairs[b])])
    form = smith_normal_form(rows)
    quotient = replace(
        ab,
        num_relations=len(rows),
        diagonal=form.diagonal,
        rank=form.rank,
        invariant_factors=form.invariant_factors,
        free_rank=degree - form.rank,
        right_columns=form.right_columns,
        right_inverse_rows=form.right_inverse_rows,
    )
    assert (quotient.free_rank, quotient.invariant_factors) == (1, (3, 3))
    torsion = [t for t in range(form.rank) if form.diagonal[t] > 1]
    leaked = False
    for w in (BraidWord(3, (1,)), BraidWord(3, (2,))):
        act = conjugation_action(quotient, w)
        full = _dense_action_rows(quotient, w)
        expect = tuple(
            (s, t, row[t] % form.diagonal[t])
            for s, row in enumerate(full)
            for t in torsion
            if row[t] % form.diagonal[t]
        )
        assert act.matrix == ((1,),)
        assert act.torsion_leak == expect
        leaked = leaked or bool(expect)
    assert leaked
    assert conjugation_action(quotient, full_twist(3)).is_identity()


def test_free_coordinates_reject_wrong_lengths():
    ab = abelianization(3, 2)
    assert ab.num_generators == 12
    x = subgroup_coordinates(ab.table, pure_generator(3, 1, 3))
    assert ab.free_coordinates(_dense(x, 12)) == ab.free_coordinates(x)
    for bad in ((1,), (0,) * 13, {12: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            ab.free_coordinates(bad)


def test_four_strand_level_four_abelianization():
    ab = abelianization(4, 4)
    assert (ab.table.size, ab.num_generators, ab.num_relations) == (1536, 4608, 6143)
    assert (ab.rank, ab.free_rank, ab.invariant_factors) == (4587, 21, ())
    assert conjugation_action(ab, full_twist(4)).is_identity()


def test_conjugation_action_level_two_faithful_on_cosets():
    ab = abelianization(3, 2)
    assert conjugation_action(ab, ab.table.transversal(1)).is_identity()
    for coset in range(2, 7):
        act = conjugation_action(ab, ab.table.transversal(coset))
        assert not act.is_identity()


def test_conjugation_action_is_multiplicative():
    ab = abelianization(3, 2)
    rng = Random(706)
    for _ in range(12):
        u = random_word(rng, 3, 8)
        v = random_word(rng, 3, 8)
        lhs = conjugation_action(ab, u * v).matrix
        rhs = mat_mul(conjugation_action(ab, u).matrix, conjugation_action(ab, v).matrix)
        assert lhs == rhs


def test_conjugation_by_members_is_trivial():
    # inner automorphisms act trivially on the abelianization
    ab = abelianization(3, 2)
    rng = Random(707)
    for _ in range(10):
        w = random_pure_word(rng, 3, factors=2)
        assert conjugation_action(ab, w).is_identity()


def test_conjugation_action_depends_only_on_the_coset():
    ab = abelianization(3, 2)
    rng = Random(711)
    for _ in range(10):
        w = random_word(rng, 3, 10)
        member = random_pure_word(rng, 3, factors=2)
        assert conjugation_action(ab, w).matrix == conjugation_action(ab, w * member).matrix


def test_conjugation_action_level_two_faithful_on_four_strands():
    ab = abelianization(4, 2)
    assert ab.table.size == 24
    for coset in range(2, ab.table.size + 1):
        assert not conjugation_action(ab, ab.table.transversal(coset)).is_identity()


def test_divisibility_of_levels():
    assert divisibility_check(3, 2, 4, samples=25, seed=708)
    assert divisibility_check(3, 3, 6, samples=15, seed=709)
    assert divisibility_check(4, 2, 6, samples=15, seed=710)
    with pytest.raises(ValueError):
        divisibility_check(3, 4, 6, samples=5)
