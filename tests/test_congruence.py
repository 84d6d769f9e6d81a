"""Membership, image enumeration, coset tables, and abelianizations."""

import argparse
import hashlib
import math
from dataclasses import replace
from random import Random

import pytest

from braidcong import burau, claims, cli, congruence, cryst
from braidcong.congruence import (
    LimitExceeded,
    abelianization,
    conjugation_action,
    coset_table,
    enumerate_image,
    image_center,
    is_member,
    letter_order,
    subgroup_coordinates,
)
from braidcong.burau import burau_matrix, burau_matrix_mod
from braidcong.matrices import determinant, mat_mul, mat_vec, sparse_combination, transpose
from braidcong.smith import kernel_basis, smith_normal_form, solve_integer
from braidcong.words import (
    BraidWord,
    LinkingVector,
    PairIndex,
    Permutation,
    artin_relators,
    full_twist,
    pair_count,
    pair_list,
    pair_position,
    permutation,
    pure_generator,
    random_pure_word,
    random_word,
    torelli_chain,
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
    flat = (bytes(x for row in g.matrix(k) for x in row) for k in range(g.size))
    assert tuple(e.hex() for e in flat) == GOLDEN_32_ELEMENTS
    assert g.edges[0] == (1, 1, 2, 2)


def test_image_orders():
    assert enumerate_image(3, 2).size == 6
    assert enumerate_image(4, 2).size == 24
    assert enumerate_image(5, 2).size == 120
    assert enumerate_image(3, 3).size == 24
    assert enumerate_image(3, 5).size == 120


def test_strand_counts_below_two_are_rejected():
    builds = (
        enumerate_image,
        coset_table,
        abelianization,
        lambda n, m: artin_relators(n),
        lambda n, m: pair_count(n),
        lambda n, m: letter_order(n),
        lambda n, m: pair_list(n),
        lambda n, m: burau.ones_vector(n),
        lambda n, m: burau.alternating_covector(n),
        lambda n, m: full_twist(n),
        lambda n, m: burau.generator_matrix(n, 1),
        lambda n, m: burau.transvection_generator(n, 1),
        lambda n, m: cryst.CrystElement.identity(n),
        lambda n, m: cryst.additivity_failures(n, m, []),
    )
    for n in (1, 0, -3):
        for build in builds:
            with pytest.raises(ValueError, match="strand count must be at least 2"):
                build(n, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: solve_integer(((1, 2),), (1, 2)), "vector has 2 entries, expected 1"),
        (lambda: enumerate_image(3, 3, element_cap=0), "cap must be positive, got 0"),
        (lambda: abelianization(3, 3, coset_cap=0), "cap must be positive, got 0"),
        (lambda: enumerate_image(3, 3, element_cap=2.5), "cap must be an integer, got 2.5"),
        (lambda: enumerate_image(3, 3, element_cap=True), "cap must be an integer, got True"),
        (lambda: abelianization(3, 3, coset_cap=10.0), "cap must be an integer, got 10.0"),
        (lambda: burau.invariant_form(1), "strand count must be at least 2, got 1"),
        (
            lambda: burau.transvection_generator(3, 3),
            "generator index 3 out of range 1\\.\\.2",
        ),
        (lambda: burau.generator_matrix(3, 1, 0), "sign must be \\+1 or -1, got 0"),
        (lambda: burau.transvection_generator(3, 1, 2), "sign must be \\+1 or -1, got 2"),
        (
            lambda: conjugation_action(abelianization(3, 2), BraidWord(4)),
            "strand count mismatch: 4 vs 3",
        ),
        (
            lambda: cryst.power_quotient_class(4, 3, cryst.normal_form(BraidWord(3, (1,)))),
            "strand count mismatch: 3 vs 4",
        ),
        (lambda: PairIndex(0, 3), "strand label must be positive, got 0"),
        (lambda: pair_position(3, PairIndex(1, 4)), "strand label 4 out of range 1\\.\\.3"),
        (
            lambda: cryst.CrystElement(3, Permutation.identity(4), LinkingVector.zero(3)),
            "strand count mismatch: 3 vs 4",
        ),
        (lambda: burau._pow_mod(((1,),), -1, 3), "exponent must be non-negative, got -1"),
        (lambda: LinkingVector(3, (0, 0)), "linking vector has 2 entries, expected 3"),
        (
            lambda: cryst.additivity_failures(3, 2, []),
            "the power map is an endomorphism only for odd m, got 2",
        ),
        (lambda: Permutation((1, 1)), "not a permutation of 1\\.\\.2: \\(1, 1\\)"),
        (lambda: Permutation((0, 1)), "not a permutation of 1\\.\\.2: \\(0, 1\\)"),
    ],
    ids=[
        "solve_integer-length",
        "enumerate_image-cap",
        "abelianization-cap",
        "enumerate_image-cap-float",
        "enumerate_image-cap-bool",
        "abelianization-cap-float",
        "invariant_form-strands",
        "transvection_generator-index",
        "generator_matrix-sign",
        "transvection_generator-sign",
        "conjugation_action-strands",
        "power_quotient_class-strands",
        "PairIndex-label",
        "pair_position-label",
        "CrystElement-strands",
        "pow_mod-exponent",
        "LinkingVector-length",
        "additivity_failures-even",
        "Permutation-repeat",
        "Permutation-zero",
    ],
)
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _quotient_check(samples):
    args = argparse.Namespace(n=3, m=3, seed=0, samples=samples)
    return cli._cmd_cryst_quotient_check(args)


_SIGMA = cryst.normal_form(BraidWord(3, (1,)))

# each entry point that takes an integer parameter, as a call on the value v
_INTEGER_PARAMETERS = {
    "strand-count": lambda v: BraidWord(v),
    "modulus": lambda v: burau_matrix_mod(BraidWord(3, (1,)), v),
    "max_length": lambda v: random_word(Random(0), 3, v),
    "factors": lambda v: random_pure_word(Random(0), 3, v),
    "point": lambda v: Permutation((2, 1, 3))(v),
    "cap": lambda v: enumerate_image(3, 3, element_cap=v),
    "coset-trace": lambda v: coset_table(3, 2).trace(v, BraidWord(3)),
    "coset-transversal": lambda v: coset_table(3, 2).transversal(v),
    "element": lambda v: enumerate_image(3, 2).matrix(v),
    "coordinate-key": lambda v: abelianization(3, 2).free_coordinates({v: 1}),
    "power": lambda v: cryst.power_map_is_homomorphism(3, v),
    "power-endomorphism": lambda v: cryst.power_endomorphism(3, v, _SIGMA),
    "order": lambda v: cryst.torsion_search(5, v),
    "generator-index": lambda v: burau.generator_matrix(3, v),
    "column-count": lambda v: smith_normal_form((), cols=v),
    "samples": _quotient_check,
    "letter": lambda v: BraidWord(3, (v,)),
    "permutation-image": lambda v: Permutation((v, 2)),
    "pair-label": lambda v: PairIndex(v, 3),
    "linking-coordinate": lambda v: LinkingVector(3, (v, 0, 0)),
    "scale": lambda v: LinkingVector.unit(3, 1, 2).scaled(v),
    "word-exponent": lambda v: BraidWord(3, (1,)) ** v,
    "cryst-exponent": lambda v: _SIGMA**v,
    "cryst-strand-count": lambda v: cryst.CrystElement(v, _SIGMA.perm, _SIGMA.vec),
    "pure-generator-strands": lambda v: pure_generator(v, 1, 2),
    "pure-generator-i": lambda v: pure_generator(3, v, 3),
    "pure-generator-j": lambda v: pure_generator(3, 1, v),
    "torelli-strands": lambda v: torelli_chain(v, 2),
    "torelli-length": lambda v: torelli_chain(5, v),
    "sign": lambda v: burau.generator_matrix(3, 1, v),
    "transvection-sign": lambda v: burau.transvection_generator(3, 1, v),
    "coordinate-exponent": lambda v: abelianization(3, 2).free_coordinates({0: v}),
    "suite-seed": lambda v: claims.SuiteConfig(seed=v),
    "transvection-model-strands": lambda v: burau.check_transvection_model(v, 3),
    "transvection-model-seed": lambda v: burau.check_transvection_model(3, 3, seed=v),
    "pair-position-strands": lambda v: pair_position(v, PairIndex(1, 2)),
    "smith-entry": lambda v: smith_normal_form(((v, 0), (0, 3))),
    "solve-right-hand-side": lambda v: solve_integer(((2, 0), (0, 3)), (v, 3)),
    "kernel-entry": lambda v: kernel_basis(((v, 3),)),
    "order-mod-entry": lambda v: burau.order_mod(((v, 1), (1, 1)), 7),
    "relator-strands": lambda v: artin_relators(v),
    "pair-count-strands": lambda v: pair_count(v),
    "letter-order-strands": lambda v: letter_order(v),
    "pair-list-strands": lambda v: pair_list(v),
    "ones-vector-strands": lambda v: burau.ones_vector(v),
    "covector-strands": lambda v: burau.alternating_covector(v),
    "full-twist-strands": lambda v: full_twist(v),
    "generator-strands": lambda v: burau.generator_matrix(v, 1),
    "transvection-strands": lambda v: burau.transvection_generator(v, 1),
    "permutation-identity": lambda v: Permutation.identity(v),
    "cryst-identity": lambda v: cryst.CrystElement.identity(v),
    "additivity-strands": lambda v: cryst.additivity_failures(v, 3, []),
    "additivity-power": lambda v: cryst.additivity_failures(3, v, []),
    "mat-mul-entry": lambda v: mat_mul(((1, 0), (0, 1)), ((v, 0), (0, 1))),
    "mat-vec-matrix-entry": lambda v: mat_vec(((v, 0), (0, 1)), (1, 1)),
    "mat-vec-vector-entry": lambda v: mat_vec(((1, 0), (0, 1)), (v, 1)),
    "determinant-entry": lambda v: determinant(((v, 0), (0, 1))),
    "transpose-entry": lambda v: transpose(((1, v), (0, 1))),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True], ids=["2.5", "2.0", "True"])
@pytest.mark.parametrize("call", _INTEGER_PARAMETERS.values(), ids=_INTEGER_PARAMETERS.keys())
def test_integer_parameters_refuse_floats_and_bools(call, value):
    """Every integer parameter goes through matrices.check_integer, which reads
    neither a float nor a bool as an integer, whatever its value."""
    with pytest.raises(ValueError, match=rf"must be an integer, got {value!r}$"):
        call(value)


def test_enumeration_respects_cap():
    """A cap equal to the order is met; one below trips on the last element
    found, and (4, 5) at 1000 trips inside the level from 417 to 1172."""
    assert enumerate_image(3, 3, element_cap=24).size == 24
    for n, m, cap in [(3, 3, 10), (3, 3, 23), (4, 5, 1000)]:
        message = f"^image of \\({n}, {m}\\) exceeds the cap {cap}; partial size {cap}$"
        with pytest.raises(LimitExceeded, match=message) as err:
            enumerate_image(n, m, element_cap=cap)
        assert err.value.partial == cap


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


def _product_mod(a, b, m):
    # oracle: the exact integer product, then reduced
    return tuple(tuple(x % m for x in row) for row in mat_mul(a, b))


def _one_state_scan(n, m):
    # reference: the search scanning one state at a time and one letter at a
    # time, each row image an integer product reduced mod m
    letters = letter_order(n)
    gens = [burau_matrix_mod(BraidWord(n, (letter,)), m) for letter in letters]
    rows = [tuple(int(r == c) for c in range(n)) for r in range(n)]
    row_index = {row: r for r, row in enumerate(rows)}
    tables = [[] for _ in letters]
    states = [tuple(range(n))]
    index = {states[0]: 0}
    parents = [None]
    edges = []
    for k, current in enumerate(states):
        while len(tables[0]) <= max(current):
            source = rows[len(tables[0])]
            for gen, table in zip(gens, tables):
                image = _product_mod((source,), gen, m)[0]
                if image not in row_index:
                    row_index[image] = len(rows)
                    rows.append(image)
                table.append(row_index[image])
        out = []
        for letter, table in zip(letters, tables):
            product = tuple(table[r] for r in current)
            if product not in index:
                index[product] = len(states)
                states.append(product)
                parents.append((k, letter))
            out.append(index[product])
        edges.append(tuple(out))
    return {
        "n": n,
        "m": m,
        "letters": letters,
        "elements": tuple(states),
        "edges": tuple(edges),
        "parents": tuple(parents),
        "rows": tuple(rows),
        "row_images": tuple(map(tuple, tables)),
    }


@pytest.mark.parametrize(
    "n, m", [(2, 5), (3, 2), (3, 7), (4, 3), (4, 4), (6, 2), (3, 16), (4, 5)]
)
def test_level_scan_matches_the_one_state_scan(n, m):
    expected = _one_state_scan(n, m)
    g = enumerate_image(n, m)
    assert {name: getattr(g, name) for name in expected} == expected


def test_enumeration_is_closed_under_generators():
    g = enumerate_image(3, 3)
    gens = [burau_matrix_mod(BraidWord(3, (letter,)), 3) for letter in g.letters]
    for k, edges in enumerate(g.edges):
        for pos, target in enumerate(edges):
            expect = _product_mod(g.matrix(k), gens[pos], 3)
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
    """Oracle: integer products reduced mod m, brute-force commutation and a
    second tree pass.

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
            assert mats[target] == _product_mod(mats[k], gens[pos], m)
    positive = [x for l, x in zip(g.letters, gens) if l > 0]
    brute = tuple(
        k
        for k, a in enumerate(mats)
        if all(_product_mod(a, x, m) == _product_mod(x, a, m) for x in positive)
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
    assert tuple(table.transversal(c).letters for c in range(1, g.size + 1)) == tuple(words)
    assert g.parents == tuple(parents)
    # the numbering is a bijection onto the distinct matrices
    assert len(set(mats)) == g.size


@pytest.mark.parametrize("n, m", [(3, 3), (4, 3)])
def test_traced_element_is_the_reduced_integer_image(n, m):
    """Oracle: the exact integer representation, reduced entry by entry."""
    g = enumerate_image(n, m)
    rng = Random(712)
    for _ in range(20):
        w = random_word(rng, n, 15)
        reduced = tuple(tuple(x % m for x in row) for row in burau_matrix(w))
        assert g.matrix(g.trace(1, w) - 1) == reduced


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
    assert tuple(t.transversal(c).letters for c in range(1, 7)) == GOLDEN_32_TRANSVERSALS
    # public interface is 1-based with coset 1 the subgroup itself
    assert t.trace(1, BraidWord(3, (1,))) == 2
    assert t.trace(1, BraidWord(3, (2,))) == 3
    assert t.trace(2, BraidWord(3, (-1,))) == 1


def test_coset_table_is_the_image():
    for n, m in [(3, 2), (3, 3), (4, 2)]:
        assert coset_table(n, m) == enumerate_image(n, m)


def _last_letter_tree(table):
    # the tree coordinates: the tree edge into coset c is the last letter of
    # its transversal, and its parent is found by walking that letter back
    n = table.n
    tree = set()
    for c in range(1, table.size):
        last = table.transversal(c + 1).letters[-1]
        if last > 0:
            parent = table.trace(c + 1, BraidWord(n, (-last,))) - 1
            tree.add(parent * (n - 1) + last - 1)
        else:
            tree.add(c * (n - 1) - last - 1)
    return tree


def _transversal_relator_rows(table):
    # every relator conjugated by every transversal word, rewritten over all
    # Schreier coordinates, tree ones included
    n = table.n
    degree = table.size * (n - 1)
    rows = []
    for c in range(table.size):
        tau = table.transversal(c + 1)
        for rel in artin_relators(n):
            coords = subgroup_coordinates(table, tau * rel * tau.inverse())
            rows.append([coords.get(k, 0) for k in range(degree)])
    return rows


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_relation_rows_match_the_last_letter_derivation(n, m):
    table = coset_table(n, m)
    rows, columns = congruence._relation_rows(table)
    tree = _last_letter_tree(table)
    assert columns == [k for k in range(table.size * (n - 1)) if k not in tree]
    expect = [[row[k] for k in columns] for row in _transversal_relator_rows(table)]
    assert [list(row) for row in rows] == expect


@pytest.mark.parametrize("n, m", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3)])
def test_abelianization_matches_the_full_relation_matrix(n, m):
    """Oracle: every Schreier generator a column, one unit row per tree edge."""
    ab = abelianization(n, m)
    degree = ab.num_generators
    rows = _transversal_relator_rows(ab.table)
    rows += [[int(k == j) for j in range(degree)] for k in sorted(_last_letter_tree(ab.table))]
    form = smith_normal_form(rows)
    assert (ab.free_rank, ab.invariant_factors) == (degree - form.rank, form.invariant_factors)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (3, 5), (4, 2), (4, 3)])
def test_tree_coordinates_project_to_zero(n, m):
    ab = abelianization(n, m)
    tree = _last_letter_tree(ab.table)
    assert len(tree) == ab.table.size - 1
    for k in tree:
        assert ab.free_coordinates({k: 1}) == (0,) * ab.free_rank
    for vectors in (ab.right_columns, ab.right_inverse_rows):
        assert all(tree.isdisjoint(v) for v in vectors)
    # R^-1 is invertible on the other coordinates, so it reads each of them
    assert set().union(*ab.right_inverse_rows) == set(range(ab.num_generators)) - tree


def test_coset_numbers_outside_the_table_are_rejected():
    t = coset_table(3, 2)
    for coset in (0, -1, 7):
        for call in (
            lambda: t.trace(coset, BraidWord(3, (1, 2))),
            lambda: t.trace(coset, BraidWord(3)),
            lambda: t.transversal(coset),
        ):
            with pytest.raises(ValueError, match=r"out of range 1\.\.6"):
                call()


def test_element_numbers_outside_the_image_are_rejected():
    group = enumerate_image(3, 2)
    assert group.matrix(5) == group.matrix(group.size - 1)
    for k in (-1, group.size):
        with pytest.raises(ValueError, match=rf"^element {k} out of range 0\.\.5$"):
            group.matrix(k)


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
    for n in (2, 3, 4, 5, 6):
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
    with pytest.raises(LimitExceeded, match="exceeds the cap 5; partial size 5$") as err:
        abelianization(3, 3, coset_cap=5)
    assert err.value.partial == 5
    assert abelianization(3, 3, coset_cap=24).table.size == 24


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


def test_three_strand_level_sixteen_rank():
    # the closed form at index |SL2(Z/16)| = 3072: free rank 2 + 3072/12
    ab = abelianization(3, 16)
    assert _sl2_order(16) == ab.table.size == 3072
    assert (ab.free_rank, ab.invariant_factors) == (258, ())


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
    table, n, degree = ab.table, ab.table.n, ab.num_generators
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


def _level_two_torsion_quotient():
    """A quotient of the level-2 abelianization whose torsion the action reaches.

    At level 2 the free part is Z^3 on the pair generators A_12, A_13, A_23,
    which conjugation permutes.  Adding the relations 3(A_12 - A_13) and
    3(A_13 - A_23) to the relation rows, over the non-tree Schreier
    generators, leaves Z + (Z/3)^2.
    """
    ab = abelianization(3, 2)
    rows, columns = congruence._relation_rows(ab.table)
    pairs = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        coords = subgroup_coordinates(ab.table, pure_generator(3, i, j))
        pairs.append([coords.get(k, 0) for k in columns])
    for a, b in ((0, 1), (1, 2)):
        rows.append([3 * (x - y) for x, y in zip(pairs[a], pairs[b])])
    form = smith_normal_form(rows)
    return replace(
        ab,
        num_relations=len(rows),
        diagonal=form.diagonal,
        rank=form.rank,
        invariant_factors=form.invariant_factors,
        free_rank=len(columns) - form.rank,
        right_columns=congruence._rekeyed(form.right_columns, columns),
        right_inverse_rows=congruence._rekeyed(form.right_inverse_rows, columns),
    )


def test_torsion_leaks_on_a_quotient_with_torsion():
    """No lift of the quotient's free generator is fixed by both sigma_1 and
    sigma_2 modulo 3, so one of them leaks into the torsion."""
    quotient = _level_two_torsion_quotient()
    assert (quotient.free_rank, quotient.invariant_factors) == (1, (3, 3))
    torsion = [t for t in range(quotient.rank) if quotient.diagonal[t] > 1]
    leaked = False
    for w in (BraidWord(3, (1,)), BraidWord(3, (2,))):
        act = conjugation_action(quotient, w)
        full = _dense_action_rows(quotient, w)
        expect = tuple(
            (s, t, row[t] % quotient.diagonal[t])
            for s, row in enumerate(full)
            for t in torsion
            if row[t] % quotient.diagonal[t]
        )
        assert act.matrix == ((1,),)
        assert act.torsion_leak == expect
        leaked = leaked or bool(expect)
    assert leaked
    assert conjugation_action(quotient, full_twist(3)).is_identity()


# SHA-256 of the outputs _abelianization_outputs and _solver_outputs list,
# whose inputs come from one random stream.  The abelianization part
# (diagonals, right transforms, actions and leaks) was pinned again when the
# relation matrix lost its tree columns and rows, after the oracles above
# passed on that matrix.  The solver part (solve_integer and kernel_basis) is
# as the smith module computed it before left was kept as a row-operation log.
PINNED_ABELIANIZATION_SHA256 = "87cdfa4072a043110eef9ae7547a994283949786558f508e5a640786dad2f669"
PINNED_SOLVER_SHA256 = "884beee7f38ae511d758cd338ccd22da01a732c0ec784097b795a68e949d20b6"


def _pinned_words(rng):
    # the action words of _abelianization_outputs, drawn before the solver inputs
    return {n: (full_twist(n), random_word(rng, n, 12), random_word(rng, n, 12)) for n in (3, 4)}


def _abelianization_outputs():
    out = []
    words = _pinned_words(Random(1501))
    for n, m in ((3, 6), (4, 3)):
        ab = abelianization(n, m)
        out.append(ab.diagonal)
        out.append([sorted(column.items()) for column in ab.right_columns])
        out.append([sorted(row.items()) for row in ab.right_inverse_rows])
        for w in words[n]:
            act = conjugation_action(ab, w)
            out.append((w.letters, act.matrix, act.torsion_leak))
    return out


def _solver_outputs():
    out = []
    rng = Random(1501)
    _pinned_words(rng)
    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = tuple(tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
        x = tuple(rng.randint(-4, 4) for _ in range(cols))
        solvable = tuple(sum(p * q for p, q in zip(row, x)) for row in a)
        arbitrary = tuple(rng.randint(-9, 9) for _ in range(rows))
        out.append((a, solve_integer(a, solvable), solve_integer(a, arbitrary), kernel_basis(a)))
    return out


def _digest(outputs):
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_abelianization_outputs_match_the_pinned_digest():
    """Transforms, actions and leaks, byte for byte."""
    assert _digest(_abelianization_outputs()) == PINNED_ABELIANIZATION_SHA256


def test_solver_outputs_match_the_pinned_digest():
    """Solutions and kernel bases, byte for byte."""
    assert _digest(_solver_outputs()) == PINNED_SOLVER_SHA256


def _rewritten_action(ab, w):
    """The action with each Schreier generator's word rewritten in full.

    theta(s) for s = tau_c sigma_i tau_(c sigma_i)^-1 is the rewrite of that
    word, of length up to twice the tree depth plus one, from the coset w^-1
    reaches; then the free block and the torsion leak of R^-1 theta R.
    """
    table, n, degree, rank = ab.table, ab.table.n, len(ab.right_columns), ab.rank
    torsion = [t for t in range(rank) if ab.diagonal[t] > 1]
    wanted = torsion + list(range(rank, degree))
    right_wanted = [{} for _ in range(ab.num_generators)]
    for j, t in enumerate(wanted):
        for k, x in ab.right_columns[t].items():
            right_wanted[k][j] = x
    start = table.trace(1, w.inverse()) - 1
    taus = [table.transversal(c).letters for c in range(1, table.size + 1)]
    backs = [tuple(-x for x in reversed(tau)) for tau in taus]
    theta_right = []
    for c, tau in enumerate(taus):
        for i in range(1, n):
            back = backs[table.trace(c + 1, BraidWord(n, (i,))) - 1]
            coords, final = congruence._rewrite(table, start, tau + (i,) + back)
            assert final == start
            theta_right.append(sparse_combination(coords, right_wanted))
    conjugated = [sparse_combination(row, theta_right) for row in ab.right_inverse_rows]
    k = len(torsion)
    matrix = tuple(
        tuple(row.get(j, 0) for j in range(k, len(wanted))) for row in conjugated[rank:]
    )
    leaks = tuple(
        (s - rank, t, conjugated[s].get(j, 0) % ab.diagonal[t])
        for s in range(rank, degree)
        for j, t in enumerate(torsion)
        if conjugated[s].get(j, 0) % ab.diagonal[t]
    )
    return matrix, leaks


def test_prefix_sum_action_matches_full_rewriting():
    """Oracle: tree prefix sums give the action and leaks of word rewriting."""
    rng = Random(1502)
    levels = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 2), (4, 3))
    cases = [abelianization(n, m) for n, m in levels]
    cases.append(_level_two_torsion_quotient())
    leaked = False
    for ab in cases:
        n = ab.table.n
        words = [full_twist(n)] + [random_word(rng, n, 12) for _ in range(5)]
        if ab.invariant_factors:
            words += [BraidWord(3, (1,)), BraidWord(3, (2,))]
        for w in words:
            act = conjugation_action(ab, w)
            assert (act.matrix, act.torsion_leak) == _rewritten_action(ab, w)
            leaked = leaked or bool(act.torsion_leak)
    assert leaked


def test_free_coordinates_reject_wrong_lengths():
    ab = abelianization(3, 2)
    assert ab.num_generators == 12
    for bad in ({12: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            ab.free_coordinates(bad)


def test_four_strand_level_four_abelianization():
    ab = abelianization(4, 4)
    assert (ab.table.size, ab.num_generators, ab.num_relations) == (1536, 4608, 4608)
    assert (ab.rank, ab.free_rank, ab.invariant_factors) == (3052, 21, ())
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
