"""Smith normal form, integer solving, and kernel bases."""

from itertools import combinations
from math import gcd, prod
from random import Random

import pytest

from braidcong import smith
from braidcong.congruence import abelianization, conjugation_action
from braidcong.cryst import element_order, torsion_search
from braidcong.matrices import determinant, identity, mat_mul, mat_vec, sparse, transpose
from braidcong.smith import SmithForm, kernel_basis, smith_normal_form, solve_integer
from braidcong.words import BraidWord, full_twist


def _random_matrix(rng, rows, cols, bound=9):
    return tuple(
        tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows)
    )


def _check_form(a):
    s = smith_normal_form(a)
    rows, cols = s.rows, s.cols
    d = mat_mul(mat_mul(s.left, a), s.right)
    for r in range(rows):
        for c in range(cols):
            expect = s.diagonal[r] if r == c and r < len(s.diagonal) else 0
            assert d[r][c] == expect
    for k in range(len(s.diagonal) - 1):
        assert s.diagonal[k] >= 0
        if s.diagonal[k + 1]:
            assert s.diagonal[k] != 0
            assert s.diagonal[k + 1] % s.diagonal[k] == 0
    assert mat_mul(s.right, s.right_inverse) == identity(cols)
    assert mat_mul(s.right_inverse, s.right) == identity(cols)
    assert determinant(s.left) in (1, -1)
    assert determinant(s.right) in (1, -1)
    # the dense views hold the sparse fields, rows of right^-1 and columns
    # of right
    assert tuple(map(sparse, zip(*s.right))) == s.right_columns
    assert tuple(map(sparse, s.right_inverse)) == s.right_inverse_rows
    return s


def test_known_forms():
    s = _check_form(((2, 4), (6, 8)))
    assert s.diagonal == (2, 4)
    s = _check_form(((1, 0), (0, 1)))
    assert s.diagonal == (1, 1)
    s = _check_form(((0, 0), (0, 0)))
    assert s.rank == 0
    s = _check_form(((6,),))
    assert s.diagonal == (6,)
    assert s.invariant_factors == (6,)
    # the pivot 2 stands alone but fails to divide an entry; adding that
    # entry's row to the pivot row brings in entries whose quotient is 0
    s = _check_form(((2, 2, 2), (3, -3, -3), (3, 0, 0), (-3, 0, 2), (0, -3, -3)))
    assert s.diagonal == (1, 1, 6)


def test_invariant_factors_drop_units():
    s = smith_normal_form(((1, 0, 0), (0, 2, 0), (0, 0, 6)))
    assert s.diagonal == (1, 2, 6)
    assert s.invariant_factors == (2, 6)


def test_random_rectangular_forms():
    rng = Random(501)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        _check_form(_random_matrix(rng, rows, cols))


def test_solve_integer():
    rng = Random(502)
    # build solvable systems from known solutions
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = _random_matrix(rng, rows, cols, bound=6)
        x = tuple(rng.randint(-4, 4) for _ in range(cols))
        b = mat_vec(a, x)
        got = solve_integer(a, b)
        assert got is not None
        assert mat_vec(a, got) == b


def test_solve_integer_unsolvable():
    # 2x = 1 has no integer solution
    assert solve_integer(((2,),), (1,)) is None
    # inconsistent system
    assert solve_integer(((1,), (1,)), (0, 1)) is None


def test_kernel_basis():
    rng = Random(503)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = _random_matrix(rng, rows, cols, bound=5)
        basis = kernel_basis(a)
        s = smith_normal_form(a)
        assert len(basis) == cols - s.rank
        zero = (0,) * rows
        for v in basis:
            assert mat_vec(a, v) == zero
    # kernel of a rank-1 projection
    basis = kernel_basis(((1, 1), (1, 1)))
    assert len(basis) == 1
    assert mat_vec(((1, 1), (1, 1)), basis[0]) == (0, 0)


def _sparse_matrix(rng, rows, cols, density=0.12):
    return tuple(
        tuple(
            rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
            for _ in range(cols)
        )
        for _ in range(rows)
    )


def test_sparse_forms_are_certified():
    # unimodular left and right with left * A * right diagonal and a
    # divisibility chain determine the Smith form, so _check_form certifies it
    rng = Random(504)
    for _ in range(12):
        rows = rng.randint(36, 44)
        cols = rng.randint(36, 44)
        a = _sparse_matrix(rng, rows, cols, density=rng.choice((0.05, 0.12, 0.25)))
        _check_form(a)


def _determinantal_diagonal(a):
    # d_k = gcd of the k x k minors; the Smith diagonal is d_k / d_(k-1)
    rows, cols = len(a), len(a[0])
    out, previous = [], 1
    for k in range(1, min(rows, cols) + 1):
        divisor = gcd(
            *(
                determinant(tuple(tuple(a[r][c] for c in cs) for r in rs))
                for rs in combinations(range(rows), k)
                for cs in combinations(range(cols), k)
            )
        )
        out.append(divisor // previous if previous else 0)
        previous = divisor
    return tuple(out)


def test_diagonal_matches_the_determinantal_divisors():
    """Independent oracle: gcds of minors, on matrices of at most 20 entries."""
    rng = Random(507)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, min(6, 20 // rows))
        a = _random_matrix(rng, rows, cols, bound=rng.choice((3, 12, 60)))
        assert smith_normal_form(a).diagonal == _determinantal_diagonal(a)


@pytest.mark.parametrize("entries", [(0, 2, -2, 3, -3), (0, 6, 10, 15), (0, 4, 6, -6, 9)])
def test_matrices_without_a_unit_entry(entries):
    """Many ties and no unit: remainders and the divisibility step must both run."""
    rng = Random(508)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = tuple(tuple(rng.choice(entries) for _ in range(cols)) for _ in range(rows))
        s = _check_form(a)
        if rows * cols <= 20:
            assert s.diagonal == _determinantal_diagonal(a)


def test_ragged_input_is_rejected():
    for a in (((1, 2), (3,)), ((1,), (2, 3)), ((0, 2), (0,))):
        with pytest.raises(ValueError, match="row 1 has"):
            smith_normal_form(a)
    with pytest.raises(ValueError, match="row 1 has"):
        kernel_basis(((0, 2), (0,)))
    with pytest.raises(ValueError, match="row 2 has"):
        solve_integer(((1, 2), (3, 4), (5,)), (1, 2, 3))


def test_the_column_count_can_be_given():
    s = smith_normal_form((), cols=3)
    assert (s.rows, s.cols, s.rank, s.diagonal) == (0, 3, 0, ())
    assert s.right_columns == s.right_inverse_rows == ({0: 1}, {1: 1}, {2: 1})
    assert smith_normal_form(((0, 2),), cols=2).diagonal == (2,)
    with pytest.raises(ValueError, match="row 0 has 2 entries, expected 3"):
        smith_normal_form(((0, 2),), cols=3)
    with pytest.raises(ValueError, match="column count must be non-negative, got -1"):
        smith_normal_form((), cols=-1)


def _scramble(rng, a, steps):
    # random sparse unimodular row and column operations
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    for _ in range(steps):
        q = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        else:
            i, j = rng.sample(range(cols), 2)
            for row in m:
                row[i] += q * row[j]
        if rng.random() < 0.1:
            i, j = rng.sample(range(rows), 2)
            m[i], m[j] = m[j], m[i]
    return tuple(map(tuple, m))


def test_scrambled_known_diagonals():
    rng = Random(505)
    cases = (
        ((1, 1, 2, 6, 0, 0), 8, 7),
        ((1, 3, 3, 9, 18), 5, 9),
        ((2, 2, 4), 6, 3),
        ((1, 1, 1, 5, 0), 12, 5),
    )
    for diagonal, rows, cols in cases:
        a = tuple(
            tuple(diagonal[r] if r == c and r < len(diagonal) else 0 for c in range(cols))
            for r in range(rows)
        )
        for steps in (5, 20, 60):
            scrambled = _scramble(rng, a, steps)
            s = _check_form(scrambled)
            expect = diagonal + (0,) * (min(rows, cols) - len(diagonal))
            assert s.diagonal == expect


def _rank_mod(a, p):
    m = [[x % p for x in row] for row in a]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_rank_over_prime_fields_matches_the_diagonal():
    """Independent oracle: rank mod p counts diagonal entries prime to p."""
    rng = Random(506)
    for _ in range(10):
        rows = rng.randint(20, 40)
        cols = rng.randint(20, 40)
        a = _sparse_matrix(rng, rows, cols, density=rng.choice((0.08, 0.2)))
        a = _scramble(rng, a, 10)
        s = smith_normal_form(a)
        for p in (2, 3, 5, 7):
            assert _rank_mod(a, p) == sum(1 for d in s.diagonal if d % p)


def test_library_paths_never_build_dense_transforms(monkeypatch):
    """The dense views are for oracles; solving, kernels and actions stay sparse."""

    def refuse(row, length):
        raise AssertionError("a dense transform was built")

    monkeypatch.setattr(smith, "_dense_row", refuse)
    ab = abelianization(3, 4)
    assert ab.free_rank == 6
    assert conjugation_action(ab, full_twist(3)).is_identity()
    assert len(conjugation_action(ab, BraidWord(3, (1, -2, 1))).matrix) == 6
    a = ((2, 4, 0), (1, 3, 5))
    x = solve_integer(a, (6, 9))
    assert mat_vec(a, x) == (6, 9)
    basis = kernel_basis(a)
    assert len(basis) == 1 and mat_vec(a, basis[0]) == (0, 0)
    assert element_order(torsion_search(5, 3)) == 3
    with pytest.raises(AssertionError):
        smith_normal_form(a).left


def _solvable_by_minors(a, b):
    # a x = b has an integer solution exactly when a and [a | b] have the same
    # rank r and the same gcd of r x r minors
    da = _determinantal_diagonal(a)
    dab = _determinantal_diagonal(tuple(row + (y,) for row, y in zip(a, b)))
    r = sum(1 for d in da if d)
    return sum(1 for d in dab if d) == r and prod(da[:r]) == prod(dab[:r])


def test_solve_integer_decides_like_the_determinantal_divisors():
    """Independent oracle: solvability from gcds of minors, on systems up to 5 x 5."""
    rng = Random(509)
    outcomes = set()
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = tuple(
            tuple(rng.choice((0, 0, 1, -2, 2, 3, -4, 6)) for _ in range(cols))
            for _ in range(rows)
        )
        if rng.random() < 0.5:
            x = tuple(rng.randint(-3, 3) for _ in range(cols))
            b = mat_vec(a, x)
        else:
            b = tuple(rng.randint(-6, 6) for _ in range(rows))
        got = solve_integer(a, b)
        assert (got is not None) == _solvable_by_minors(a, b)
        if got is not None:
            assert mat_vec(a, got) == b
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_left_times_applies_the_row_operation_log():
    """left (a x) = D (right^-1 x), with right^-1 tracked apart from the log."""
    rng = Random(510)
    for _ in range(300):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = _random_matrix(rng, rows, cols, bound=rng.choice((2, 9)))
        x = tuple(rng.randint(-20, 20) for _ in range(cols))
        s = smith_normal_form(a)
        # y = right^-1 x, from the sparse rows of right^-1
        y = [sum(row.get(k, 0) * v for k, v in enumerate(x)) for row in s.right_inverse_rows]
        expect = tuple(
            s.diagonal[t] * y[t] if t < len(s.diagonal) else 0 for t in range(rows)
        )
        assert s.left_times(mat_vec(a, x)) == expect
    with pytest.raises(ValueError):
        s.left_times(mat_vec(a, x) + (0,))


def test_library_paths_never_replay_left(monkeypatch):
    """Only oracles and counters read left; every library path uses the log."""

    def refuse(form):
        raise AssertionError("left was built")

    monkeypatch.setattr(SmithForm, "left", property(refuse))
    ab = abelianization(3, 4)
    assert ab.free_rank == 6
    assert conjugation_action(ab, full_twist(3)).is_identity()
    assert len(conjugation_action(ab, BraidWord(3, (1, -2, 1))).matrix) == 6
    a = ((2, 4, 0), (1, 3, 5))
    x = solve_integer(a, (6, 9))
    assert mat_vec(a, x) == (6, 9)
    assert solve_integer(a, (1, 0)) is None
    basis = kernel_basis(a)
    assert len(basis) == 1 and mat_vec(a, basis[0]) == (0, 0)
    assert element_order(torsion_search(5, 3)) == 3
    with pytest.raises(AssertionError):
        smith_normal_form(a).left


def test_matrix_vector_products_check_lengths():
    a = ((1, 2, 3), (4, 5, 6))
    assert mat_vec(a, (1, 0, -1)) == (-2, -2)
    for v in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            mat_vec(a, v)
    with pytest.raises(ValueError, match=r"^row 1 has 1 entries, expected 2$"):
        mat_mul(((1, 2), (3,)), ((1,), (2,)))
    with pytest.raises(ValueError, match=r"^row 0 has 2 entries, expected 1$"):
        determinant(((1, 2),))
    with pytest.raises(ValueError, match=r"^row 1 has 1 entries, expected 2$"):
        determinant(((1, 2), (3,)))
    with pytest.raises(ValueError, match=r"^row 1 has 1 entries, expected 2$"):
        transpose(((1, 2), (3,)))
