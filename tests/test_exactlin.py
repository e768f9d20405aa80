import random
from fractions import Fraction
from itertools import combinations

import pytest

from _matrices import from_rows, full, identity, rank
from excol.exactlin import (
    ContainmentError,
    ExactLinError,
    Matrix,
    QQ,
    Subspace,
    field_by_name,
    kernel_basis,
    rref,
    subquotient_dim,
)
from excol.primefield import PrimeField


def test_rref_identity():
    res = rref(identity(2))
    assert res.matrix == identity(2)
    assert res.rank == 2
    assert res.pivot_cols == [0, 1]


def test_rref_zero_matrix():
    res = rref(Matrix.zero(3, 4))
    assert res.matrix.is_zero()
    assert res.rank == 0
    assert res.pivot_cols == []


def test_rref_rank_one():
    res = rref(from_rows([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.matrix == from_rows([[1, 2], [0, 0]])


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(identity(3)).dim == 0


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis(Matrix.zero(2, 3)).dim == 3


def test_kernel_single_equation():
    ker = kernel_basis(from_rows([[1, 1]]))
    assert ker.dim == 1
    assert ker.contains({0: Fraction(1), 1: Fraction(-1)})


def test_subquotient_full_by_zero():
    z = full(2)
    b = Subspace(2, [])
    assert subquotient_dim(z, b) == 2


def test_subquotient_equal_spaces():
    z = Subspace(3, [{0: Fraction(1)}, {1: Fraction(2)}])
    assert subquotient_dim(z, z) == 0


def test_subquotient_line_in_plane():
    z = Subspace(2, [{0: Fraction(1)}, {1: Fraction(1)}])
    b = Subspace(2, [{0: Fraction(1), 1: Fraction(1)}])
    assert subquotient_dim(z, b) == 1


def test_subquotient_rejects_noncontainment():
    z = Subspace(2, [{0: Fraction(1)}])
    b = Subspace(2, [{1: Fraction(1)}])
    with pytest.raises(ContainmentError):
        subquotient_dim(z, b)


def _random_matrix(rng, rows, cols, field=QQ, lo=-5, hi=5, density=0.7):
    m = Matrix.zero(rows, cols, field)
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                m[r, c] = field.of(rng.randint(lo, hi))
    return m


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        assert rank(m) + kernel_basis(m).dim == cols


def test_rref_idempotent_random():
    rng = random.Random(12)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        once = rref(m)
        twice = rref(once.matrix)
        assert once.matrix == twice.matrix
        assert once.rank == twice.rank


def _minor_rank(entries, rows, cols):
    """Brute-force rank: size of the largest invertible square minor."""

    def det(rws, cls):
        if not rws:
            return Fraction(1)
        r0 = rws[0]
        total = Fraction(0)
        s = 1
        for k, c in enumerate(cls):
            a = entries.get((r0, c), Fraction(0))
            if a:
                total += s * a * det(rws[1:], cls[:k] + cls[k + 1 :])
            s = -s
        return total

    for size in range(min(rows, cols), 0, -1):
        for rws in combinations(range(rows), size):
            for cls in combinations(range(cols), size):
                if det(list(rws), list(cls)) != 0:
                    return size
    return 0


def test_rank_agrees_with_minor_oracle_and_large_prime():
    # entries are small, so minors stay far below the prime: rank over the
    # prime field must agree with the rational rank
    rng = random.Random(13)
    fp = PrimeField(1000003)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = _random_matrix(rng, rows, cols, lo=-4, hi=4)
        expected = _minor_rank(m.entries, rows, cols)
        assert rank(m) == expected
        mp = Matrix.zero(rows, cols, fp)
        for key, v in m.entries.items():
            mp[key] = fp.of(v)
        assert rank(mp) == expected


def test_prime_field_arithmetic():
    f5 = field_by_name("F5")
    assert f5.of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.mul(3, 4) == 2
    assert f5.inv(4) == 4
    with pytest.raises(ExactLinError):
        PrimeField(6)
    with pytest.raises(ExactLinError):
        f5.of(Fraction(1, 5))


def test_compose_and_apply():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[0, 1], [1, 0]])
    ab = a.compose(b)
    assert ab == from_rows([[2, 1], [4, 3]])
    vec = ab.apply({0: Fraction(1)})
    assert vec == {0: Fraction(2), 1: Fraction(4)}
