import hashlib
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from scx import exact, g2_two_catalog, stress_basis
from scx.errors import PreconditionError
from scx.exact import (
    DEFAULT_PRIME,
    is_probable_prime,
    left_nullspace,
    matrix_rank,
    rank_mod,
    rank_rational,
    rank_unit_pivot,
    right_nullspace,
    validate_field,
)


def test_rank_simple():
    assert rank_rational([[1, 0], [0, 1]]) == 2
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([]) == 0


def test_rank_needs_pivoting():
    m = [[0, 1, 2], [3, 0, 1], [3, 1, 3]]
    assert rank_rational(m) == 2
    assert rank_mod(m, DEFAULT_PRIME) == 2


small_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda m: len({len(r) for r in m}) == 1)


@given(small_matrices)
def test_rational_and_modular_ranks_agree(m):
    # entries are tiny compared to the modulus, so no accidental rank drop
    assert rank_rational(m) == rank_mod(m, DEFAULT_PRIME)


@given(small_matrices)
def test_left_nullspace_annihilates(m):
    basis = left_nullspace(m)
    nrows, ncols = len(m), len(m[0])
    assert len(basis) == nrows - rank_rational(m)
    for w in basis:
        assert len(w) == nrows
        for j in range(ncols):
            assert sum(Fraction(w[i]) * m[i][j] for i in range(nrows)) == 0


def test_right_nullspace_basis_is_primitive():
    basis = right_nullspace([[2, 4, 6]])
    assert len(basis) == 2
    for vec in basis:
        assert all(isinstance(x, int) for x in vec)
        assert next(x for x in vec if x) > 0


@st.composite
def kernel_matrices(draw):
    """Integer matrices up to 6x8; half are low-rank products A B, whose
    zero and dependent columns put free columns in the middle."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))

    def block(r, c):
        return draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))

    if not draw(st.booleans()):
        return block(nrows, ncols)
    k = draw(st.integers(min_value=1, max_value=3))
    a, b = block(nrows, k), block(k, ncols)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _free_columns(m):
    # every minor is below the Hadamard bound (6**0.5 * 243)**6 < DEFAULT_PRIME,
    # so these modular ranks are the rational ones
    ranks = [rank_mod([r[:j] for r in m], DEFAULT_PRIME) for j in range(len(m[0]) + 1)]
    return [j for j in range(len(m[0])) if ranks[j + 1] == ranks[j]]


@given(kernel_matrices())
def test_right_nullspace_is_the_canonical_basis(m):
    ncols = len(m[0])
    free = _free_columns(m)
    basis = right_nullspace(m)
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        assert len(v) == ncols and all(isinstance(x, int) for x in v)
        assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in m)
        assert v[fc] != 0
        assert all(v[j] == 0 for j in free if j != fc)
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0


def _columns(m):
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(len(m[0]))]


@given(
    kernel_matrices(),
    st.sampled_from([1, 1, 2, 6]),  # an even scale leaves no +-1 entry over Q
    st.sampled_from(["rational", 2, 3, 7, DEFAULT_PRIME]),
)
def test_unit_pivot_rank_matches_the_dense_ranks(m, scale, field):
    m = [[scale * x for x in row] for row in m]
    columns = _columns(m)
    before = [dict(c) for c in columns]
    expected = rank_rational(m) if field == "rational" else rank_mod(m, field)
    assert rank_unit_pivot(columns, field) == expected
    assert columns == before


def test_unit_pivot_rank_hands_columns_without_units_to_bareiss(monkeypatch):
    calls = []
    original = exact.rank_rational
    monkeypatch.setattr(exact, "rank_rational", lambda rows: calls.append(rows) or original(rows))
    assert rank_unit_pivot([{0: 2, 1: 4}, {0: 4, 1: 2}]) == 2
    assert calls == [[[2, 4], [4, 2]]]
    # row 0 is pivoted on the unit of the first column; the second column,
    # reduced to {1: -4, 2: 4}, goes to Bareiss on rows 1 and 2 only
    calls.clear()
    assert rank_unit_pivot([{0: 1, 1: 2}, {0: 3, 1: 2, 2: 4}]) == 2
    assert calls == [[[-4], [4]]]
    calls.clear()
    assert rank_unit_pivot([{0: 1, 1: 2}, {0: 3, 1: 2, 2: 4}], 5) == 2
    assert rank_unit_pivot([{0: 2, 1: 4}, {0: 4, 1: 2}], 2) == 0
    assert rank_unit_pivot([]) == 0
    assert calls == []  # every nonzero entry is a unit over GF(p)


def test_stress_basis_of_octahedral_sphere_is_pinned():
    # sha256 of the vectors' repr as the earlier Fraction Gauss-Jordan kernel
    # computed them; the fraction-free kernel must give the same basis
    vectors = stress_basis(g2_two_catalog(4, "octahedral").complex, seed=0).vectors
    assert len(vectors) == 2 and all(len(v) == 24 for v in vectors)
    assert hashlib.sha256(repr(vectors).encode()).hexdigest() == (
        "b6a8c878c27269db32fa1af2dc777230a577b49cb5cb47f3e06f7ae5b4ba5fdc"
    )


def test_validate_field():
    assert validate_field("rational") == "rational"
    assert validate_field(5) == 5
    with pytest.raises(PreconditionError):
        validate_field(6)
    with pytest.raises(PreconditionError):
        validate_field("float")


def test_default_prime_is_prime():
    assert is_probable_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME > 2**60


def test_matrix_rank_dispatch():
    m = [[1, 1], [1, 0]]
    assert matrix_rank(m) == 2
    assert matrix_rank(m, 2) == 2
    assert matrix_rank([[2, 0], [0, 2]], 2) == 0  # mod 2 the matrix vanishes
