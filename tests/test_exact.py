import contextlib
import functools
import hashlib
import random
import signal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from scx import (
    barnette_sphere,
    exact,
    g2,
    g2_one_family,
    g2_two_catalog,
    random_embedding,
    rigidity_matrix,
    skeleton_graph,
    stress_basis,
)
import scx.rigidity as rigidity
from scx.errors import InternalCheckError, PreconditionError
from scx.exact import (
    DEFAULT_PRIME,
    PRIME_TEST_BOUND,
    is_probable_prime,
    rank_mod,
    rank_rational,
    right_nullspace,
    validate_field,
)
from scx.generators import standard_catalog

import oracle
from oracle import rank_sparse


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
    basis = oracle.left_nullspace(m)
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
    # every minor is below the Hadamard bound (6**0.5 * 243)**6, about 2**55,
    # so these ranks mod 2**61 - 1 are the rational ones
    ranks = [rank_mod([r[:j] for r in m], 2**61 - 1) for j in range(len(m[0]) + 1)]
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


@given(kernel_matrices(), st.data())
def test_canonical_basis_of_a_scrambled_kernel_is_right_nullspace(m, data):
    # any basis of ker A, here the canonical one times an invertible
    # integer matrix L U with its rows permuted, gives back the canonical basis
    basis = right_nullspace(m)
    k = len(basis)
    entry, unit = st.integers(min_value=-3, max_value=3), st.sampled_from((-3, -2, -1, 1, 2, 3))
    lower = [[data.draw(entry) if j < i else int(i == j) for j in range(k)] for i in range(k)]
    upper = [
        [data.draw(unit) if i == j else data.draw(entry) if j > i else 0 for j in range(k)]
        for i in range(k)
    ]
    mix = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)] for row in lower]
    mix = data.draw(st.permutations(mix))
    assert rank_rational(mix) == k
    scrambled = [
        [sum(c * v[j] for c, v in zip(row, basis)) for j in range(len(m[0]))] for row in mix
    ]
    assert exact._canonical(scrambled) == basis


def test_canonical_basis_refuses_dependent_vectors():
    assert exact._canonical([]) == []
    assert exact._canonical([(0, 2, 4), (0, 0, -3)]) == [(0, 1, 0), (0, 0, 1)]
    with pytest.raises(InternalCheckError, match="dependent"):
        exact._canonical([(1, 2, 3), (2, 4, 6)])


def _zero_rows_and_columns(m, data):
    """``m`` with up to two zero columns and two zero rows at drawn places."""
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        at = data.draw(st.integers(min_value=0, max_value=len(m[0])))
        m = [row[:at] + [0] + row[at:] for row in m]
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        m.insert(data.draw(st.integers(min_value=0, max_value=len(m))), [0] * len(m[0]))
    return m


@given(kernel_matrices(), st.data())
def test_bareiss_matches_the_full_sweep(m, data):
    # zero rows and columns anywhere, so free columns and the early stop at
    # the last row fall before, between and after the pivots
    m = _zero_rows_and_columns(m, data)
    reduced, pivots = exact._bareiss(m)
    assert (reduced, pivots) == oracle.bareiss(m, reduce_above=False)
    assert pivots == oracle.bareiss(m, reduce_above=True)[1]  # the reduced echelon form's


def test_bareiss_matches_the_full_sweep_on_stress_inputs(monkeypatch):
    # every matrix that each stress basis eliminates: the Gale dual of its
    # embedding, and the stress matrix's equations when some are left
    inputs = []
    original = exact._bareiss
    monkeypatch.setattr(exact, "_bareiss", lambda rows: inputs.append(rows) or original(rows))
    spheres = [g2_two_catalog(4, "octahedral").complex, barnette_sphere().complex]
    spheres += [g2_one_family(5, "cycle", 5).complex, g2_one_family(6, "join", 3).complex]
    counts = []
    for cx in spheres:
        before = len(inputs)
        stress_basis(cx, seed=0)
        counts.append(len(inputs) - before)
    assert all(counts) and sum(counts) == len(inputs) > len(spheres)
    for rows in inputs:
        assert original(rows) == oracle.bareiss(rows, reduce_above=False)


@given(kernel_matrices(), st.data())
def test_right_nullspace_matches_gauss_jordan(m, data):
    m = _zero_rows_and_columns(m, data)
    assert right_nullspace(m) == oracle.gauss_jordan_nullspace(m)


def test_right_nullspace_matches_gauss_jordan_on_stress_inputs(monkeypatch):
    # every matrix the stress bases of Lemma 2.5 take at dmax=7
    inputs = []
    original = exact.right_nullspace
    monkeypatch.setattr(exact, "right_nullspace", lambda rows: inputs.append(rows) or original(rows))
    for entry in standard_catalog(dmax=7):
        cx = entry.complex
        if {"normal-pm", "prime"} <= entry.tags and cx.dim >= 3 and g2(cx) >= 1:
            stress_basis(cx, seed=0)
    assert len(inputs) > 30
    for rows in inputs:
        assert original(rows) == oracle.gauss_jordan_nullspace(rows)


def test_stress_basis_at_the_guard_edge_is_pinned():
    # sha256 of the vectors' repr as the Gauss-Jordan kernel computed them on
    # the largest g2 = 1 cycle join under the stress guard, 210 x 211; the
    # full Gauss-Jordan sweep of tests/oracle.py takes about three times longer
    cx = g2_one_family(4, "cycle", 52).complex
    vectors = stress_basis(cx, seed=0).vectors
    assert len(vectors) == 1 and len(vectors[0]) == 211
    assert hashlib.sha256(repr(vectors).encode()).hexdigest() == (
        "29ae3c39359b4182cc8a77e798c0187ae7e6dc136aceefd9ea62e2502903063c"
    )


def _doubled_pivot(original, i):
    """``_bareiss`` with the entry of its ``i``-th pivot doubled."""

    def bareiss(rows):
        m, pivots = original(rows)
        m[i][pivots[i]] *= 2
        return m, pivots

    return bareiss


def test_back_substitution_checks_its_divisions(monkeypatch):
    # the kernel of [[1, 0, 1], [0, 1, 1]] is spanned by (-1, -1, 1); with the
    # first pivot 2, the first row asks 2 x_0 = -1
    original = exact._bareiss
    monkeypatch.setattr(exact, "_bareiss", _doubled_pivot(original, 0))
    with pytest.raises(InternalCheckError, match="back-substitution"):
        right_nullspace([[1, 0, 1], [0, 1, 1]])
    # a doubled determinant on a stress input is caught by the kernel itself,
    # before stress_basis re-checks equilibrium
    monkeypatch.setattr(exact, "_bareiss", _doubled_pivot(original, -1))
    with pytest.raises(InternalCheckError, match="back-substitution"):
        stress_basis(g2_two_catalog(4, "octahedral").complex, seed=0)


def _columns(m):
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(len(m[0]))]


@given(
    kernel_matrices(),
    st.data(),
    st.sampled_from([1, 1, 2, 6]),  # an even scale leaves no +-1 entry over Q
    st.sampled_from(["rational", 2, 3, 7, DEFAULT_PRIME]),
)
def test_unit_pivot_rank_matches_the_dense_ranks(m, data, scale, field):
    m = _zero_rows_and_columns([[scale * x for x in row] for row in m], data)
    columns = _columns(m)
    before = [dict(c) for c in columns]
    expected = rank_rational(m) if field == "rational" else oracle.rank_gfp(m, field)
    assert rank_sparse(columns, field) == expected
    assert oracle.unit_pivot(columns, field)[0] == expected  # the loop it replaced
    assert columns == before


@given(kernel_matrices(), st.data(), st.sampled_from(["rational", 2, 3]))
def test_unit_pivots_sit_on_a_nonsingular_submatrix(m, data, field):
    # a zero row and a zero column at drawn places; entries such as 2 or 3 are
    # no units over Q and vanish mod 2 or 3
    ncols = len(m[0])
    at = data.draw(st.integers(min_value=0, max_value=ncols))
    m = [row[:at] + [0] + row[at:] for row in m]
    m.insert(data.draw(st.integers(min_value=0, max_value=len(m))), [0] * (ncols + 1))
    rank, pivots = exact._reduce(_columns(m), field)
    rows, cols = list(pivots.values()), list(pivots)
    assert cols == sorted(cols) and len(set(rows)) == len(rows)
    assert oracle.matrix_rank([[m[r][c] for c in cols] for r in rows], field) == len(pivots)
    assert rank == oracle.matrix_rank(m, field)
    assert len(pivots) == rank


@given(kernel_matrices(), st.data(), st.sampled_from(["rational", 3, DEFAULT_PRIME]))
def test_a_limited_reduction_stops_at_its_last_pivot(m, data, field):
    # the first `limit` pivots of the whole reduction, from the columns up to
    # the last of them and no further
    m = _zero_rows_and_columns(m, data)
    columns = _columns(m)
    rank, pivots = exact._reduce(columns, field)
    limit = data.draw(st.integers(min_value=1, max_value=rank + 1))
    read = []
    cut, kept = exact._reduce((read.append(c) or c for c in columns), field, limit)
    assert list(kept.items()) == list(pivots.items())[:limit]
    assert cut == min(limit, rank)
    assert len(read) == (list(pivots)[limit - 1] + 1 if limit <= rank else len(columns))


def test_rank_mod_of_rigidity_matrices_matches_the_oracle():
    pseudomanifolds = [e.complex for e in standard_catalog(dmax=5) if "normal-pm" in e.tags]
    assert len(pseudomanifolds) > 20
    for cx in pseudomanifolds:
        g = skeleton_graph(cx)
        for seed in range(3):
            rows = rigidity_matrix(g, random_embedding(g, cx.dim + 1, seed)).entries
            assert rank_mod(rows, DEFAULT_PRIME) == oracle.rank_gfp(rows, DEFAULT_PRIME)
            # the first columns independent mod p, the ones stress_basis keeps,
            # as the unit-pivot loop named them
            columns = _columns(rows)
            _, pivots = exact._reduce(columns, DEFAULT_PRIME)
            assert list(pivots) == list(oracle.unit_pivot(columns, DEFAULT_PRIME)[1])


def test_rigidity_ranks_and_pivots_mod_the_default_prime_match_mod_2_61_minus_1(monkeypatch):
    # every trial that g2_via_rigidity and stress_basis may sample at seeds 0-2,
    # with the pivots its reduction names
    original, results = exact._reduce, []
    monkeypatch.setattr(
        exact, "_reduce", lambda *a, **k: results.append(original(*a, **k)) or results[-1]
    )

    def sampled(g, d, seed, p):
        del results[:]
        list(rigidity._samples(g, d, 3, seed, p))
        return [(rank, list(pivots)) for rank, pivots in results]

    pseudomanifolds = [e.complex for e in standard_catalog(dmax=5) if "normal-pm" in e.tags]
    assert len(pseudomanifolds) > 20
    for cx in pseudomanifolds:
        g, d = skeleton_graph(cx), cx.dim + 1
        for seed in range(3):
            assert sampled(g, d, seed, DEFAULT_PRIME) == sampled(g, d, seed, 2**61 - 1)


@given(kernel_matrices(), st.data(), st.sampled_from([2, 3, 7, DEFAULT_PRIME]))
def test_rank_mod_with_a_zero_column_and_a_row_vanishing_mod_p(m, data, p):
    ncols = len(m[0])
    at = data.draw(st.integers(min_value=0, max_value=ncols))
    m = [row[:at] + [0] + row[at:] for row in m]
    small = st.integers(min_value=-3, max_value=3)
    vanishing = data.draw(st.lists(small, min_size=ncols + 1, max_size=ncols + 1))
    m.insert(data.draw(st.integers(min_value=0, max_value=len(m))), [p * x for x in vanishing])
    assert rank_mod(m, p) == oracle.rank_gfp(m, p)


@contextlib.contextmanager
def _alarm(seconds):
    """Raise ``TimeoutError`` in the block after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_unit_pivot_rank_hands_columns_without_units_to_bareiss():
    # columns without a +-1 entry are reduced over Q too, scaled by the
    # earlier pivot's lowest entry and divided by their content; a step that
    # does not scale never clears the lowest row, and one that does not
    # divide lets the entries grow past the alarm
    rng = random.Random(0)
    even = [[2 * rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
    expected = rank_rational(even)
    with _alarm(2):
        assert rank_sparse([{0: 2, 1: 4}, {0: 4, 1: 2}]) == 2
        assert rank_sparse([{0: 1, 1: 2}, {0: 3, 1: 2, 2: 4}]) == 2
        assert rank_sparse([{0: 1, 1: 2}, {0: 3, 1: 2, 2: 4}], 5) == 2
        assert rank_sparse([{0: 2, 1: 4}, {0: 4, 1: 2}], 2) == 0
        assert rank_sparse([]) == 0
        # the first column's lowest entry, 2, is no unit over Q
        assert rank_sparse([{0: 1, 1: 2}, {0: 1, 1: 4}]) == 2
        assert rank_sparse([{0: 1, 1: 2}, {0: 1, 1: 4}], 2) == 1
        assert rank_sparse(_columns(even)) == expected
    assert expected == 30


def test_stress_basis_of_octahedral_sphere_is_pinned(monkeypatch):
    # sha256 of the vectors' repr as the earlier Fraction Gauss-Jordan kernel
    # computed them, on coordinates from [-2**31, 2**31] as the default bound
    # then was; the fraction-free kernel must give the same basis
    wide = functools.partial(rigidity.random_embedding, bound=2**31)
    monkeypatch.setattr(rigidity, "random_embedding", wide)
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


@pytest.mark.parametrize("n", [2021, 3_215_031_751])
def test_miller_rabin_refuses_a_composite_with_no_small_factor(n):
    # 43 * 47, and a strong pseudoprime to the bases 2, 3, 5 and 7: no trial
    # division by 2..41 finds a factor, so a Miller-Rabin round must
    assert all(n % p for p in range(2, 42))
    assert not is_probable_prime(n)
    with pytest.raises(PreconditionError, match=f"^{n} is not prime$"):
        validate_field(n)


def test_a_modulus_past_the_prime_test_bound_is_rejected():
    # the bound is composite, yet Miller-Rabin on the bases 2..41 passes it
    assert PRIME_TEST_BOUND == 1_287_836_182_261 * 2_575_672_364_521
    assert is_probable_prime(PRIME_TEST_BOUND)
    with pytest.raises(PreconditionError, match="not below"):
        validate_field(PRIME_TEST_BOUND)
    with pytest.raises(PreconditionError, match="not below"):
        rank_sparse([{0: 1_287_836_182_261, 1: 1}, {0: 1, 1: 5}], PRIME_TEST_BOUND)


def test_rank_entry_points_validate_the_field():
    for call in (
        lambda: rank_mod([[2]], 4),
        lambda: rank_mod([[3, 1], [1, 3]], 4),
        lambda: rank_sparse([{0: 1}], "Q"),
    ):
        with pytest.raises(PreconditionError):
            call()


def test_default_prime_is_prime():
    # one 30-bit CPython digit per residue, and the sampled coordinates stay
    # distinct mod p, as Schwartz-Zippel over GF(p) needs
    assert is_probable_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME < 2**30
    assert DEFAULT_PRIME > 2 * rigidity.DEFAULT_COORD_BOUND + 1


def test_matrix_rank_dispatch():
    m = [[1, 1], [1, 0]]
    assert oracle.matrix_rank(m) == 2
    assert oracle.matrix_rank(m, 2) == 2
    assert oracle.matrix_rank([[2, 0], [0, 2]], 2) == 0  # mod 2 the matrix vanishes
