"""Decomposition construction: indicator matrices, class matrices, ternary
factorizations and the reconstruction identity."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laurentfft import (
    FactoredTernary,
    LaurentPlan,
    PlanConstructionError,
    Stream,
    UnsupportedLengthError,
    build_M,
    build_plan,
    chi,
    congruence_class,
    count_ops,
    dft_matrix,
    echelon_factor,
    exponent_matrix,
    format_plan,
    reconstruct,
)
from laurentfft import plan as plan_module
from laurentfft.plan import RowTable, _independent_columns

RAMP2 = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7], dtype=float)


def _all_plan_matrices(plan, factor_product):
    mats = []
    for s in plan.streams:
        mats += [factor_product(s.factor), s.factor.combiner, s.factor.reduced_rows]
    return mats


class TestExponentAndChi:
    def test_exponent_matrix_symmetric_with_zero_border(self):
        e = exponent_matrix(12)
        assert (e == e.T).all()
        assert not e[0].any() and not e[:, 0].any()

    def test_chi_0_order_4(self):
        m = chi(0, 4)
        expected = np.zeros((4, 4), dtype=int)
        expected[0, :] = 1
        expected[:, 0] = 1
        expected[2, 2] = 1
        assert (m == expected).all()

    def test_partition_of_ones(self):
        for n in (4, 8, 12, 16, 20):
            total = sum(chi(l, n) for l in range(n))
            assert (total == 1).all()

    def test_weighted_chi_sum_is_dft_matrix(self):
        n = 16
        acc = np.zeros((n, n), dtype=complex)
        for l in range(n):
            acc += np.exp(-2j * np.pi * l / n) * chi(l, n)
        assert np.abs(acc - dft_matrix(n)).max() < 1e-12

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError):
            chi(16, 16)
        with pytest.raises(ValueError):
            chi(-1, 16)


# Each non-integer argument was taken at face value: exponent_matrix(2.5) and
# dft_matrix(2.5) gave 3 x 3 matrices, chi(1.5, 4) all zeros,
# congruence_class(1.5, 16) an empty set, build_M(1.5, 16) an IndexError.
@pytest.mark.parametrize("call, message", [
    (lambda: exponent_matrix(2.5), "order N must be an integer >= 1, got 2.5"),
    (lambda: exponent_matrix("4"), "order N must be an integer >= 1, got '4'"),
    (lambda: exponent_matrix(0), "order N must be an integer >= 1, got 0"),
    (lambda: dft_matrix(2.5), "transform length N must be an integer >= 1, got 2.5"),
    (lambda: dft_matrix("4"), "transform length N must be an integer >= 1, got '4'"),
    (lambda: dft_matrix(0), "transform length N must be an integer >= 1, got 0"),
    (lambda: chi(1.5, 4), "class index l must be an integer in [0, 3], got 1.5"),
    (lambda: chi(16, 16), "class index l must be an integer in [0, 15], got 16"),
    (lambda: chi(-1, 16), "class index l must be an integer in [0, 15], got -1"),
    (lambda: chi(0, 2.5), "order N must be an integer >= 1, got 2.5"),
    (lambda: congruence_class(1.5, 16), "label m must be an integer, got 1.5"),
    (lambda: congruence_class("1", 16), "label m must be an integer, got '1'"),
    (lambda: build_M(1.5, 16), "label m must be an integer, got 1.5"),
    (lambda: build_M(None, 16), "label m must be an integer, got None"),
], ids=["exponent-float", "exponent-str", "exponent-0", "dft-float", "dft-str", "dft-0",
        "chi-float-l", "chi-l-N", "chi-l-negative", "chi-float-N", "class-float", "class-str",
        "build_M-float", "build_M-None"])
def test_paper_definitions_refuse_non_integers(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_paper_definitions_take_numpy_integers():
    n, m = np.int64(16), np.int32(1)
    assert np.array_equal(exponent_matrix(n), exponent_matrix(16))
    assert np.abs(dft_matrix(np.uint8(12)) - dft_matrix(12)).max() == 0
    assert np.array_equal(chi(np.int16(5), n), chi(5, 16))
    classes = congruence_class(m, n)
    assert classes == {1, 5, 9, 13} and all(type(l) is int for l in classes)
    assert np.array_equal(build_M(m, n), build_M(1, 16))
    assert np.array_equal(build_M(-m, n), build_M(-1, 16))


class TestCongruenceClass:
    def test_known_classes(self):
        assert congruence_class(1, 16) == {1, 5, 9, 13}
        assert congruence_class(-1, 16) == {3, 7, 11, 15}
        assert congruence_class(0, 8) == {0, 2, 4, 6}

    def test_class_size_always_four(self):
        for n in (4, 12, 16, 28):
            for m in range(-(n // 8), n // 4):
                assert len(congruence_class(m, n)) == 4

    def test_unsupported_length(self):
        with pytest.raises(UnsupportedLengthError):
            congruence_class(0, 6)


class TestBuildM:
    def test_m0_order_16_entries(self):
        m = build_M(0, 16)
        e = exponent_matrix(16)
        assert (m[e == 0] == 1).all()
        assert (m[e == 4] == -1j).all()
        assert (m[e == 8] == -1).all()
        assert (m[e == 12] == 1j).all()
        # positions outside class 0 carry nothing
        outside = ~np.isin(e, (0, 4, 8, 12))
        assert not m[outside].any()

    def test_m0_row2_applied_to_ramp(self):
        m = build_M(0, 16)
        value = m[2] @ RAMP2
        assert value == -8 + 8j

    def test_entries_are_units(self):
        for n in (8, 16, 20):
            for label in range(-(n // 8), n // 4):
                g = build_M(label, n)
                assert np.isin(np.abs(g), (0, 1)).all()

    def test_signed_label_differs_from_shifted_label_by_unit(self):
        # M at label N/4 - m equals j * M at label -m: same support, rotated units
        for n, m in ((16, 1), (24, 2), (32, 3)):
            neg = build_M(-m, n)
            shifted = build_M(n // 4 - m, n)
            assert (shifted == 1j * neg).all()

    def test_resolution_of_identity(self):
        # master check that the class/indicator definitions are the right ones
        for n in (4, 8, 12, 16, 20, 24, 28, 32):
            acc = np.zeros((n, n), dtype=complex)
            for m in range(n // 4):
                acc += np.exp(-2j * np.pi * m / n) * build_M(m, n)
            assert np.abs(acc - dft_matrix(n)).max() < 1e-12


class TestEchelonFactor:
    def test_zero_matrix(self, rank_gauss, factor_product):
        for rows, cols in ((5, 5), (0, 5), (5, 0)):
            f = echelon_factor(np.zeros((rows, cols), dtype=int))
            assert f.rank == 0 and f.optimal
            assert f.combiner.shape == (rows, 0) and f.reduced_rows.shape == (0, cols)
            assert factor_product(f).shape == (rows, cols) and (factor_product(f) == 0).all()
            assert rank_gauss(f.combiner) == rank_gauss(f.reduced_rows) == 0

    def test_rank_one_repeated_rows(self, factor_product):
        pattern = np.array([1, 0, -1, 1])
        t = np.tile(pattern, (4, 1))
        f = echelon_factor(t)
        assert f.rank == 1 and f.optimal
        assert (f.reduced_rows[0] == pattern).all()
        assert (f.combiner == 1).all()
        assert (factor_product(f) == t).all()

    def test_non_ternary_rref_falls_back_with_flag(self, factor_product):
        # rref of this matrix contains +-1/2: its three distinct columns are
        # dependent, so grouping keeps all three and flags the factorization
        t = np.array([[1, 1, 0], [1, -1, 1]])
        f = echelon_factor(t)
        assert not f.optimal
        assert (factor_product(f) == t).all()
        assert np.isin(f.reduced_rows, (-1, 0, 1)).all()
        assert np.isin(f.combiner, (-1, 0, 1)).all()

    def test_non_ternary_input_rejected(self):
        # a cast to integers before the test would make the second one ternary
        for bad in ([[2, 0], [0, 1]], [[0.5, 1.0], [1.7, -1.2]], [[1.0, np.nan]],
                    [1, 0, -1], np.zeros((2, 2, 2))):
            with pytest.raises(PlanConstructionError):
                echelon_factor(np.array(bad))

    # 1j warned ComplexWarning before the refusal; '1' escaped as numpy's
    # UFuncTypeError and None as TypeError
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [[[1j]], [[1 + 0j, 0]], [["1"]], [[None]], [[1, None]],
                                     [[b"\x01"]]],
                             ids=["complex", "complex-real", "str", "none", "object", "bytes"])
    def test_non_real_entries_refused(self, bad):
        with pytest.raises(PlanConstructionError, match=r"^matrix entries escaped \{-1, 0, \+1\}$"):
            echelon_factor(bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("good", [[[True, False]], [[1, -1]], [[1.0, -0.0]],
                                      np.array([[1, 0]], dtype=np.uint8)],
                             ids=["bool", "int", "float", "uint8"])
    def test_bool_integer_and_float_entries_factor(self, good, factor_product):
        assert (factor_product(echelon_factor(good)) == np.asarray(good)).all()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_non_matrix_input_names_its_shape(self, shape):
        with pytest.raises(PlanConstructionError,
                           match=rf"expected a 2-D matrix, got shape {re.escape(str(shape))}"):
            echelon_factor(np.zeros(shape, dtype=int))

    def test_rank_sum_order_16_is_twelve(self, rank_gauss, factor_product):
        plan = build_plan(16)
        total = 0
        for s in plan.streams:
            if s.value is not None:
                assert s.factor.optimal
                assert s.factor.rank == rank_gauss(factor_product(s.factor))
                total += s.factor.rank
        assert total == 12

    def test_factor_rank_matches_oracle_generally(self, rank_gauss, factor_product):
        rng = np.random.default_rng(21)
        mats = [rng.integers(-1, 2, size=(6, 8)) for _ in range(50)]
        # a few random columns repeated with random signs: grouping is optimal
        # whenever the distinct columns are independent
        for _ in range(50):
            basis = rng.integers(-1, 2, size=(8, rng.integers(1, 5)))
            pick = rng.integers(0, basis.shape[1], size=10)
            mats.append(basis[:, pick] * rng.choice((-1, 1), size=10))
        mats.append(np.array([[1, 0, 1], [0, 1, 1]]))
        for t in mats:
            f = echelon_factor(t)
            assert (factor_product(f) == t).all()
            assert f.optimal == (f.rank == rank_gauss(t))
            assert f.rank >= rank_gauss(t)
        assert any(echelon_factor(t).optimal for t in mats)
        assert not echelon_factor(mats[-1]).optimal

    def test_plan_factors_are_reduced_row_echelon(self, rank_gauss, factor_product):
        # the rref is unique, so these factors are those of an exact rref route
        for n in range(4, 65, 4):
            for s in build_plan(n).streams:
                r = s.factor.reduced_rows
                assert np.isin(r, (-1, 0, 1)).all()
                assert s.factor.rank == rank_gauss(factor_product(s.factor))
                pivots = [int(np.flatnonzero(row)[0]) for row in r]
                assert pivots == sorted(pivots)
                assert (r[:, pivots] == np.eye(len(pivots), dtype=int)).all()


class TestDerivedFactorAttributes:
    """A factor stores its two nonzero tables and T's width only: rank is the
    reduced table's row count, the two matrices are views built from the
    tables on each read, and optimal runs the independence test on first
    read, then is cached."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counting(mat):
            made.append(mat)
            return _independent_columns(mat)

        monkeypatch.setattr(plan_module, "_independent_columns", counting)
        return made

    def test_only_the_factors_are_fields(self):
        names = [f.name for f in dataclasses.fields(FactoredTernary)]
        assert names == ["reduced_table", "combiner_table", "width"]

    def test_factors_are_stored_as_read_only_tables(self):
        # each factor is held once, as 1-D read-only tables: no 2-D array is
        # stored, and each read of a matrix builds a new read-only int8 view
        for n in [*range(4, 129, 4), 256]:
            for s in build_plan(n).streams:
                f = s.factor
                assert [type(v) for v in vars(f).values()] == [RowTable, RowTable, int]
                for table in (f.reduced_table, f.combiner_table):
                    assert type(table.nrows) is int, (n, s.label)
                    for a in table[:3]:
                        assert a.ndim == 1 and not a.flags.writeable, (n, s.label)
                assert f.combiner_table.nrows == n and f.width == n, (n, s.label)
                for view in ("combiner", "reduced_rows"):
                    mat = getattr(f, view)
                    assert mat.dtype == np.int8 and not mat.flags.writeable, (n, s.label)
                    assert mat is not getattr(f, view), (n, s.label)

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_build_plan_runs_no_independence_test(self, calls, n):
        build_plan(n)
        assert calls == []

    def test_optimal_is_computed_once_per_stream(self, calls):
        plan = build_plan(64)
        assert plan.optimal
        assert len(calls) == len(plan.streams)
        assert all(np.array_equal(c, s.factor.combiner) for c, s in zip(calls, plan.streams))
        assert plan.optimal and all(s.factor.optimal for s in plan.streams)
        assert len(calls) == len(plan.streams)

    def test_rank_is_the_inner_dimension(self):
        for n in range(4, 65, 4):
            for s in build_plan(n).streams:
                f = s.factor
                assert f.rank == f.combiner.shape[1] == f.reduced_rows.shape[0], (n, s.label)

    def test_dependent_columns_read_non_optimal(self):
        f = echelon_factor(np.array([[1, 0, 1], [0, 1, 1]]))
        assert f.rank == 3 and not f.optimal
        # the same matrix in a padded plan: the dump marks it, the plan reads non-optimal
        t = np.zeros((16, 16), dtype=int)
        t[:2, :3] = [[1, 0, 1], [0, 1, 1]]
        dependent = Stream("dep", 0.5, echelon_factor(t), "im", -1)
        padded = LaurentPlan(16, build_plan(16).streams + (dependent,))
        assert not padded.optimal
        text = format_plan(padded)
        assert text.count("[non-optimal factorization]") == 1
        assert "  im path (subtracted) rank 3  [non-optimal factorization]" in text


_INDEPENDENCE_CASES = [
    # peeling alone: row 0 peels column 0, then row 1 column 1, then column 2
    ("peeled", [[1, 0, 0], [1, 1, 0], [-1, 1, 1]], True),
    # every row has two nonzeros, so nothing peels; column 2 = column 0 + column 1
    ("dependent", [[1, 0, 1], [0, 1, 1]], False),
    # rows 3 and 4 peel columns 3 and 4; column 2 = column 0 - column 1 remains
    ("dependent-core", [[1, 0, 1, 1, 0], [0, 1, -1, 0, 1], [1, 1, 0, 1, 1],
                        [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], False),
    # row 3 peels column 3; the 3 x 3 core left has determinant 2
    ("independent-core", [[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1], [0, 0, 0, 1]], True),
    # full rank (determinant about 1.09e9): elimination modulo the prime is
    # exact only on integers, and a float64 copy of the entries must say the same
    ("random-24", np.random.default_rng(1).integers(-1, 2, (24, 24)).tolist(), True),
]


@st.composite
def _sparse_ternary(draw):
    """A random sparse ternary matrix.  In about half of them one column is
    replaced by another times +-1, so their columns are dependent by
    construction."""
    rows = draw(st.integers(1, 16))
    cols = draw(st.integers(1, rows + 2))
    density = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.integers(-1, 2, (rows, cols)) * (rng.random((rows, cols)) < density)
    if cols > 1 and draw(st.booleans()):
        i, k = rng.choice(cols, 2, replace=False)
        mat[:, k] = rng.choice((-1, 1)) * mat[:, i]
    return mat


class TestIndependentColumns:
    @pytest.mark.parametrize("mat, independent", [
        pytest.param(np.array(mat, dtype=dtype), independent,
                     id=name if dtype is np.int64 else f"{name}-float64")
        for dtype in (np.int64, np.float64) for name, mat, independent in _INDEPENDENCE_CASES
    ])
    def test_against_rank_oracle(self, rank_gauss, mat, independent):
        assert _independent_columns(mat) == independent
        assert independent == (rank_gauss(mat) == mat.shape[1])

    @settings(max_examples=300, deadline=None)
    @given(_sparse_ternary())
    def test_sparse_matrices_against_rank_oracle(self, rank_gauss, mat):
        independent = rank_gauss(mat) == mat.shape[1]
        assert _independent_columns(mat) == independent
        assert _independent_columns(mat.astype(np.float64)) == independent


class TestBuildPlan:
    def test_order_16_structure(self):
        plan = build_plan(16)
        labels = [s.label for s in plan.streams]
        assert labels == ["unit", "unit", "cos(2*pi*1/16)", "cos(2*pi*1/16)",
                          "sin(2*pi*1/16)", "sin(2*pi*1/16)", "sqrt(2)/2", "sqrt(2)/2"]
        assert [s.dest for s in plan.streams] == ["re", "im"] * 4
        values = [s.value for s in plan.streams]
        assert values[:2] == [None, None]
        assert values[2] == values[3] == pytest.approx(math.cos(math.pi / 8), abs=1e-15)
        assert values[4] == values[5] == pytest.approx(math.sin(math.pi / 8), abs=1e-15)
        assert values[6] == values[7] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        signs = [s.sign for s in plan.streams]
        assert signs == [1, 1, 1, 1, 1, -1, 1, 1]

    def test_order_4_is_unit_only_and_exact(self):
        plan = build_plan(4)
        assert [(s.value, s.dest) for s in plan.streams] == [(None, "re"), (None, "im")]
        rec = reconstruct(plan)
        assert np.array_equal(rec, dft_matrix(4).round())  # entries are +-1, +-j

    def test_order_12_has_no_middle_term(self):
        plan = build_plan(12)
        assert [s.label for s in plan.streams if s.value is not None] == (
            ["cos(2*pi*1/12)"] * 2 + ["sin(2*pi*1/12)"] * 2)
        assert np.abs(reconstruct(plan) - dft_matrix(12)).max() < 1e-12

    def test_middle_term_present_iff_divisible_by_8(self, factor_product):
        # the middle term is class m = N/8: w**(N/8) = (1 - j) * sqrt(2)/2
        middle = [s for s in build_plan(24).streams if s.label == "sqrt(2)/2"]
        assert [(s.dest, s.sign) for s in middle] == [("re", 1), ("im", 1)]
        mid = build_M(3, 24)
        assert (factor_product(middle[0].factor) == mid.real + mid.imag).all()
        assert (factor_product(middle[1].factor) == mid.imag - mid.real).all()
        assert not any(s.label == "sqrt(2)/2" for s in build_plan(20).streams)

    def test_unsupported_lengths(self):
        for bad in (10, 6, 2, 0, -4, 15):
            with pytest.raises(UnsupportedLengthError, match=r"N ≡ 0 \(mod 4\)"):
                build_plan(bad)

    def test_non_integral_lengths_rejected(self):
        # a float N fails cleanly and leaves nothing behind that breaks the next build
        for bad in (16.0, 16.5, "16", None):
            with pytest.raises(UnsupportedLengthError, match="must be an integer"):
                build_plan(bad)
        plan = build_plan(np.int64(16))
        assert type(plan.order) is int
        assert format_plan(plan) == format_plan(build_plan(16))

    def test_streams_match_the_paper_definition(self, factor_product):
        # M_m = sum over l in C_m of (-j)**(4*(l - m)/N) chi_l, from chi and
        # congruence_class alone; the exponent is an integer, taken mod 4
        def paper_M(m, n):
            return sum((-1j) ** (4 * (l - m) // n % 4) * chi(l, n)
                       for l in congruence_class(m, n))

        for n in range(4, 129, 4):
            m0 = paper_M(0, n)
            want = [m0.real, m0.imag]
            for m in range(1, (n // 4 - 1) // 2 + 1):
                pos, neg = paper_M(m, n), paper_M(-m, n)
                want += [(pos + neg).real, (pos + neg).imag,
                         (pos - neg).imag, (pos - neg).real]
            if n % 8 == 0:
                mid = paper_M(n // 8, n)
                want += [mid.real + mid.imag, mid.imag - mid.real]
            streams = build_plan(n).streams
            assert len(streams) == len(want), n
            for s, mat in zip(streams, want):
                assert np.array_equal(factor_product(s.factor), mat), (n, s.label, s.dest)

    def test_reconstruction_identity(self):
        for n in (4, 8, 12, 16, 20, 24, 28, 32):
            plan = build_plan(n)
            assert np.abs(reconstruct(plan) - dft_matrix(n)).max() < 1e-12

    def test_reconstruct_is_sum_of_weighted_products(self, factor_product):
        # reconstruct's earlier definition, kept as the oracle: bit for bit equal
        for n in range(4, 65, 4):
            plan = build_plan(n)
            acc = {"re": np.zeros((n, n)), "im": np.zeros((n, n))}
            for s in plan.streams:
                weight = s.sign * (1.0 if s.value is None else s.value)
                acc[s.dest] = acc[s.dest] + weight * factor_product(s.factor)
            assert reconstruct(plan).tobytes() == (acc["re"] + 1j * acc["im"]).tobytes()

    def test_entry_16_1_1(self):
        rec = reconstruct(build_plan(16))
        assert abs(rec[1, 1] - np.exp(-1j * np.pi / 8)) < 1e-12

    def test_ternarity_of_all_plan_matrices(self, factor_product):
        for n in (4, 8, 12, 16, 20, 24, 28, 32):
            for mat in _all_plan_matrices(build_plan(n), factor_product):
                assert np.isin(mat, (-1, 0, 1)).all()

    def test_factorization_exactness_everywhere(self, factor_product):
        for n in (4, 8, 12, 16, 20, 24, 28, 32):
            plan = build_plan(n)
            m0 = build_M(0, n)
            unit_re, unit_im = plan.streams[:2]
            pairs = [(unit_re.factor, m0.real), (unit_im.factor, m0.imag)]
            pairs += [(s.factor, factor_product(s.factor)) for s in plan.streams[2:]]
            for f, mat in pairs:
                assert (f.combiner @ f.reduced_rows == mat).all()

    def test_plans_are_optimal_in_test_range(self):
        for n in (4, 8, 12, 16, 20, 24, 28, 32):
            assert build_plan(n).optimal

    def test_tape_tables_rebuild_the_factors(self):
        # the input and combiner tables hold every nonzero of every stream's
        # factors, row by row with columns increasing, and nothing else
        for n in range(4, 129, 4):
            plan = build_plan(n)
            tape = plan.tape
            starts = np.cumsum([0] + [s.factor.rank for s in plan.streams]).tolist()
            width = starts[-1]
            assert tape.inputs.nrows == len(tape.slots) == width, n
            assert tape.combiners.nrows == len(plan.streams) * n, n
            for table in (tape.inputs, tape.combiners):
                rows, cols = table.rows, table.cols
                assert rows.size == cols.size == table.signs.size, n
                assert (np.diff(rows) >= 0).all() and (rows < table.nrows).all(), n
                assert (np.diff(cols)[np.diff(rows) == 0] > 0).all(), n
                assert np.isin(table.signs, (-1, 1)).all(), n
            inputs = np.zeros((width, n))
            inputs[tape.inputs.rows, tape.inputs.cols] = tape.inputs.signs
            combiners = np.zeros((len(plan.streams) * n, width))
            combiners[tape.combiners.rows, tape.combiners.cols] = tape.combiners.signs
            for k, (s, a, b) in enumerate(zip(plan.streams, starts, starts[1:])):
                f, mine = s.factor, combiners[k * n:(k + 1) * n]
                assert np.array_equal(inputs[a:b], f.reduced_rows), (n, s.label)
                assert np.array_equal(mine[:, a:b], f.combiner), (n, s.label)
                assert not mine[:, :a].any() and not mine[:, b:].any(), (n, s.label)

    def test_tape_rom_slots(self):
        # one ROM slot per intermediate: the stream's distinct constant in
        # order of first appearance, or -1 and a scale of 1.0 on the unit streams
        for n in range(4, 129, 4):
            plan = build_plan(n)
            tape = plan.tape
            values = [s.value for s in plan.streams]
            starts = np.cumsum([0] + [s.factor.rank for s in plan.streams]).tolist()
            assert tape.constants == tuple(dict.fromkeys(v for v in values if v is not None))
            assert all(type(k) is int for k in tape.slots), n
            assert len(tape.slots) == tape.scale.size == starts[-1]
            for s, a, b in zip(plan.streams, starts, starts[1:]):
                slot = -1 if s.value is None else tape.constants.index(s.value)
                assert tape.slots[a:b] == (slot,) * (b - a), (n, s.label)
                assert (tape.scale[a:b] == (1.0 if s.value is None else s.value)).all()

    def test_plan_matrices_are_read_only(self):
        # the storage contract: read-only int8 factors with ternary entries,
        # one nonzero at most per reduced_rows column
        for n in [*range(4, 129, 4), 256]:
            for s in build_plan(n).streams:
                f = s.factor
                for mat in (f.combiner, f.reduced_rows):
                    assert mat.dtype == np.int8 and not mat.flags.writeable, (n, s.label)
                    assert np.isin(mat, (-1, 0, 1)).all(), (n, s.label)
                    with pytest.raises(ValueError):
                        mat[0, 0] = 5
                assert (np.count_nonzero(f.reduced_rows, axis=0) <= 1).all(), (n, s.label)


def _digest(*parts) -> str:
    """The first 16 hex digits of the sha256 of each part's dtype, shape and bytes."""
    h = hashlib.sha256()
    for part in parts:
        a = np.asarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class TestPlanPins:
    """The plans' outputs pinned by value: a reordered row, stream or ROM
    slot, a changed dtype or count moves one of these digests."""

    # N: (inputs table, combiners table, (constants, slots, scale), count_ops)
    TAPES = {
    4: ('bb5c79e764f4fb66', 'ba864dd1a67be42e', '3504385d9aace73f', (0, 8, 0, 4)),
    8: ('dd5526a55a183610', 'dbfe815ddad82e85', '56640fe506b9d496', (2, 28, 8, 8)),
    12: ('5c539a7cfa1a4ca5', '6c24893cb92a6fa1', 'da80f78708469de9', (8, 80, 20, 12)),
    16: ('09e0dc1a7aa9abe8', 'da65552fef79b45d', '080ef30b95b5a1f4', (12, 96, 56, 16)),
    20: ('a1f452699f5a9d47', 'e4a21dbe1d962da8', 'fadaeb0785fcb0fe', (32, 224, 88, 20)),
    24: ('dd8e1350ac66a309', '8e08a007d1cb803b', 'ab18302b65bb259a', (24, 252, 108, 24)),
    28: ('0bf4e711ce54ba8a', 'b903d81195c0325b', 'a597e9e377fd8f79', (72, 448, 204, 28)),
    32: ('d4521abab484a0d2', '30c813c29a744417', '7638af8dbfda5f2b', (54, 340, 280, 32)),
    36: ('20d7c4eca3ca06d9', '6a575f6a87c9429b', '3d23e91065c2c081', (88, 680, 296, 36)),
    40: ('3d7ce5efd417ff0f', '520edf450039c2f1', 'ed3286352aeb6922', (84, 696, 384, 40)),
    44: ('8e07ae0472c7d3d2', '0f56697da2f4a841', '112908af4f0eb8fe', (200, 1136, 580, 44)),
    48: ('1adc43d1a8914a21', '477dc06d3be869cc', 'ae06d1066626b1a4', (88, 824, 508, 48)),
    52: ('d5cc1035372f0a09', '4a22e2c9dbed7075', '3b63a8f6ac094b0a', (288, 1600, 840, 52)),
    56: ('5fedbe5f63d2d32a', '8990bd5a71e328d0', '2523b698f88eb648', (184, 1388, 836, 56)),
    60: ('1451e288fc77a509', 'd442703d582af4ee', '7c26079a89fd7036', (208, 1888, 764, 60)),
    64: ('8d7632a562ee60e9', 'dc5d31535e7ef31f', 'e1f4c637fa491dc6', (224, 1256, 1240, 64)),
    68: ('e4936b99f6ec17e3', '6aeeea9d9e3bc1ad', '99599ed6ed0c15c0', (512, 2768, 1504, 68)),
    72: ('35d73537b32ab0c6', '4ac13f63a9a17b38', '7715184ef11bc8c7', (226, 2096, 1200, 72)),
    76: ('81c640588a6c5a12', 'cbe018ba2a1b991f', 'f78a304d032cab72', (648, 3472, 1908, 76)),
    80: ('6d1c9505f91c9c55', '66742a8e6686c482', '88ef820b47c02dc2', (280, 2256, 1648, 80)),
    84: ('17f6a1980af34518', 'dbf2580d2f730e0b', '0c9ff2c98caa61d1', (448, 3760, 1640, 84)),
    88: ('bd458a769477ae73', 'f26410d9fc1ba327', '0d46fffb5ca5c929', (504, 3516, 2268, 88)),
    92: ('5170a5f7703fe7f6', '64d9ea389cb9f87e', '8835844d5472dbe5', (968, 5120, 2860, 92)),
    96: ('c591d3ca6cfa813d', '3a337d08b0b763dc', '5c0e0eeed2d981b2', (344, 2868, 2204, 96)),
    100: ('e7081e463a5ede5d', '762dc93443dc2aed', '0766e4449e6229d7', (864, 5448, 2928, 100)),
    104: ('89ef41ccbcd73b90', '70eb4400d913af3e', '5da912b0fb893832', (724, 4952, 3248, 104)),
    108: ('8280f47377f202c1', '173d5593a515f730', '5262db57e963cfa0', (816, 5888, 3068, 108)),
    112: ('0246fba21f658de7', 'ce3b99a969e31e0d', '969e3bdeb928e1ac', (600, 4488, 3476, 112)),
    116: ('9cdc5401cd531f97', 'e093a0ab3042b527', '2a1a859e6d3216d3', (1568, 8192, 4648, 116)),
    120: ('862eaea36d24cedc', 'c0cfff1fbabe77cb', '6efc0846fd3cec7b', (528, 5784, 2996, 120)),
    124: ('430453d84e151624', 'df3484fef800f2ed', 'b3f11d79fc423885', (1800, 9376, 5340, 124)),
    128: ('dde7b590f8e2d449', '325d6cb676a18d5d', 'ca4e0a35830eb5c1', (906, 4796, 5208, 128)),
    }
    # sha256 of format_plan's text
    DUMPS = {16: "2cc758f61077eff5", 64: "9db14b97935bfecd"}

    @pytest.mark.parametrize("n", sorted(TAPES))
    def test_tape_and_counts(self, n):
        plan = build_plan(n)
        tape = plan.tape
        assert (_digest(*tape.inputs), _digest(*tape.combiners),
                _digest(tape.constants, tape.slots, tape.scale),
                dataclasses.astuple(count_ops(plan))) == self.TAPES[n]

    @pytest.mark.parametrize("n", sorted(DUMPS))
    def test_dump(self, n):
        text = format_plan(build_plan(n))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == self.DUMPS[n]


class TestFormatPlan:
    def test_dump_contents(self):
        text = format_plan(build_plan(16))
        assert "term cos(2*pi*1/16) = 0.9238795325" in text
        assert "term sin(2*pi*1/16) = 0.3826834324" in text
        assert "term sqrt(2)/2 = 0.7071067812" in text
        assert "rank 2" in text
        # matrices render as sign symbols only
        body = [l for l in text.splitlines() if l.startswith("      ")]
        assert body and all(set(l.strip()) <= {"+", "-", "."} for l in body)

    def test_dump_row_width_matches_order(self):
        text = format_plan(build_plan(8))
        rows = [l.strip() for l in text.splitlines() if l.startswith("    ") and
                set(l.strip()) <= {"+", "-", "."}]
        assert all(len(r) == 8 for r in rows)
