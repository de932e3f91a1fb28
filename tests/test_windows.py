import csv
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mwgft import (
    DegenerateCoverage,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidParameter,
    InvalidSize,
    ParseError,
    WindowFamily,
    check_nondegeneracy,
    default_nondegeneracy_tolerance,
    denominator,
    energy_response,
    load_family_csv,
    mwgft_analyze,
    mwgft_synthesize,
    path_graph,
    rbf_prototype,
    save_family_csv,
    shifted_family,
    sufficient_conditions,
    synthesis_family,
    translation_inner_products,
    uniform_shifts,
)
from mwgft.windows import (
    MAX_WINDOWS,
    ConditionReport,
    SufficientConditions,
    format_condition_report,
    save_condition_report_csv,
)
from helpers import NORM, UNNORM, basis_for, random_basis, random_complex
from oracles import (
    default_tolerance_reference,
    denominator_reference,
    save_condition_report_csv_reference,
    save_family_csv_reference,
)


def indicator_window(size, position):
    samples = np.zeros(size)
    samples[position] = 1.0
    return samples


class TestRbfPrototype:
    def test_unit_at_zero(self):
        assert np.isclose(rbf_prototype(2.0, 0.7)(0.0), 1.0)

    def test_inverse_e_at_scale(self):
        proto = rbf_prototype(3.0, 0.5)
        assert np.isclose(proto(0.5 * 3.0), np.exp(-1.0), rtol=1e-12)

    def test_strictly_positive(self):
        proto = rbf_prototype(2.0, 0.7)
        grid = np.linspace(-5.0, 5.0, 101)
        assert np.all(proto(grid) > 0)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            rbf_prototype(2.0, 0.0)
        with pytest.raises(InvalidParameter):
            rbf_prototype(-1.0, 0.7)
        for l_fac in (np.inf, np.nan):
            with pytest.raises(InvalidParameter, match="l_fac"):
                rbf_prototype(2.0, l_fac)

    def test_tiny_scale_saturates_without_warning(self):
        # (lam / scale)**4 overflows to inf for l_fac below about 1e-77; the
        # kernel's limit there is 0, and numpy's overflow warning leaked to stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rbf_prototype(2.0, 1e-100)([0.0, 1.0]).tolist() == [1.0, 0.0]


class TestShiftsAndFamilies:
    def test_single_shift_at_zero(self):
        assert np.array_equal(uniform_shifts(2.0, 1), [0.0])

    def test_uniform_coverage(self):
        shifts = uniform_shifts(2.0, 3)
        assert np.allclose(shifts, [0.0, 1.0, 2.0])

    def test_count_validation(self):
        with pytest.raises(InvalidParameter):
            uniform_shifts(2.0, 0)

    @pytest.mark.parametrize("build", ["uniform_shifts", "shifted_family", "WindowFamily"])
    def test_window_count_is_capped(self, build):
        basis = basis_for(path_graph(3))
        family = {
            "uniform_shifts": lambda j: uniform_shifts(1.0, j),
            "shifted_family": lambda j: shifted_family(
                rbf_prototype(basis.lambda_max, 0.7), np.zeros(j), basis),
            "WindowFamily": lambda j: WindowFamily.with_same_synthesis(np.ones((j, 3))).analysis,
        }[build]
        assert len(family(MAX_WINDOWS)) == MAX_WINDOWS
        with pytest.raises(InvalidSize, match=f"^window family has {MAX_WINDOWS + 1} windows, "
                                              f"more than the cap of {MAX_WINDOWS}$"):
            family(MAX_WINDOWS + 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_shift_rejected(self, bad):
        basis = basis_for(path_graph(6))
        with pytest.raises(InvalidParameter, match="shifts must be finite"):
            shifted_family(rbf_prototype(basis.lambda_max, 0.7), [0.0, bad], basis)

    def test_single_window_family_is_prototype(self):
        basis = basis_for(path_graph(10))
        proto = rbf_prototype(basis.lambda_max, 0.7)
        family = shifted_family(proto, [0.0], basis)
        assert family.shape == (1, 10)
        assert np.allclose(family[0], proto(basis.eigenvalues))

    def test_family_metadata_and_positivity(self):
        basis = basis_for(path_graph(12))
        proto = rbf_prototype(basis.lambda_max, 0.5)
        family = shifted_family(proto, uniform_shifts(basis.lambda_max, 4), basis)
        assert family.shape == (4, 12) and family.dtype == np.float64
        assert np.all(family > 0)


class TestEnergyResponse:
    def test_flat_single_window(self):
        m = energy_response(np.ones((1, 6)))
        assert np.array_equal(m, np.ones(6))

    def test_two_identical_windows(self, rng):
        samples = random_complex(rng, 8)
        assert np.allclose(energy_response(np.array([samples, samples])),
                           2.0 * np.abs(samples) ** 2)

    def test_rbf_families_cover(self):
        basis = basis_for(path_graph(20), NORM)
        family = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
        )
        assert energy_response(family).min() > 0

    @pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
    def test_floor_is_relative_to_the_peak(self, scale):
        # the 1e-7 scaling (m down to 1.6e-14) used to raise DegenerateCoverage
        basis = basis_for(path_graph(20), NORM)
        family = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
        )
        d = denominator(basis, WindowFamily.with_normalized_synthesis(scale * family))
        assert np.allclose(d, 20.0, rtol=0, atol=1e-10)

    def test_coverage_hole_detected(self):
        with pytest.raises(DegenerateCoverage):
            energy_response([indicator_window(5, 1)])

    def test_empty_family(self):
        with pytest.raises(InvalidParameter):
            energy_response([])


class TestSynthesisFamily:
    def test_constant_window_inverts(self):
        duals = synthesis_family(3.0 * np.ones((1, 7)))
        assert np.allclose(duals[0], np.ones(7) / 3.0)

    def test_partition_identity(self):
        basis = basis_for(path_graph(50), NORM)
        analysis = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
        )
        duals = synthesis_family(analysis)
        total = (duals * analysis).sum(axis=0)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_coverage_failure_propagates(self):
        with pytest.raises(DegenerateCoverage):
            synthesis_family([indicator_window(5, 2)])


class TestWindowFamilyType:
    def test_validation(self):
        # each message names the side
        w5, w6 = np.ones(5), np.ones(6)
        with pytest.raises(DimensionMismatch, match=r"^analysis windows \(1, 5\) and synthesis "
                                                    r"windows \(1, 6\) differ in shape$"):
            WindowFamily([w5], [w6])
        with pytest.raises(DimensionMismatch, match=r"^analysis windows must be a non-empty "
                                                    r"\(J, N\) array, got shape \(0,\)$"):
            WindowFamily((), ())
        with pytest.raises(DimensionMismatch, match=r"got shape \(0, 5\)$"):
            WindowFamily(np.ones((0, 5)), np.ones((0, 5)))
        with pytest.raises(DimensionMismatch, match=r"^synthesis windows must be a non-empty "
                                                    r"\(J, N\) array, got shape \(5,\)$"):
            WindowFamily([w5], w5)
        with pytest.raises(DimensionMismatch, match="^analysis windows differ in length"):
            WindowFamily([w5, w6], [w5, w5])
        with pytest.raises(DimensionMismatch, match="differ in shape$"):
            WindowFamily([w5], [w5, w5])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameter, match="^analysis window 2 has non-finite samples$"):
            WindowFamily([np.ones(2), [1.0, np.nan]], np.ones((2, 2)))
        with pytest.raises(InvalidParameter, match="^synthesis window 1 has non-finite samples$"):
            WindowFamily(np.ones((1, 2)), [[np.inf, 1.0]])

    def test_accessors(self):
        family = WindowFamily.with_same_synthesis([np.ones(5), np.ones(5)])
        assert family.num_windows == 2
        assert family.size == 5

    def test_same_synthesis_keeps_one_array(self):
        analysis = np.ones((2, 5))
        family = WindowFamily.with_same_synthesis(analysis)
        assert family.synthesis is family.analysis
        other = WindowFamily(analysis, analysis.copy())
        assert other.synthesis is not other.analysis

    def test_arrays_are_read_only(self):
        analysis, synthesis = np.ones((2, 5)), np.full((2, 5), 2.0 + 1.0j)
        family = WindowFamily(analysis, synthesis)
        for side in (family.analysis, family.synthesis):
            assert not side.flags.writeable
            with pytest.raises(ValueError):
                side[0, 0] = 7.0
        assert analysis.flags.writeable  # the caller's array keeps its flag

    def test_dtypes(self):
        family = WindowFamily([[1, 2]], [[1.0, 2.0j]])
        assert family.analysis.dtype == np.float64
        assert family.synthesis.dtype == np.complex128


class TestCheckNondegeneracy:
    @pytest.mark.parametrize("stage", ["check_nondegeneracy", "mwgft_analyze"])
    def test_family_of_other_size_rejected(self, stage):
        basis = basis_for(path_graph(8))
        family = WindowFamily.with_same_synthesis([np.ones(6)])
        with pytest.raises(DimensionMismatch, match="^family sampled on 6 eigenvalues, basis has 8$"):
            if stage == "check_nondegeneracy":
                check_nondegeneracy(basis, family)
            else:
                mwgft_analyze(basis, family, np.ones(8))

    def test_single_real_window_with_dc(self, rng):
        basis = random_basis(100)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 1.0
        family = WindowFamily.with_same_synthesis([g_hat])
        report = check_nondegeneracy(basis, family)
        assert report.satisfied
        assert report.min_abs > 0
        assert report.failing_vertices == []

    @pytest.mark.parametrize("kind", [UNNORM, NORM])
    def test_normalized_synthesis_gives_constant_denominator(self, kind):
        basis = random_basis(101, size=14, kind=kind)
        analysis = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
        )
        family = WindowFamily.with_normalized_synthesis(analysis)
        report = check_nondegeneracy(basis, family)
        n = basis.size
        assert np.allclose(report.denominators, n, rtol=1e-8)
        assert report.satisfied

    def test_denominator_sums_pairwise_translation_products(self, rng):
        basis = random_basis(103, size=11)
        family = WindowFamily(
            [random_complex(rng, 11) for _ in range(3)],
            [random_complex(rng, 11) for _ in range(3)],
        )
        pairwise = sum(
            translation_inner_products(basis, g, gam)
            for g, gam in zip(family.analysis, family.synthesis)
        )
        assert np.allclose(denominator(basis, family), pairwise, rtol=1e-12, atol=0)
        assert np.array_equal(check_nondegeneracy(basis, family).denominators,
                              denominator(basis, family))

    def test_disjoint_supports_fail_everywhere(self):
        basis = basis_for(path_graph(6))
        family = WindowFamily([indicator_window(6, 1)], [indicator_window(6, 2)])
        report = check_nondegeneracy(basis, family)
        assert not report.satisfied
        assert report.min_abs <= report.tolerance
        assert report.failing_vertices == list(range(1, 7))

    def test_satisfied_iff_margin(self, rng):
        basis = random_basis(102)
        g_hat = random_complex(rng, basis.size)
        family = WindowFamily.with_same_synthesis([g_hat])
        report = check_nondegeneracy(basis, family)
        assert report.satisfied == (report.min_abs > report.tolerance)

    def test_tolerance_override(self):
        basis = basis_for(path_graph(6))
        family = WindowFamily.with_same_synthesis([np.ones(6)])
        strict = check_nondegeneracy(basis, family, tolerance=1e9)
        assert not strict.satisfied
        assert strict.failing_vertices == list(range(1, 7))

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        # a negative tolerance used to pass d = 0 at every vertex, and a NaN
        # one failed every vertex as if the family were degenerate
        basis = basis_for(path_graph(6))
        family = WindowFamily([indicator_window(6, 1)], [indicator_window(6, 2)])
        with pytest.raises(InvalidParameter, match="nondegeneracy tolerance must be >= 0"):
            check_nondegeneracy(basis, family, tolerance)
        with pytest.raises(InvalidParameter, match="nondegeneracy tolerance must be >= 0"):
            sufficient_conditions(basis, family, tolerance)

    def test_zero_tolerance_accepted(self):
        basis = basis_for(path_graph(6))
        family = WindowFamily.with_same_synthesis([np.ones(6)])
        assert check_nondegeneracy(basis, family, 0.0).satisfied

    def test_report_text(self):
        basis = basis_for(path_graph(4))
        family = WindowFamily([indicator_window(4, 1)], [indicator_window(4, 2)])
        text = format_condition_report(check_nondegeneracy(basis, family))
        assert "satisfied: false" in text
        assert "failing_vertices: 1 2 3 4" in text


class TestSufficientConditions:
    def test_real_self_paired_window(self, rng):
        # gamma = g real with positive DC: squares make the sign condition hold
        basis = random_basis(110)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 0.8
        family = WindowFamily.with_same_synthesis([g_hat])
        conditions = sufficient_conditions(basis, family)
        assert conditions.csuff1
        assert conditions.csuff3
        assert not conditions.csuff1b and not conditions.csuff1c
        assert conditions.implies_nondegenerate

    def test_self_paired_dc_equivalence(self):
        # gamma = g: the DC condition collapses to ghat(0) != 0
        basis = random_basis(111)
        with_dc = np.zeros(basis.size)
        with_dc[0] = 1.0
        family = WindowFamily.with_same_synthesis([with_dc])
        assert sufficient_conditions(basis, family).csuff2
        without_dc = np.zeros(basis.size)
        without_dc[1] = 1.0
        family = WindowFamily.with_same_synthesis([without_dc])
        assert not sufficient_conditions(basis, family).csuff2

    def test_negated_family(self, rng):
        basis = random_basis(112)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 0.8
        family = WindowFamily([g_hat], [-g_hat])
        conditions = sufficient_conditions(basis, family)
        assert conditions.csuff1a and not conditions.csuff1
        assert conditions.implies_nondegenerate

    def test_imaginary_variants(self, rng):
        basis = random_basis(113)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 0.8
        family = WindowFamily([g_hat], [1j * g_hat])
        conditions = sufficient_conditions(basis, family)
        assert conditions.csuff1b and not conditions.csuff1c
        assert conditions.implies_nondegenerate

    def test_scale_invariant_verdicts(self, rng):
        basis = random_basis(114)
        g_hat = np.abs(rng.standard_normal(basis.size)) + 0.1
        family = WindowFamily.with_same_synthesis([g_hat])
        tiny = WindowFamily.with_same_synthesis([1e-8 * g_hat])
        assert sufficient_conditions(basis, family).csuff1
        assert sufficient_conditions(basis, tiny).csuff1

    def test_dc_conditions_do_not_certify_normalized_kind(self):
        basis = random_basis(115, kind=NORM)
        n = basis.size
        g_hat = np.full(n, 1e-6)
        g_hat[0] = 1.0
        gamma_hat = g_hat.copy()
        gamma_hat[1] = -1e-6  # flips one product sign; DC gap stays huge
        family = WindowFamily([g_hat], [gamma_hat])
        conditions = sufficient_conditions(basis, family)
        assert not conditions.csuff1
        assert conditions.csuff2 and conditions.csuff4
        assert not conditions.implies_nondegenerate

    def test_multiwindow_one_strict_pair(self, rng):
        basis = random_basis(116)
        n = basis.size
        strong = np.zeros(n)
        strong[0] = 1.0
        weak = rng.standard_normal(n) * 1e-3
        weak_gamma = weak.copy()  # identical pair: zero spread, zero gap
        family = WindowFamily([strong, weak], [strong, weak_gamma])
        conditions = sufficient_conditions(basis, family)
        assert conditions.csufff5
        assert conditions.implies_nondegenerate


class TestFamilyCsv:
    def test_round_trip_complex(self, tmp_path, rng):
        basis = basis_for(path_graph(8))
        family = WindowFamily([random_complex(rng, 8)], [random_complex(rng, 8)])
        target = tmp_path / "family.csv"
        save_family_csv(target, basis, family)
        loaded, eigenvalues = load_family_csv(target)
        assert np.array_equal(eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.analysis, family.analysis)
        assert np.array_equal(loaded.synthesis, family.synthesis)

    def test_round_trip_real_stays_real(self, tmp_path):
        basis = basis_for(path_graph(6))
        analysis = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 2), basis
        )
        family = WindowFamily.with_normalized_synthesis(analysis)
        target = tmp_path / "family.csv"
        save_family_csv(target, basis, family)
        loaded, _ = load_family_csv(target)
        assert loaded.num_windows == 2
        assert loaded.analysis.dtype == loaded.synthesis.dtype == np.float64
        assert np.array_equal(loaded.analysis, family.analysis)
        assert np.array_equal(loaded.synthesis, family.synthesis)

    def test_each_side_real_when_its_imaginary_columns_are_zero(self, tmp_path, rng):
        # one complex synthesis window makes that side complex; the analysis
        # side, whose imaginary columns are all zero, loads as float64
        basis = basis_for(path_graph(6))
        analysis = rng.standard_normal((2, 6))
        synthesis = np.array([rng.standard_normal(6), random_complex(rng, 6)])
        target = tmp_path / "family.csv"
        save_family_csv(target, basis, WindowFamily(analysis, synthesis))
        loaded, _ = load_family_csv(target)
        assert loaded.analysis.dtype == np.float64
        assert loaded.synthesis.dtype == np.complex128
        assert np.array_equal(loaded.analysis, analysis)
        assert np.array_equal(loaded.synthesis, synthesis)

    def test_bad_header(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_family_csv(target)

    def test_truncated_row(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("ell,eigenvalue,g1_re,g1_im,gamma1_re,gamma1_im\n0,0.0,1.0\n")
        with pytest.raises(ParseError) as err:
            load_family_csv(target)
        assert err.value.line == 2

    @pytest.mark.parametrize("case", ["real", "complex"])
    def test_bytes_match_reference(self, tmp_path, rng, case):
        basis = basis_for(path_graph(7))
        if case == "real":
            analysis = shifted_family(
                rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
            )
            family = WindowFamily.with_normalized_synthesis(analysis)
        else:
            family = WindowFamily(
                [random_complex(rng, 7), rng.standard_normal(7)],
                [random_complex(rng, 7), -0.0 * np.ones(7)],
            )
        target, expected = tmp_path / "family.csv", tmp_path / "oracle.csv"
        save_family_csv(target, basis, family)
        save_family_csv_reference(expected, basis, family)
        assert target.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "rows, line",
        [
            pytest.param(["0,0.0,1.0,0.0,1.0,0.0", "0,1.0,1.0,0.0,1.0,0.0"], 3, id="repeated-ell"),
            pytest.param(["7,0.0,1.0,0.0,1.0,0.0", "7,1.0,1.0,0.0,1.0,0.0"], 2, id="ell-7-7"),
            pytest.param(["0,0.0,1.0,0.0,1.0,0.0", "1,1.0,nan,0.0,1.0,0.0"], 3, id="nan"),
            pytest.param(["0,0.0,1.0,inf,1.0,0.0", "1,1.0,1.0,0.0,1.0,0.0"], 2, id="inf"),
            pytest.param(["0,0.0,1.0,0.0,1.0,0.0,9"], 2, id="extra-field"),
        ],
    )
    def test_bad_rows_rejected_with_line(self, tmp_path, rows, line):
        target = tmp_path / "bad.csv"
        header = "ell,eigenvalue,g1_re,g1_im,gamma1_re,gamma1_im"
        target.write_text("\r\n".join([header] + rows) + "\r\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_family_csv(target)
        assert err.value.line == line

    def test_quoted_comma_in_header_is_one_field(self, tmp_path):
        target = tmp_path / "family.csv"
        target.write_text('ell,eigenvalue,"g1_re,g1_im",gamma1_re,gamma1_im\n'
                          "0,0.0,1.0,0.0,1.0,0.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_family_csv(target)
        assert err.value.line == 1

    def test_rows_placed_by_ell(self, tmp_path):
        target = tmp_path / "family.csv"
        target.write_text(
            "ell,eigenvalue,g1_re,g1_im,gamma1_re,gamma1_im\n"
            "1,2.0,0.5,0.0,2.0,0.0\n0,0.0,1.0,0.0,1.0,0.0\n",
            encoding="utf-8",
        )
        family, eigenvalues = load_family_csv(target)
        assert eigenvalues.tolist() == [0.0, 2.0]
        assert family.analysis.tolist() == [[1.0, 0.5]]


class TestConditionReportCsv:
    def test_bytes_match_reference(self, tmp_path, rng):
        # np.abs of this value is one ulp above abs(complex); the column must
        # stay Python's abs
        tricky = complex(0.6404226504432821, -1.6051493968851136)
        assert float(np.abs(np.complex128(tricky))) != abs(tricky)
        d = np.concatenate([[tricky, 1e-300j, -0.0 + 0.0j, 3.0 - 4.0j], random_complex(rng, 6)])
        conditions = SufficientConditions(*([False] * len(fields(SufficientConditions))))
        for denominators in (d, d.real):
            report = ConditionReport(denominators, 0.0, 1.0, False, conditions)
            target, expected = tmp_path / "report.csv", tmp_path / "oracle.csv"
            save_condition_report_csv(target, report)
            save_condition_report_csv_reference(expected, report)
            assert target.read_bytes() == expected.read_bytes()


def test_default_tolerance_scales_with_norms():
    family = WindowFamily.with_same_synthesis([np.ones(10)])
    bigger = WindowFamily.with_same_synthesis([10.0 * np.ones(10)])
    assert np.isclose(
        default_nondegeneracy_tolerance(bigger),
        100.0 * default_nondegeneracy_tolerance(family),
    )


@pytest.mark.parametrize(
    "analysis, synthesis, tolerance",
    [
        pytest.param(indicator_window(6, 1), indicator_window(6, 2), None,
                     id="disjoint-supports"),
        # +-1e200 products overflow to +-inf, so d(n) is inf - inf = NaN
        pytest.param(np.full(6, 1e200), np.tile([1e200, -1e200], 3), 1.0, id="nan"),
        pytest.param(np.full(6, 1e200), np.tile([1e200, -1e200], 3), None, id="nan-default-tol"),
    ],
)
def test_every_verdict_reader_agrees(tmp_path, analysis, synthesis, tolerance):
    basis = basis_for(path_graph(6))
    family = WindowFamily([analysis], [synthesis])
    with np.errstate(over="ignore", invalid="ignore"):
        report = check_nondegeneracy(basis, family, tolerance)
        coeffs = mwgft_analyze(basis, family, np.ones(6))
        assert np.isfinite(coeffs.matrices).all()
        with pytest.raises(DegenerateDenominator) as err:
            mwgft_synthesize(basis, family, coeffs, tolerance)
    save_condition_report_csv(tmp_path / "report.csv", report)
    with open(tmp_path / "report.csv", newline="") as fh:
        not_ok = [int(row["vertex"]) for row in csv.DictReader(fh) if row["ok"] == "0"]
    assert not report.satisfied
    assert report.failing_vertices == not_ok == list(err.value.vertices) == list(range(1, 7))


def _random_family(rng, num_windows, complex_values, size=9):
    """J random pairs with entries over 16 decades, so that the order in
    which they are added shows in the last bits."""
    def side():
        values = rng.standard_normal((num_windows, size)) * 10.0 ** rng.integers(-8, 8, size)
        if complex_values:
            values = values + 1j * rng.standard_normal((num_windows, size))
        return values
    return WindowFamily(side(), side())


@pytest.mark.parametrize("num_windows", [1, 3, 8])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_denominator_and_tolerance_bit_for_bit(num_windows, complex_values):
    # d(n) adds the pair spectra one pair at a time, and the tolerance takes
    # one norm per window row; np.linalg.norm(..., axis=1) differs in the
    # last bits, and the tolerance is printed in summary.txt
    basis = random_basis(190, size=9)
    for seed in range(20):
        family = _random_family(np.random.default_rng(seed), num_windows, complex_values)
        assert denominator(basis, family).tobytes() == denominator_reference(basis, family).tobytes()
        assert default_nondegeneracy_tolerance(family) == default_tolerance_reference(family)
