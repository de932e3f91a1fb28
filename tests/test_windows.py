import numpy as np
import pytest

from mwgft import (
    DegenerateCoverage,
    DimensionMismatch,
    InvalidParameter,
    ParseError,
    SpectralWindow,
    WindowFamily,
    check_nondegeneracy,
    default_nondegeneracy_tolerance,
    denominator,
    energy_response,
    load_family_csv,
    path_graph,
    rbf_prototype,
    save_family_csv,
    shifted_family,
    sufficient_conditions,
    synthesis_family,
    translation_inner_products,
    uniform_shifts,
)
from mwgft.windows import format_condition_report
from helpers import NORM, UNNORM, basis_for, random_basis, random_complex


def indicator_window(size, position, label=""):
    samples = np.zeros(size)
    samples[position] = 1.0
    return SpectralWindow(samples, label=label)


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


class TestShiftsAndFamilies:
    def test_single_shift_at_zero(self):
        assert np.array_equal(uniform_shifts(2.0, 1), [0.0])

    def test_uniform_coverage(self):
        shifts = uniform_shifts(2.0, 3)
        assert np.allclose(shifts, [0.0, 1.0, 2.0])

    def test_count_validation(self):
        with pytest.raises(InvalidParameter):
            uniform_shifts(2.0, 0)

    def test_single_window_family_is_prototype(self):
        basis = basis_for(path_graph(10))
        proto = rbf_prototype(basis.lambda_max, 0.7)
        family = shifted_family(proto, [0.0], basis)
        assert len(family) == 1
        assert np.allclose(family[0].samples, proto(basis.eigenvalues))

    def test_family_metadata_and_positivity(self):
        basis = basis_for(path_graph(12))
        proto = rbf_prototype(basis.lambda_max, 0.5)
        family = shifted_family(proto, uniform_shifts(basis.lambda_max, 4), basis)
        assert [w.label for w in family] == ["g1", "g2", "g3", "g4"]
        assert all(w.kernel == "rbf" and w.l_fac == 0.5 for w in family)
        assert all(np.all(w.samples > 0) for w in family)
        assert np.isclose(family[-1].shift, basis.lambda_max)


class TestEnergyResponse:
    def test_flat_single_window(self):
        m = energy_response([SpectralWindow(np.ones(6))])
        assert np.array_equal(m, np.ones(6))

    def test_two_identical_windows(self, rng):
        samples = random_complex(rng, 8)
        w = SpectralWindow(samples)
        assert np.allclose(energy_response([w, w]), 2.0 * np.abs(samples) ** 2)

    def test_rbf_families_cover(self):
        basis = basis_for(path_graph(20), NORM)
        family = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
        )
        assert energy_response(family).min() > 0

    def test_coverage_hole_detected(self):
        with pytest.raises(DegenerateCoverage):
            energy_response([indicator_window(5, 1)])

    def test_empty_family(self):
        with pytest.raises(InvalidParameter):
            energy_response([])


class TestSynthesisFamily:
    def test_constant_window_inverts(self):
        duals = synthesis_family([SpectralWindow(3.0 * np.ones(7))])
        assert np.allclose(duals[0].samples, np.ones(7) / 3.0)

    def test_partition_identity(self):
        basis = basis_for(path_graph(50), NORM)
        analysis = shifted_family(
            rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis
        )
        duals = synthesis_family(analysis)
        total = sum(d.samples * a.samples for a, d in zip(analysis, duals))
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_coverage_failure_propagates(self):
        with pytest.raises(DegenerateCoverage):
            synthesis_family([indicator_window(5, 2)])


class TestWindowFamilyType:
    def test_validation(self):
        w5, w6 = SpectralWindow(np.ones(5)), SpectralWindow(np.ones(6))
        with pytest.raises(DimensionMismatch):
            WindowFamily((w5,), (w6,))
        with pytest.raises(DimensionMismatch):
            WindowFamily((), ())
        with pytest.raises(DimensionMismatch):
            WindowFamily((w5,), (w5, w5))

    def test_accessors(self):
        w = SpectralWindow(np.ones(5))
        family = WindowFamily.with_same_synthesis([w, w])
        assert family.num_windows == 2
        assert family.size == 5
        assert family.synthesis[0] is w

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameter):
            SpectralWindow(np.array([1.0, np.nan]))


class TestCheckNondegeneracy:
    def test_single_real_window_with_dc(self, rng):
        basis = random_basis(100)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 1.0
        family = WindowFamily.with_same_synthesis([SpectralWindow(g_hat)])
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
        family = WindowFamily.paired(
            [SpectralWindow(random_complex(rng, 11)) for _ in range(3)],
            [SpectralWindow(random_complex(rng, 11)) for _ in range(3)],
        )
        pairwise = sum(
            translation_inner_products(basis, g.samples, gam.samples)
            for g, gam in zip(family.analysis, family.synthesis)
        )
        assert np.allclose(denominator(basis, family), pairwise, rtol=1e-12, atol=0)
        assert np.array_equal(check_nondegeneracy(basis, family).denominators,
                              denominator(basis, family))

    def test_disjoint_supports_fail_everywhere(self):
        basis = basis_for(path_graph(6))
        family = WindowFamily.paired(
            [indicator_window(6, 1)], [indicator_window(6, 2)]
        )
        report = check_nondegeneracy(basis, family)
        assert not report.satisfied
        assert report.min_abs <= report.tolerance
        assert report.failing_vertices == list(range(1, 7))

    def test_satisfied_iff_margin(self, rng):
        basis = random_basis(102)
        g_hat = random_complex(rng, basis.size)
        family = WindowFamily.with_same_synthesis([SpectralWindow(g_hat)])
        report = check_nondegeneracy(basis, family)
        assert report.satisfied == (report.min_abs > report.tolerance)

    def test_tolerance_override(self):
        basis = basis_for(path_graph(6))
        family = WindowFamily.with_same_synthesis([SpectralWindow(np.ones(6))])
        strict = check_nondegeneracy(basis, family, tolerance=1e9)
        assert not strict.satisfied
        assert strict.failing_vertices == list(range(1, 7))

    def test_report_text(self):
        basis = basis_for(path_graph(4))
        family = WindowFamily.paired([indicator_window(4, 1)], [indicator_window(4, 2)])
        text = format_condition_report(check_nondegeneracy(basis, family))
        assert "satisfied: false" in text
        assert "failing_vertices: 1 2 3 4" in text


class TestSufficientConditions:
    def test_real_self_paired_window(self, rng):
        # gamma = g real with positive DC: squares make the sign condition hold
        basis = random_basis(110)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 0.8
        family = WindowFamily.with_same_synthesis([SpectralWindow(g_hat)])
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
        family = WindowFamily.with_same_synthesis([SpectralWindow(with_dc)])
        assert sufficient_conditions(basis, family).csuff2
        without_dc = np.zeros(basis.size)
        without_dc[1] = 1.0
        family = WindowFamily.with_same_synthesis([SpectralWindow(without_dc)])
        assert not sufficient_conditions(basis, family).csuff2

    def test_negated_family(self, rng):
        basis = random_basis(112)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 0.8
        family = WindowFamily.paired(
            [SpectralWindow(g_hat)], [SpectralWindow(-g_hat)]
        )
        conditions = sufficient_conditions(basis, family)
        assert conditions.csuff1a and not conditions.csuff1
        assert conditions.implies_nondegenerate

    def test_imaginary_variants(self, rng):
        basis = random_basis(113)
        g_hat = rng.standard_normal(basis.size)
        g_hat[0] = 0.8
        family = WindowFamily.paired(
            [SpectralWindow(g_hat)], [SpectralWindow(1j * g_hat)]
        )
        conditions = sufficient_conditions(basis, family)
        assert conditions.csuff1b and not conditions.csuff1c
        assert conditions.implies_nondegenerate

    def test_scale_invariant_verdicts(self, rng):
        basis = random_basis(114)
        g_hat = np.abs(rng.standard_normal(basis.size)) + 0.1
        family = WindowFamily.with_same_synthesis([SpectralWindow(g_hat)])
        tiny = WindowFamily.with_same_synthesis([SpectralWindow(1e-8 * g_hat)])
        assert sufficient_conditions(basis, family).csuff1
        assert sufficient_conditions(basis, tiny).csuff1

    def test_dc_conditions_do_not_certify_normalized_kind(self):
        basis = random_basis(115, kind=NORM)
        n = basis.size
        g_hat = np.full(n, 1e-6)
        g_hat[0] = 1.0
        gamma_hat = g_hat.copy()
        gamma_hat[1] = -1e-6  # flips one product sign; DC gap stays huge
        family = WindowFamily.paired([SpectralWindow(g_hat)], [SpectralWindow(gamma_hat)])
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
        family = WindowFamily.paired(
            [SpectralWindow(strong), SpectralWindow(weak)],
            [SpectralWindow(strong), SpectralWindow(weak_gamma)],
        )
        conditions = sufficient_conditions(basis, family)
        assert conditions.csufff5
        assert conditions.implies_nondegenerate


class TestFamilyCsv:
    def test_round_trip_complex(self, tmp_path, rng):
        basis = basis_for(path_graph(8))
        analysis = [SpectralWindow(random_complex(rng, 8), label="g1")]
        synthesis = [SpectralWindow(random_complex(rng, 8), label="gamma1")]
        family = WindowFamily.paired(analysis, synthesis)
        target = tmp_path / "family.csv"
        save_family_csv(target, basis, family)
        loaded, eigenvalues = load_family_csv(target)
        assert np.array_equal(eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.analysis[0].samples, analysis[0].samples)
        assert np.array_equal(loaded.synthesis[0].samples, synthesis[0].samples)

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
        assert not np.iscomplexobj(loaded.analysis[0].samples)
        assert np.array_equal(loaded.analysis[1].samples, family.analysis[1].samples)

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


def test_default_tolerance_scales_with_norms():
    family = WindowFamily.with_same_synthesis([SpectralWindow(np.ones(10))])
    bigger = WindowFamily.with_same_synthesis([SpectralWindow(10.0 * np.ones(10))])
    assert np.isclose(
        default_nondegeneracy_tolerance(bigger),
        100.0 * default_nondegeneracy_tolerance(family),
    )
