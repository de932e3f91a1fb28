import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwgft import (
    DegenerateDenominator,
    DimensionMismatch,
    FingerprintMismatch,
    InvalidParameter,
    NotAFrame,
    ParseError,
    SpectralWindow,
    WgftCoefficients,
    WindowFamily,
    frame_bounds,
    gft,
    igft,
    load_coefficients,
    mwgft_analyze,
    mwgft_synthesize,
    path_graph,
    rbf_prototype,
    reconstruct_two_window,
    save_coefficients,
    shifted_family,
    spectrogram,
    synthesis_family,
    translate_norms_sq,
    uniform_shifts,
    wgft,
)
from mwgft.transform import save_spectrogram_csv, save_spectrogram_pgm
from helpers import NORM, UNNORM, basis_for, random_basis, random_complex, star_graph
from oracles import synthesize_direct, wgft_direct


def rbf_family(basis, count=3, l_fac=0.7, same=False):
    analysis = shifted_family(
        rbf_prototype(basis.lambda_max, l_fac), uniform_shifts(basis.lambda_max, count), basis
    )
    if same:
        return WindowFamily.with_same_synthesis(analysis)
    return WindowFamily.with_normalized_synthesis(analysis)


def oracle_case(rng, graph, complex_signal, complex_windows, num_windows):
    """(basis, family, signal) for the atom-oracle comparisons: a random graph
    or a star (whose Laplacian has a repeated eigenvalue), real or complex
    signal and window spectra, J windows with energy-normalized duals."""
    basis = random_basis(153, size=8) if graph == "random" else basis_for(star_graph(8))
    n = basis.size
    analysis = []
    for _ in range(num_windows):
        g_hat = random_complex(rng, n) if complex_windows else rng.uniform(0.2, 1.2, n)
        analysis.append(SpectralWindow(g_hat))
    family = WindowFamily.with_normalized_synthesis(analysis)
    f = random_complex(rng, n) if complex_signal else rng.standard_normal(n)
    return basis, family, f


class TestWgft:
    def test_zero_signal(self):
        basis = random_basis(130)
        coeffs = wgft(basis, np.ones(basis.size), np.zeros(basis.size))
        assert np.array_equal(coeffs, np.zeros((basis.size, basis.size)))

    @pytest.mark.parametrize("num_windows", [1, 3])
    @pytest.mark.parametrize("complex_windows", [False, True], ids=["real-g", "complex-g"])
    @pytest.mark.parametrize("complex_signal", [False, True], ids=["real-f", "complex-f"])
    @pytest.mark.parametrize("graph", ["random", "star"])
    def test_fast_path_matches_atom_oracle(
        self, rng, graph, complex_signal, complex_windows, num_windows
    ):
        basis, family, f = oracle_case(rng, graph, complex_signal, complex_windows, num_windows)
        coeffs = mwgft_analyze(basis, family, f)
        real = not (complex_signal or complex_windows)
        assert coeffs.matrices[0].dtype == (np.float64 if real else np.complex128)
        for w, fast in zip(family.analysis, coeffs.matrices):
            g = basis.vectors @ w.samples
            direct = wgft_direct(basis, g, f)
            scale = np.abs(direct).max()
            for got in (fast, wgft(basis, g, f)):
                assert np.allclose(got, direct, atol=1e-10 * scale)

    def test_energy_identity(self, rng):
        basis = random_basis(132, size=18)
        g = random_complex(rng, 18)
        f = random_complex(rng, 18)
        coeffs = wgft(basis, g, f)
        lhs = np.sum(np.abs(coeffs) ** 2)
        energies = translate_norms_sq(basis, gft(basis, g))
        rhs = basis.size * np.sum(np.abs(f) ** 2 * energies)
        assert np.isclose(lhs, rhs, rtol=1e-8)

    def test_spectral_window_argument(self, rng):
        basis = random_basis(133, size=10)
        g_hat = random_complex(rng, 10)
        f = random_complex(rng, 10)
        via_spectrum = wgft(basis, SpectralWindow(g_hat), f)
        via_vertex = wgft(basis, igft(basis, g_hat), f)
        assert np.allclose(via_spectrum, via_vertex, atol=1e-12)

    def test_shape_check(self, rng):
        basis = random_basis(134)
        with pytest.raises(DimensionMismatch):
            wgft(basis, random_complex(rng, basis.size), random_complex(rng, basis.size + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_signal_rejected(self, rng, bad):
        basis = random_basis(135, size=9)
        f = random_complex(rng, 9)
        f[4] = bad
        with pytest.raises(InvalidParameter):
            wgft(basis, random_complex(rng, 9), f)


class TestReconstructTwoWindow:
    def test_unimodular_flat_spectrum_round_trip(self, rng):
        # |ghat| = 1/sqrt(N) makes every denominator exactly 1
        basis = random_basis(140, size=16)
        phases = rng.uniform(0, 2 * np.pi, 16)
        g = igft(basis, np.exp(1j * phases) / 4.0)
        f = random_complex(rng, 16)
        coeffs = wgft(basis, g, f)
        rec = reconstruct_two_window(basis, g, g, coeffs)
        assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)

    def test_random_self_dual_round_trip(self, rng):
        basis = random_basis(141, size=20)
        g_hat = random_complex(rng, 20)
        g_hat[0] = 1.0  # keep a DC component
        g = igft(basis, g_hat)
        f = random_complex(rng, 20)
        rec = reconstruct_two_window(basis, g, g, wgft(basis, g, f))
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)

    def test_disjoint_supports_degenerate(self):
        basis = basis_for(path_graph(6))
        e1, e2 = np.zeros(6), np.zeros(6)
        e1[1], e2[2] = 1.0, 1.0
        coeffs = wgft(basis, SpectralWindow(e1), impulse_like(6))
        with pytest.raises(DegenerateDenominator) as err:
            reconstruct_two_window(basis, SpectralWindow(e1), SpectralWindow(e2), coeffs)
        assert err.value.vertices == tuple(range(1, 7))

    def test_matches_single_window_family(self, rng):
        basis = random_basis(142, size=12)
        g_hat = np.abs(random_complex(rng, 12)) + 0.2
        analysis = [SpectralWindow(g_hat)]
        family = WindowFamily.paired(analysis, synthesis_family(analysis))
        f = random_complex(rng, 12)
        coeffs = mwgft_analyze(basis, family, f)
        via_family = mwgft_synthesize(basis, family, coeffs)
        via_pair = reconstruct_two_window(
            basis, SpectralWindow(g_hat), family.synthesis[0], coeffs.matrices[0]
        )
        assert np.allclose(via_family, via_pair, atol=1e-12 * np.linalg.norm(f))


def impulse_like(n):
    out = np.zeros(n)
    out[0] = 1.0
    return out


class TestMwgft:
    def test_single_window_reduces_to_wgft(self, rng):
        basis = random_basis(150)
        g_hat = random_complex(rng, basis.size)
        family = WindowFamily.with_same_synthesis([SpectralWindow(g_hat)])
        f = random_complex(rng, basis.size)
        coeffs = mwgft_analyze(basis, family, f)
        assert np.array_equal(coeffs.matrices[0], wgft(basis, SpectralWindow(g_hat), f))

    def test_linearity(self, rng):
        basis = random_basis(151, size=10)
        family = rbf_family(basis)
        f1, f2 = random_complex(rng, 10), random_complex(rng, 10)
        together = mwgft_analyze(basis, family, f1 + f2)
        apart1 = mwgft_analyze(basis, family, f1)
        apart2 = mwgft_analyze(basis, family, f2)
        for j in range(family.num_windows):
            assert np.allclose(
                together.matrices[j], apart1.matrices[j] + apart2.matrices[j], atol=1e-10
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        kind = UNNORM if seed % 2 == 0 else NORM
        basis = random_basis(int(rng.integers(0, 2**31)), size=int(rng.integers(5, 26)), kind=kind)
        family = rbf_family(basis, count=int(rng.integers(1, 5)), same=bool(seed % 3 == 0))
        f = random_complex(rng, basis.size)
        rec = mwgft_synthesize(basis, family, mwgft_analyze(basis, family, f))
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)

    def test_zero_window_pair_is_inert(self, rng):
        basis = random_basis(152, size=10)
        g_hat = np.abs(random_complex(rng, 10)) + 0.2
        base_analysis = [SpectralWindow(g_hat)]
        base = WindowFamily.paired(base_analysis, synthesis_family(base_analysis))
        zero = SpectralWindow(np.zeros(10))
        padded = WindowFamily.paired(
            list(base.analysis) + [zero], list(base.synthesis) + [zero]
        )
        f = random_complex(rng, 10)
        rec_base = mwgft_synthesize(basis, base, mwgft_analyze(basis, base, f))
        rec_padded = mwgft_synthesize(basis, padded, mwgft_analyze(basis, padded, f))
        assert np.allclose(rec_base, rec_padded, atol=1e-12)

    @pytest.mark.parametrize("num_windows", [1, 3])
    @pytest.mark.parametrize("complex_windows", [False, True], ids=["real-g", "complex-g"])
    @pytest.mark.parametrize("complex_signal", [False, True], ids=["real-f", "complex-f"])
    @pytest.mark.parametrize("graph", ["random", "star"])
    def test_matches_naive_synthesis(
        self, rng, graph, complex_signal, complex_windows, num_windows
    ):
        basis, family, f = oracle_case(rng, graph, complex_signal, complex_windows, num_windows)
        coeffs = mwgft_analyze(basis, family, f)
        fast = mwgft_synthesize(basis, family, coeffs)
        naive = synthesize_direct(basis, family, coeffs.matrices)
        assert np.allclose(fast, naive, atol=1e-8 * np.linalg.norm(f))
        assert np.linalg.norm(fast - f) <= 1e-10 * np.linalg.norm(f)

    def test_non_finite_signal_rejected(self, rng):
        basis = random_basis(156, size=10)
        f = random_complex(rng, 10)
        f[3] = np.nan
        with pytest.raises(InvalidParameter):
            mwgft_analyze(basis, rbf_family(basis), f)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficients_rejected(self, rng, bad):
        basis = random_basis(157, size=10)
        family = rbf_family(basis)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 10))
        damaged = [m.copy() for m in coeffs.matrices]
        damaged[1][2, 5] = bad
        with pytest.raises(InvalidParameter):
            mwgft_synthesize(basis, family, WgftCoefficients(tuple(damaged), basis.fingerprint))

    def test_fingerprint_guard(self, rng):
        basis_a = basis_for(path_graph(10))
        basis_b = basis_for(path_graph(10), NORM)
        family = rbf_family(basis_a)
        coeffs = mwgft_analyze(basis_a, family, random_complex(rng, 10))
        with pytest.raises(FingerprintMismatch):
            mwgft_synthesize(basis_b, rbf_family(basis_b), coeffs)

    def test_window_count_guard(self, rng):
        basis = random_basis(155, size=8)
        family = rbf_family(basis, count=2)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 8))
        with pytest.raises(DimensionMismatch):
            mwgft_synthesize(basis, rbf_family(basis, count=3), coeffs)

    def test_degenerate_family_raises_with_vertices(self, rng):
        basis = basis_for(path_graph(6))
        e1, e2 = np.zeros(6), np.zeros(6)
        e1[1], e2[2] = 1.0, 1.0
        family = WindowFamily.paired([SpectralWindow(e1)], [SpectralWindow(e2)])
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 6))
        with pytest.raises(DegenerateDenominator) as err:
            mwgft_synthesize(basis, family, coeffs)
        assert err.value.vertices == tuple(range(1, 7))

    def test_impulse_energy_stays_local(self):
        # impulse on a path: the averaged map keeps its peak at the impulse
        basis = basis_for(path_graph(50), NORM)
        family = rbf_family(basis, count=3, l_fac=0.7)
        f = np.zeros(50)
        f[24] = 1.0
        spec = spectrogram(mwgft_analyze(basis, family, f))
        peak_vertex = int(np.unravel_index(np.argmax(spec.averaged), spec.averaged.shape)[0]) + 1
        assert peak_vertex == 25


class TestFrameBounds:
    def test_flat_window_is_tight_frame(self):
        basis = random_basis(160, size=12)
        flat = SpectralWindow(np.ones(12) / np.sqrt(12))
        bounds = frame_bounds(basis, flat)
        assert np.isclose(bounds.lower, 12.0, rtol=1e-10)
        assert np.isclose(bounds.upper, 12.0, rtol=1e-10)

    def test_zero_window_not_a_frame(self):
        basis = random_basis(161)
        with pytest.raises(NotAFrame):
            frame_bounds(basis, np.zeros(basis.size))

    def test_loose_pair_brackets_tight_pair(self, rng):
        basis = random_basis(162, size=10)
        g_hat = np.abs(random_complex(rng, 10)) + 0.2
        analysis = [SpectralWindow(g_hat)]
        gamma = synthesis_family(analysis)[0]
        bounds = frame_bounds(basis, analysis[0], dual_window=gamma)
        assert bounds.loose_lower is not None
        assert bounds.loose_lower <= bounds.lower * (1 + 1e-12)
        assert np.isclose(bounds.loose_upper, bounds.upper, rtol=1e-12)

    def test_no_dual_no_loose_pair(self, rng):
        basis = random_basis(163)
        bounds = frame_bounds(basis, random_complex(rng, basis.size))
        assert bounds.loose_lower is None and bounds.loose_upper is None

    def test_sandwich_on_random_signals(self, rng):
        basis = random_basis(164, size=15)
        g = random_complex(rng, 15)
        bounds = frame_bounds(basis, g)
        for _ in range(20):
            f = random_complex(rng, 15)
            energy = np.sum(np.abs(wgft(basis, g, f)) ** 2)
            norm_sq = np.linalg.norm(f) ** 2
            assert bounds.lower * norm_sq * (1 - 1e-10) <= energy
            assert energy <= bounds.upper * norm_sq * (1 + 1e-10)


class TestSpectrogram:
    def test_zero_signal(self):
        basis = random_basis(170)
        family = rbf_family(basis)
        spec = spectrogram(mwgft_analyze(basis, family, np.zeros(basis.size)))
        assert np.array_equal(spec.averaged, np.zeros((basis.size, basis.size)))

    def test_average_recomputed(self, rng):
        basis = random_basis(171, size=9)
        family = rbf_family(basis, count=3)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 9))
        spec = spectrogram(coeffs)
        manual = sum(np.abs(m) ** 2 for m in coeffs.matrices) / 3.0
        assert np.allclose(spec.averaged, manual, rtol=1e-12)
        assert all(np.all(p >= 0) for p in spec.per_window)


class TestRotationRobustness:
    def test_star_graph_round_trip_both_bases(self, rng):
        from oracles import rotate_degenerate_eigenspaces

        basis = basis_for(star_graph(8))
        rotated, did_rotate = rotate_degenerate_eigenspaces(basis, rng)
        assert did_rotate  # the star graph has a 6-fold eigenvalue
        family = rbf_family(basis, count=3)
        f = random_complex(rng, 8)
        for b in (basis, rotated):
            rec = mwgft_synthesize(b, family, mwgft_analyze(b, family, f))
            assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)
        # the coefficients themselves do change under rotation
        c0 = mwgft_analyze(basis, family, f).matrices[0]
        c1 = mwgft_analyze(rotated, family, f).matrices[0]
        assert np.abs(c0 - c1).max() > 1e-6


class TestCoefficientsIo:
    def test_round_trip(self, tmp_path, rng):
        basis = random_basis(180, size=7)
        family = rbf_family(basis, count=2)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 7))
        target = tmp_path / "coefficients.csv"
        save_coefficients(target, coeffs)
        loaded = load_coefficients(target)
        assert loaded.basis_fingerprint == coeffs.basis_fingerprint
        for a, b in zip(loaded.matrices, coeffs.matrices):
            assert np.array_equal(a, b)
        rec = mwgft_synthesize(basis, family, loaded)
        assert np.linalg.norm(rec) > 0

    def test_missing_meta(self, tmp_path):
        target = tmp_path / "c.csv"
        target.write_text("window,vertex,freq,re,im\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_coefficients(target)

    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            WgftCoefficients((np.zeros((3, 4)),), "x")
        with pytest.raises(DimensionMismatch):
            WgftCoefficients((), "x")


class TestSpectrogramFiles:
    def test_csv_layout(self, tmp_path):
        matrix = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = tmp_path / "spec.csv"
        save_spectrogram_csv(target, matrix)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "vertex,k0,k1"
        assert lines[1].startswith("1,")
        assert float(lines[2].split(",")[2]) == 4.0

    def test_pgm_layout(self, tmp_path):
        matrix = np.array([[0.0, 0.5], [1.0, 0.25]])
        target = tmp_path / "spec.pgm"
        save_spectrogram_pgm(target, matrix)
        blob = target.read_bytes()
        header, pixels = blob.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(pixels) == [0, 128, 255, 64]

    def test_pgm_zero_matrix(self, tmp_path):
        target = tmp_path / "zero.pgm"
        save_spectrogram_pgm(target, np.zeros((2, 3)))
        assert target.read_bytes().endswith(bytes(6))
