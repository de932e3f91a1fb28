import io
import time
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwgft import (
    DegenerateDenominator,
    DimensionMismatch,
    FingerprintMismatch,
    FrameBounds,
    InvalidParameter,
    NotAFrame,
    ParseError,
    WgftCoefficients,
    WindowFamily,
    check_nondegeneracy,
    frame_bounds,
    gft,
    load_coefficients,
    mwgft_analyze,
    mwgft_synthesize,
    path_graph,
    rbf_prototype,
    reconstruct_two_window,
    save_coefficients,
    shifted_family,
    spectral_magnitudes,
    spectrogram,
    synthesis_family,
    translate_norms_sq,
    uniform_shifts,
    wgft,
)
from mwgft import transform
from mwgft.transform import (
    _analysis,
    _read_coefficients,
    save_spectrogram_csv,
    save_spectrogram_pgm,
)
from helpers import (
    FORGED_MEMBERS,
    NORM,
    UNNORM,
    basis_for,
    forge_member,
    random_basis,
    random_complex,
    star_graph,
)
from oracles import (
    save_spectrogram_csv_reference,
    spectrogram_reference,
    synthesize_direct,
    wgft_direct,
)


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
        analysis.append(g_hat)
    family = WindowFamily.with_normalized_synthesis(analysis)
    f = random_complex(rng, n) if complex_signal else rng.standard_normal(n)
    return basis, family, f


class TestWgft:
    def test_zero_signal(self):
        basis = random_basis(130)
        coeffs = wgft(basis, gft(basis, np.ones(basis.size)), np.zeros(basis.size))
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
        for g_hat, fast in zip(family.analysis, coeffs.matrices):
            g = basis.vectors @ g_hat
            direct = wgft_direct(basis, g, f)
            scale = np.abs(direct).max()
            for got in (fast, wgft(basis, gft(basis, g), f)):
                assert np.allclose(got, direct, atol=1e-10 * scale)

    def test_energy_identity(self, rng):
        basis = random_basis(132, size=18)
        g = random_complex(rng, 18)
        f = random_complex(rng, 18)
        coeffs = wgft(basis, gft(basis, g), f)
        lhs = np.sum(np.abs(coeffs) ** 2)
        energies = translate_norms_sq(basis, gft(basis, g))
        rhs = basis.size * np.sum(np.abs(f) ** 2 * energies)
        assert np.isclose(lhs, rhs, rtol=1e-8)

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
        g_hat = np.exp(1j * phases) / 4.0
        f = random_complex(rng, 16)
        coeffs = wgft(basis, g_hat, f)
        rec = reconstruct_two_window(basis, g_hat, g_hat, coeffs)
        assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)

    def test_random_self_dual_round_trip(self, rng):
        basis = random_basis(141, size=20)
        g_hat = random_complex(rng, 20)
        g_hat[0] = 1.0  # keep a DC component
        f = random_complex(rng, 20)
        rec = reconstruct_two_window(basis, g_hat, g_hat, wgft(basis, g_hat, f))
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)

    def test_disjoint_supports_degenerate(self):
        basis = basis_for(path_graph(6))
        e1, e2 = np.zeros(6), np.zeros(6)
        e1[1], e2[2] = 1.0, 1.0
        coeffs = wgft(basis, e1, impulse_like(6))
        with pytest.raises(DegenerateDenominator) as err:
            reconstruct_two_window(basis, e1, e2, coeffs)
        assert err.value.vertices == tuple(range(1, 7))

    def test_matches_single_window_family(self, rng):
        basis = random_basis(142, size=12)
        g_hat = np.abs(random_complex(rng, 12)) + 0.2
        family = WindowFamily.with_normalized_synthesis([g_hat])
        f = random_complex(rng, 12)
        coeffs = mwgft_analyze(basis, family, f)
        via_family = mwgft_synthesize(basis, family, coeffs)
        via_pair = reconstruct_two_window(basis, g_hat, family.synthesis[0], coeffs.matrices[0])
        assert np.allclose(via_family, via_pair, atol=1e-12 * np.linalg.norm(f))


def impulse_like(n):
    out = np.zeros(n)
    out[0] = 1.0
    return out


class TestMwgft:
    def test_single_window_reduces_to_wgft(self, rng):
        basis = random_basis(150)
        g_hat = random_complex(rng, basis.size)
        family = WindowFamily.with_same_synthesis([g_hat])
        f = random_complex(rng, basis.size)
        coeffs = mwgft_analyze(basis, family, f)
        assert np.array_equal(coeffs.matrices[0], wgft(basis, g_hat, f))

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
        base = WindowFamily.with_normalized_synthesis([g_hat])
        padded = WindowFamily(
            np.vstack([base.analysis, np.zeros(10)]), np.vstack([base.synthesis, np.zeros(10)])
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

    @pytest.mark.parametrize("complex_signal", [False, True], ids=["real", "complex"])
    def test_analysis_peak_is_the_result_and_three_windows(self, rng, complex_signal):
        # the (J, N, N) result, N A, the one scratch and what forming N A
        # leaves over; copying each window into the result would add one more
        n, count = 120, 6
        basis = random_basis(158, size=n)
        family = rbf_family(basis, count=count)
        f = random_complex(rng, n) if complex_signal else rng.standard_normal(n)
        tracemalloc.start()
        try:
            coeffs = mwgft_analyze(basis, family, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        window = n * n * coeffs.matrices.itemsize
        assert peak <= (count + 3) * window, peak / window

    def test_analysis_stack_produced_twice_gives_the_same_windows(self, rng):
        basis = random_basis(159, size=9)
        family = rbf_family(basis)
        f = random_complex(rng, 9)
        windows = _analysis(basis, family, f)
        first = windows.collect()
        second = np.array([s.copy() for s in windows])
        assert first.tobytes() == second.tobytes()
        assert first.tobytes() == mwgft_analyze(basis, family, f).matrices.tobytes()

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
            mwgft_synthesize(basis, family, WgftCoefficients(tuple(damaged), basis))

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
        family = WindowFamily([e1], [e2])
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
        averaged = spectrogram(mwgft_analyze(basis, family, f))
        peak_vertex = int(np.unravel_index(np.argmax(averaged), averaged.shape)[0]) + 1
        assert peak_vertex == 25


class TestFrameBounds:
    def test_flat_window_is_tight_frame(self):
        basis = random_basis(160, size=12)
        flat = np.ones(12) / np.sqrt(12)
        bounds = frame_bounds(basis, flat)
        assert np.isclose(bounds.lower, 12.0, rtol=1e-10)
        assert np.isclose(bounds.upper, 12.0, rtol=1e-10)

    def test_zero_window_not_a_frame(self):
        basis = random_basis(161)
        with pytest.raises(NotAFrame):
            frame_bounds(basis, gft(basis, np.zeros(basis.size)))

    def test_vanishing_translate_follows_the_denominator_verdict(self):
        # ||T_4 g||^2 is 7e-12 here, which the denominator check of (g, g)
        # calls vanishing; frame_bounds used to report a lower bound of 4.9e-11
        basis = basis_for(path_graph(7))
        g = np.eye(7)[1] + 1e-6
        report = check_nondegeneracy(basis, WindowFamily.with_same_synthesis([g]))
        assert report.failing_vertices == [4]
        with pytest.raises(NotAFrame, match=r"\(vertices: 4\)$"):
            frame_bounds(basis, g)

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_rejected(self, tolerance):
        basis = basis_for(path_graph(6))
        with pytest.raises(InvalidParameter, match="nondegeneracy tolerance must be >= 0"):
            frame_bounds(basis, gft(basis, np.eye(6)[1]), tolerance=tolerance)

    def test_loose_pair_brackets_tight_pair(self, rng):
        basis = random_basis(162, size=10)
        g_hat = np.abs(random_complex(rng, 10)) + 0.2
        gamma_hat = synthesis_family(g_hat[None])[0]
        bounds = frame_bounds(basis, g_hat, gamma_hat=gamma_hat)
        assert bounds.loose_lower is not None
        assert bounds.loose_lower <= bounds.lower * (1 + 1e-12)
        assert bounds.loose_upper == bounds.upper

    def test_no_dual_no_loose_pair(self, rng):
        basis = random_basis(163)
        bounds = frame_bounds(basis, gft(basis, random_complex(rng, basis.size)))
        assert bounds.loose_lower is None and bounds.loose_upper is None

    def test_old_dual_window_keyword_is_gone(self, rng):
        basis = random_basis(165, size=8)
        g_hat = np.abs(random_complex(rng, 8)) + 0.2
        with pytest.raises(TypeError):
            frame_bounds(basis, g_hat, dual_window=g_hat)

    def test_non_finite_dual_rejected(self, rng):
        basis = random_basis(166, size=8)
        g_hat = np.abs(random_complex(rng, 8)) + 0.2
        with pytest.raises(InvalidParameter, match="^synthesis window 1 has non-finite samples$"):
            frame_bounds(basis, g_hat, np.full(8, np.nan))

    def test_sandwich_on_random_signals(self, rng):
        basis = random_basis(164, size=15)
        g_hat = gft(basis, random_complex(rng, 15))
        bounds = frame_bounds(basis, g_hat)
        for _ in range(20):
            f = random_complex(rng, 15)
            energy = np.sum(np.abs(wgft(basis, g_hat, f)) ** 2)
            norm_sq = np.linalg.norm(f) ** 2
            assert bounds.lower * norm_sq * (1 - 1e-10) <= energy
            assert energy <= bounds.upper * norm_sq * (1 + 1e-10)


class TestSpectrogram:
    def test_zero_signal(self):
        basis = random_basis(170)
        family = rbf_family(basis)
        averaged = spectrogram(mwgft_analyze(basis, family, np.zeros(basis.size)))
        assert np.array_equal(averaged, np.zeros((basis.size, basis.size)))

    def test_average_recomputed(self, rng):
        basis = random_basis(171, size=9)
        family = rbf_family(basis, count=3)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 9))
        averaged = spectrogram(coeffs)
        manual = sum(np.abs(m) ** 2 for m in coeffs.matrices) / 3.0
        assert averaged.shape == (9, 9) and averaged.dtype == np.float64
        assert np.allclose(averaged, manual, rtol=1e-12)
        assert np.all(averaged >= 0)

    @pytest.mark.parametrize("num_windows", [1, 3, 8, 9])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_matches_stacked_reduction_bit_for_bit(self, rng, num_windows, complex_values):
        basis = basis_for(path_graph(7))
        matrices = rng.standard_normal((num_windows, 7, 7)) * 10.0 ** rng.integers(-8, 8, (7, 7))
        if complex_values:
            matrices = matrices + 1j * rng.standard_normal((num_windows, 7, 7))
        averaged = spectrogram(WgftCoefficients(matrices, basis))
        expected = spectrogram_reference(matrices)
        assert averaged.dtype == expected.dtype == np.float64
        assert averaged.tobytes() == expected.tobytes()

    def test_peak_memory_holds_no_per_window_stack(self, rng):
        # the (J, N, N) stack of |S_j|^2 alone would be J = 8 maps
        n = 200
        matrices = rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
        coeffs = WgftCoefficients(matrices, basis_for(path_graph(n)))
        tracemalloc.start()
        try:
            spectrogram(coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8


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

    def test_rotated_basis_has_another_fingerprint(self, rng):
        # a fingerprint of kind, size and eigenvalues alone let coefficients
        # analyzed on one basis of the 10-fold eigenspace be synthesized on
        # another, which returned a wrong signal (about 100% error) silently
        from oracles import rotate_degenerate_eigenspaces

        basis = basis_for(star_graph(12))
        rotated, did_rotate = rotate_degenerate_eigenspaces(basis, rng)
        assert did_rotate and np.array_equal(rotated.eigenvalues, basis.eigenvalues)
        assert rotated.fingerprint != basis.fingerprint
        family = rbf_family(basis, count=3)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 12))
        with pytest.raises(FingerprintMismatch):
            mwgft_synthesize(rotated, family, coeffs)


def _savez(target, coeffs, **replace):
    """A coefficient file written key by key, with the arrays in ``replace``
    swapped in (``None`` leaves a key out)."""
    arrays = {
        "coefficients": coeffs.matrices,
        "eigenvalues": coeffs.basis.eigenvalues,
        "vectors": coeffs.basis.vectors,
        "kind": np.array(coeffs.basis.kind.value),
    }
    arrays.update(replace)
    np.savez(target, **{key: value for key, value in arrays.items() if value is not None})


def _with(array, index, value):
    """A copy of ``array`` with ``array[index] = value``."""
    array = np.array(array)
    array[index] = value
    return array


# damaged basis arrays: the keys each case replaces in a file of ``basis``
BASIS_DAMAGE = {
    "no-eigenvalues": lambda b: {"eigenvalues": None},
    "no-vectors": lambda b: {"vectors": None},
    "no-kind": lambda b: {"kind": None},
    "eigenvalues-short": lambda b: {"eigenvalues": b.eigenvalues[:-1]},
    "eigenvalues-2d": lambda b: {"eigenvalues": b.eigenvalues[None]},
    "vectors-not-square": lambda b: {"vectors": b.vectors[:, :-1]},
    "vectors-wrong-size": lambda b: {"vectors": np.eye(b.size + 1)},
    "eigenvalues-nan": lambda b: {"eigenvalues": _with(b.eigenvalues, 2, np.nan)},
    "vectors-inf": lambda b: {"vectors": _with(b.vectors, (1, 3), -np.inf)},
    "eigenvalues-float32": lambda b: {"eigenvalues": b.eigenvalues.astype(np.float32)},
    "vectors-complex": lambda b: {"vectors": b.vectors.astype(np.complex128)},
    "vectors-int": lambda b: {"vectors": np.eye(b.size, dtype=np.int64)},
    "kind-unknown": lambda b: {"kind": np.array("combinatorial")},
    "kind-number": lambda b: {"kind": np.array(1.0)},
}

SHAPE_DAMAGE = ("eigenvalues-short", "eigenvalues-2d", "vectors-not-square", "vectors-wrong-size")


def _damage(kind, target, coeffs):
    """Turn the valid coefficient file at ``target`` into a damaged one."""
    blob = target.read_bytes()
    if kind == "missing":
        target.unlink()
    elif kind == "truncated":
        target.write_bytes(blob[: len(blob) // 2])
    elif kind == "flipped-byte":
        data = coeffs.matrices.tobytes()
        at = blob.index(data) + len(data) // 2
        target.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:])
    elif kind == "csv":
        target.write_text("window,vertex,freq,re,im\n1,1,0,0.5,0.0\n", encoding="utf-8")
    elif kind == "empty":
        target.write_bytes(b"")
    elif kind == "single-npy":
        with open(target, "wb") as fh:
            np.save(fh, coeffs.matrices)
    elif kind == "no-fingerprint":
        np.savez(target, coefficients=coeffs.matrices)
    elif kind == "fingerprint-only":  # the layout before the basis was stored
        np.savez(target, coefficients=coeffs.matrices,
                 basis_fingerprint=np.array(coeffs.basis_fingerprint))
    elif kind == "integer-dtype":
        _savez(target, coeffs, coefficients=np.ones(coeffs.matrices.shape, dtype=np.int64))
    elif kind == "not-square":
        _savez(target, coeffs, coefficients=np.zeros((2, 8, 7)))
    elif kind == "wrong-size":
        _savez(target, coeffs, coefficients=np.zeros((2, 7, 7)))
    elif kind in ("nan", "inf"):
        _savez(target, coeffs, coefficients=_with(coeffs.matrices, (-1, 2, 1), float(kind)))
    elif kind == "huge-header":  # a (2**50, 4, 4) header over one 4 x 4 window
        small = WgftCoefficients(np.ones((1, 4, 4), complex), basis_for(path_graph(4)))
        _savez(target, small, coefficients=None)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<c16", "fortran_order": False, "shape": (2**50, 4, 4)})
        with zipfile.ZipFile(target, "a") as archive:
            archive.writestr("coefficients.npy", header.getvalue() + small.matrices.tobytes())
    elif kind in BASIS_DAMAGE:
        _savez(target, coeffs, **BASIS_DAMAGE[kind](coeffs.basis))
    elif kind in FORGED_MEMBERS:
        forge_member(target, kind)


class TestCoefficientsIo:
    def test_round_trip(self, tmp_path, rng):
        basis = random_basis(180, size=7)
        family = rbf_family(basis, count=2)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 7))
        target = tmp_path / "coefficients.npz"
        save_coefficients(target, coeffs)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["coefficients.npz"]
        loaded = load_coefficients(target)
        assert loaded.basis_fingerprint == coeffs.basis_fingerprint
        assert np.array_equal(loaded.matrices, coeffs.matrices)
        rec = mwgft_synthesize(basis, family, loaded)
        assert np.linalg.norm(rec) > 0

    @pytest.mark.parametrize("kind", [UNNORM, NORM])
    def test_basis_survives_reload(self, tmp_path, rng, kind):
        # the GEMMs round differently on a C-ordered basis, so a reload that
        # lost the Fortran order would change the synthesized signal's bits
        basis = random_basis(184, size=9, kind=kind)
        family = rbf_family(basis)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 9))
        target = tmp_path / "coefficients.npz"
        save_coefficients(target, coeffs)
        loaded = load_coefficients(target).basis
        assert loaded is not basis and loaded.kind is basis.kind
        assert loaded.vectors.flags.f_contiguous and not loaded.vectors.flags.writeable
        assert np.array_equal(loaded.vectors, basis.vectors)
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert loaded.fingerprint == basis.fingerprint
        assert np.array_equal(mwgft_synthesize(loaded, family, load_coefficients(target)),
                              mwgft_synthesize(basis, family, coeffs))

    def test_basis_from_file_only_fits_its_own_coefficients(self, tmp_path, rng):
        # the fingerprint is recomputed from the stored basis: coefficients
        # loaded from a file whose vectors were replaced no longer match
        basis = random_basis(185, size=8)
        family = rbf_family(basis, count=2)
        coeffs = mwgft_analyze(basis, family, random_complex(rng, 8))
        target = tmp_path / "coefficients.npz"
        swapped = basis.vectors[:, [0, 1, 2, 4, 3, 5, 6, 7]]
        _savez(target, coeffs, vectors=swapped)
        with pytest.raises(FingerprintMismatch):
            mwgft_synthesize(basis, family, load_coefficients(target))

    @pytest.mark.parametrize("complex_signal", [False, True], ids=["real", "complex"])
    def test_dtype_survives_reload(self, tmp_path, rng, complex_signal):
        # real signal + real windows analyze to float64, and a complex128
        # reload would send synthesis down the complex path
        basis = random_basis(181, size=9)
        family = rbf_family(basis)
        f = random_complex(rng, 9) if complex_signal else rng.standard_normal(9)
        coeffs = mwgft_analyze(basis, family, f)
        target = tmp_path / "coefficients.npz"
        save_coefficients(target, coeffs)
        loaded = load_coefficients(target)
        expected = np.complex128 if complex_signal else np.float64
        assert coeffs.matrices.dtype == loaded.matrices.dtype == expected
        rec = mwgft_synthesize(basis, family, loaded)
        assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)

    @pytest.mark.parametrize("kind", [
        "missing", "truncated", "flipped-byte", "csv", "empty", "single-npy",
        "no-fingerprint", "fingerprint-only", "integer-dtype", "not-square", "wrong-size",
        "nan", "inf", "huge-header", *BASIS_DAMAGE, *FORGED_MEMBERS,
    ])
    def test_damaged_file(self, tmp_path, rng, monkeypatch, kind):
        shape_damage = ("not-square", "wrong-size", *SHAPE_DAMAGE)
        error = DimensionMismatch if kind in shape_damage else ParseError
        basis = random_basis(182, size=8)
        coeffs = mwgft_analyze(basis, rbf_family(basis, count=2), random_complex(rng, 8))
        target = tmp_path / "coefficients.npz"
        save_coefficients(target, coeffs)
        _damage(kind, target, coeffs)
        shapes_read = []
        read_member = transform._read_member
        monkeypatch.setattr(transform, "_read_member", lambda fh, header: (
            shapes_read.append(header[0]) or read_member(fh, header)))
        tracemalloc.start()
        try:
            with pytest.raises(error) as err:
                load_coefficients(target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a forged header sized an allocation before the read failed: 68.7 MiB
        # for vectors-3000, a MemoryError for the larger ones
        assert peak < 2**20
        if kind in ("no-fingerprint", "fingerprint-only", "no-vectors"):
            assert "re-run `mwgft analyze`" in str(err.value)
        if kind in FORGED_MEMBERS:
            descr = FORGED_MEMBERS[kind][1]
            assert ("Python objects" if descr == "|O" else "data ends early") in str(err.value)
        if kind == "vectors-wrong-size":  # refused from its header, before its data
            assert (9, 9) not in shapes_read

    @pytest.mark.parametrize("dtype, stored", [
        (np.int64, np.float64), (np.float32, np.float64),
        (np.complex64, np.complex128), (np.bool_, np.float64),
    ])
    def test_any_dtype_saves_what_loads(self, tmp_path, dtype, stored):
        # these dtypes used to be saved as they were and then refused on load
        coeffs = WgftCoefficients(np.ones((2, 4, 4), dtype), basis_for(path_graph(4)))
        target = tmp_path / "coefficients.npz"
        save_coefficients(target, coeffs)
        loaded = load_coefficients(target)
        assert coeffs.matrices.dtype == loaded.matrices.dtype == stored
        assert np.array_equal(loaded.matrices, np.ones((2, 4, 4)))

    @pytest.mark.parametrize("complex_signal", [False, True], ids=["float64", "complex128"])
    def test_file_is_what_savez_writes(self, tmp_path, rng, monkeypatch, complex_signal):
        # the window-by-window writer keeps the format: ZIP_STORED members
        # with forced zip64 extras and .npy 1.0 headers, byte for byte
        monkeypatch.setattr(time, "time", lambda: 1.7e9)  # the members' zip timestamp
        basis = random_basis(186, size=10)
        f = random_complex(rng, 10) if complex_signal else rng.standard_normal(10)
        coeffs = mwgft_analyze(basis, rbf_family(basis), f)
        target, reference = tmp_path / "coefficients.npz", tmp_path / "reference.npz"
        save_coefficients(target, coeffs)
        _savez(reference, coeffs)
        assert target.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_coefficients_saved_in_c_order(self, tmp_path, rng, layout):
        basis = random_basis(187, size=8)
        matrices = mwgft_analyze(basis, rbf_family(basis), random_complex(rng, 8)).matrices
        if layout == "fortran":
            stored = np.asfortranarray(matrices)
        else:
            stored = np.repeat(matrices, 2, axis=2)[:, :, ::2]
        assert np.array_equal(stored, matrices) and not stored.flags.c_contiguous
        target, reference = tmp_path / "coefficients.npz", tmp_path / "reference.npz"
        save_coefficients(target, WgftCoefficients(stored, basis))
        _savez(reference, WgftCoefficients(matrices, basis))
        with zipfile.ZipFile(target) as got, zipfile.ZipFile(reference) as expected:
            assert got.namelist() == expected.namelist()
            for name in got.namelist():
                assert got.read(name) == expected.read(name), name
        loaded = load_coefficients(target).matrices
        assert loaded.flags.c_contiguous and np.array_equal(loaded, matrices)

    def test_fortran_ordered_foreign_file_loads(self, tmp_path, rng):
        basis = random_basis(188, size=7)
        coeffs = mwgft_analyze(basis, rbf_family(basis), random_complex(rng, 7))
        target = tmp_path / "coefficients.npz"
        _savez(target, coeffs, coefficients=np.asfortranarray(coeffs.matrices))
        loaded = load_coefficients(target)
        assert np.array_equal(loaded.matrices, coeffs.matrices)
        assert np.array_equal(mwgft_synthesize(basis, rbf_family(basis), loaded),
                              mwgft_synthesize(basis, rbf_family(basis), coeffs))

    def test_validation(self):
        basis = basis_for(path_graph(3))
        with pytest.raises(DimensionMismatch):
            WgftCoefficients((np.zeros((3, 4)),), basis)
        with pytest.raises(DimensionMismatch):
            WgftCoefficients((), basis)
        with pytest.raises(DimensionMismatch):
            WgftCoefficients((np.zeros((3, 3)), np.zeros((4, 4))), basis)
        with pytest.raises(DimensionMismatch):
            WgftCoefficients(np.zeros((1, 4, 4)), basis)

    @pytest.mark.parametrize("values", [np.full((1, 2, 2), "x"), np.full((1, 2, 2), {}, object)],
                             ids=["string", "object"])
    def test_non_numeric_matrices_raise_invalid_parameter(self, values):
        # the float64 cast used to leak numpy's bare ValueError or TypeError
        with pytest.raises(InvalidParameter, match="^coefficients must be numbers: "):
            WgftCoefficients(values, basis_for(path_graph(2)))

    def test_analysis_buffer_is_not_copied(self, rng):
        basis = random_basis(183, size=6)
        coeffs = mwgft_analyze(basis, rbf_family(basis), random_complex(rng, 6))
        assert coeffs.matrices.shape == (3, 6, 6) and coeffs.matrices.flags.owndata
        assert WgftCoefficients(coeffs.matrices, basis).matrices is coeffs.matrices
        assert spectrogram(coeffs).shape == (6, 6)


class TestCoefficientStacks:
    """save_coefficients, spectrogram and mwgft_synthesize take a
    WgftCoefficients and the streamed stacks of the analysis and of the
    coefficient file alike."""

    @pytest.mark.parametrize("complex_signal", [False, True], ids=["float64", "complex128"])
    def test_stream_and_its_array_give_the_same_bits(
        self, tmp_path, rng, monkeypatch, complex_signal
    ):
        monkeypatch.setattr(time, "time", lambda: 1.7e9)  # the members' zip timestamp
        basis = random_basis(189, size=10)
        family = rbf_family(basis, count=4)
        f = random_complex(rng, 10) if complex_signal else rng.standard_normal(10)
        stream = _analysis(basis, family, f)
        coeffs = WgftCoefficients(stream.collect(), basis)
        save_coefficients(tmp_path / "stream.npz", stream)
        save_coefficients(tmp_path / "array.npz", coeffs)
        assert (tmp_path / "stream.npz").read_bytes() == (tmp_path / "array.npz").read_bytes()
        assert spectrogram(stream).tobytes() == spectrogram(coeffs).tobytes()
        expected = mwgft_synthesize(basis, family, coeffs)
        for stack in (stream, _read_coefficients(tmp_path / "stream.npz")):
            got = mwgft_synthesize(basis, family, stack)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_file_stream_is_refused_before_any_window_is_read(self, tmp_path, rng):
        basis = random_basis(190, size=9)
        family = rbf_family(basis, count=3)
        target = tmp_path / "coefficients.npz"
        save_coefficients(target, _analysis(basis, family, random_complex(rng, 9)))
        stream = _read_coefficients(target)
        target.unlink()  # from here on, reading a window raises ParseError
        other = random_basis(191, size=9)
        with pytest.raises(FingerprintMismatch):
            mwgft_synthesize(other, rbf_family(other, count=3), stream)
        with pytest.raises(DimensionMismatch, match="^3 coefficient matrices for 2 windows$"):
            mwgft_synthesize(basis, rbf_family(basis, count=2), stream)
        with pytest.raises(ParseError):
            mwgft_synthesize(basis, family, stream)

    def test_save_copies_no_member_whole(self, tmp_path, rng):
        # every member is written straight from array memory; the .npy writer
        # of numpy copies the Fortran-ordered vectors into one N x N buffer
        n = 400
        basis = random_basis(192, size=n)
        assert basis.vectors.flags.f_contiguous
        coeffs = mwgft_analyze(basis, rbf_family(basis, count=1), rng.standard_normal(n))
        tracemalloc.start()
        try:
            save_coefficients(tmp_path / "coefficients.npz", coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2, peak


EDGE_FLOATS = [0.0, 5e-324, 1e-05, 0.1, 1 / 3, 1e16, 1.7976931348623157e308, 2.5]

# matrices whose CSV must match the cell-by-cell csv.writer oracle byte for byte
SPECTROGRAM_CSV_CASES = {
    "layout": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "edge-values": np.array(EDGE_FLOATS).reshape(2, 4),
    "negative": -np.array(EDGE_FLOATS).reshape(4, 2),
    "inf-nan": np.array([[np.inf, -np.inf, 1.0], [np.nan, 0.5, -0.0]]),
    "float32": np.array([[0.1, 1 / 3], [2.5e-7, 3.4e38]], dtype=np.float32),
    "int": np.arange(-3, 9, dtype=np.int64).reshape(3, 4),
    "one-by-one": np.array([[7.25]]),
    "two-by-five": np.random.default_rng(5).standard_normal((2, 5)) ** 2,
}


class TestSpectrogramFiles:
    @pytest.mark.parametrize("case", list(SPECTROGRAM_CSV_CASES))
    def test_csv_layout(self, tmp_path, case):
        matrix = SPECTROGRAM_CSV_CASES[case]
        target, expected = tmp_path / "spec.csv", tmp_path / "oracle.csv"
        save_spectrogram_csv(target, matrix)
        save_spectrogram_csv_reference(expected, matrix)
        assert target.read_bytes() == expected.read_bytes()
        if case == "layout":
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


ARRAY_HOLDERS = {
    "SpectralBasis": lambda basis, family: basis_for(path_graph(4)),
    "SpectralMagnitudes": lambda basis, family: spectral_magnitudes(basis),
    "WindowFamily": lambda basis, family: WindowFamily.with_same_synthesis(family.analysis),
    "ConditionReport": lambda basis, family: check_nondegeneracy(basis, family),
    "WgftCoefficients": lambda basis, family: WgftCoefficients(np.ones((1, 4, 4)), basis),
    "FrameBounds": lambda basis, family: FrameBounds(1.0, 2.0, np.ones(4)),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_by_identity(name):
    basis = basis_for(path_graph(4))
    family = WindowFamily.with_same_synthesis([np.ones(4)])
    a, b = (ARRAY_HOLDERS[name](basis, family) for _ in range(2))
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b}) == 2
