import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwgft import (
    DimensionMismatch,
    IndexOutOfRange,
    apply_filter,
    atom,
    convolve,
    gft,
    igft,
    modulate,
    path_graph,
    spectral_magnitudes,
    translate,
    translate_all,
    translate_norms_sq,
    translation_inner_product,
    translation_inner_products,
)
from helpers import basis_for, random_basis, random_complex
from oracles import inner, path_eigenvectors, tip_direct, translate_via_convolution


class TestModulate:
    def test_zeroth_mode_is_identity_unnormalized(self, rng):
        basis = random_basis(70)
        f = random_complex(rng, basis.size)
        assert np.allclose(modulate(basis, 0, f), f, atol=1e-12)

    def test_zero_signal(self):
        basis = random_basis(71)
        assert np.array_equal(modulate(basis, 2, np.zeros(basis.size)), np.zeros(basis.size))

    def test_four_path_impulse_against_closed_form(self):
        basis = basis_for(path_graph(4))
        delta2 = np.zeros(4)
        delta2[1] = 1.0
        result = modulate(basis, 1, delta2)
        expected_value = 2.0 * path_eigenvectors(4)[1, 1]  # sqrt(N) * chi_1(2)
        assert np.isclose(result[1], expected_value, atol=1e-10)
        assert np.allclose(np.delete(result, 1), 0.0)

    def test_index_check(self, rng):
        basis = random_basis(72)
        f = random_complex(rng, basis.size)
        with pytest.raises(IndexOutOfRange):
            modulate(basis, basis.size, f)
        with pytest.raises(IndexOutOfRange):
            modulate(basis, -1, f)


class TestConvolve:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_commutative(self, seed):
        rng = np.random.default_rng(seed)
        basis = random_basis(int(rng.integers(0, 2**31)), size=10)
        f, g = random_complex(rng, 10), random_complex(rng, 10)
        assert np.allclose(convolve(basis, f, g), convolve(basis, g, f), atol=1e-10)

    def test_identity_filter(self, rng):
        basis = random_basis(73)
        f = random_complex(rng, basis.size)
        identity_window = igft(basis, np.ones(basis.size))
        assert np.allclose(convolve(basis, f, identity_window), f, atol=1e-10)

    def test_sum_form_vs_matrix_form(self, rng):
        basis = random_basis(74, size=12)
        f, g = random_complex(rng, 12), random_complex(rng, 12)
        f_hat, g_hat = gft(basis, f), gft(basis, g)
        by_sum = np.array(
            [sum(f_hat[l] * g_hat[l] * basis.vectors[i, l] for l in range(12)) for i in range(12)]
        )
        by_matrix = basis.vectors @ np.diag(g_hat) @ basis.vectors.conj().T @ f
        assert np.allclose(convolve(basis, f, g), by_sum, atol=1e-10)
        assert np.allclose(by_sum, by_matrix, atol=1e-10)


class TestTranslate:
    def test_dc_only_signal_spreads_flat(self, rng):
        basis = random_basis(75)
        n = basis.size
        spectrum = np.zeros(n, dtype=complex)
        spectrum[0] = rng.standard_normal() + 1j * rng.standard_normal()
        f = igft(basis, spectrum)
        for vertex in (1, n // 2, n):
            expected = spectrum[0] / np.sqrt(n) * np.ones(n)
            assert np.allclose(translate(basis, vertex, f), expected, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_convolution_characterization(self, seed):
        rng = np.random.default_rng(seed)
        basis = random_basis(int(rng.integers(0, 2**31)), size=9)
        f = random_complex(rng, 9)
        vertex = int(rng.integers(1, 10))
        assert np.allclose(
            translate(basis, vertex, f),
            translate_via_convolution(basis, vertex, f),
            atol=1e-10,
        )

    def test_mean_preserved_unnormalized(self, rng):
        basis = random_basis(76)
        f = random_complex(rng, basis.size)
        for vertex in range(1, basis.size + 1):
            shifted = translate(basis, vertex, f)
            assert np.isclose(np.abs(shifted.sum()), np.abs(f.sum()), rtol=1e-10, atol=1e-12)

    def test_norm_bounds(self, rng):
        basis = random_basis(77)
        nu = spectral_magnitudes(basis).by_vertex
        f = random_complex(rng, basis.size)
        f_norm = np.linalg.norm(f)
        dc = np.abs(gft(basis, f)[0])
        for vertex in range(1, basis.size + 1):
            t_norm = np.linalg.norm(translate(basis, vertex, f))
            assert t_norm <= np.sqrt(basis.size) * nu[vertex - 1] * f_norm * (1 + 1e-12)
            assert dc <= t_norm * (1 + 1e-12)  # unnormalized kind only

    def test_index_check(self, rng):
        basis = random_basis(78)
        f = random_complex(rng, basis.size)
        for vertex in (0, basis.size + 1):
            with pytest.raises(IndexOutOfRange):
                translate(basis, vertex, f)

    def test_translate_all_columns(self, rng):
        basis = random_basis(79, size=10)
        g = random_complex(rng, 10)
        g_hat = gft(basis, g)
        all_translates = translate_all(basis, g_hat)
        for vertex in range(1, 11):
            assert np.allclose(
                all_translates[:, vertex - 1], translate(basis, vertex, g), atol=1e-12
            )

    def test_row_column_norm_identity(self, rng):
        basis = random_basis(80, size=12)
        g_hat = gft(basis, random_complex(rng, 12))
        all_translates = translate_all(basis, g_hat)
        row_energy = np.sum(np.abs(all_translates) ** 2, axis=1)
        expected = translate_norms_sq(basis, g_hat)
        assert np.allclose(row_energy, expected, rtol=1e-10)


class TestAtom:
    def test_equals_composition(self, rng):
        basis = random_basis(81, size=10)
        g = random_complex(rng, 10)
        u = basis.vectors
        for n, k in [(1, 0), (4, 3), (10, 9), (7, 2)]:
            composed = modulate(basis, k, translate(basis, n, g))
            assert np.allclose(atom(basis, g, n, k), composed, atol=1e-12)
            # g_{n,k}(i) = N chi_k(i) sum_ell ghat(ell) conj(chi_ell(n)) chi_ell(i)
            single_pass = 10 * u[:, k] * (u @ (gft(basis, g) * u[n - 1, :]))
            assert np.allclose(atom(basis, g, n, k), single_pass, atol=1e-12)

    def test_zeroth_frequency_is_translation(self, rng):
        basis = random_basis(82)
        g = random_complex(rng, basis.size)
        assert np.allclose(atom(basis, g, 3, 0), translate(basis, 3, g), atol=1e-12)

    def test_zero_window(self):
        basis = random_basis(83)
        assert np.allclose(atom(basis, np.zeros(basis.size), 1, 1), 0.0)

    def test_index_checks(self, rng):
        basis = random_basis(84)
        g = random_complex(rng, basis.size)
        with pytest.raises(IndexOutOfRange):
            atom(basis, g, 0, 0)
        with pytest.raises(IndexOutOfRange):
            atom(basis, g, 1, basis.size)


class TestApplyFilter:
    def test_flat_spectrum_is_identity(self, rng):
        basis = random_basis(85)
        f = random_complex(rng, basis.size)
        assert np.allclose(apply_filter(basis, np.ones(basis.size), f), f, atol=1e-12)

    def test_impulse_response_is_scaled_translate(self, rng):
        basis = random_basis(86)
        g_hat = random_complex(rng, basis.size)
        g = igft(basis, g_hat)
        for vertex in (1, basis.size):
            delta = np.zeros(basis.size)
            delta[vertex - 1] = 1.0
            assert np.allclose(
                apply_filter(basis, g_hat, delta),
                translate(basis, vertex, g) / np.sqrt(basis.size),
                atol=1e-12,
            )

    def test_rank_one_projection(self, rng):
        basis = random_basis(87)
        f = random_complex(rng, basis.size)
        indicator = np.zeros(basis.size)
        indicator[0] = 1.0
        expected = gft(basis, f)[0] * basis.vectors[:, 0]
        assert np.allclose(apply_filter(basis, indicator, f), expected, atol=1e-12)

    def test_shape_check(self, rng):
        basis = random_basis(88)
        with pytest.raises(DimensionMismatch):
            apply_filter(basis, np.ones(basis.size + 1), random_complex(rng, basis.size))


class TestTranslationInnerProduct:
    def test_self_product_is_translate_norm(self, rng):
        basis = random_basis(90)
        g = random_complex(rng, basis.size)
        g_hat = gft(basis, g)
        for vertex in range(1, basis.size + 1):
            value = translation_inner_product(basis, g_hat, g_hat, vertex)
            assert abs(value.imag) <= 1e-12 * abs(value.real)
            assert np.isclose(
                value.real, np.linalg.norm(translate(basis, vertex, g)) ** 2, rtol=1e-10
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_translate_and_dot(self, seed):
        rng = np.random.default_rng(seed)
        basis = random_basis(int(rng.integers(0, 2**31)), size=10)
        g, gamma = random_complex(rng, 10), random_complex(rng, 10)
        vertex = int(rng.integers(1, 11))
        spectral = translation_inner_product(basis, gft(basis, g), gft(basis, gamma), vertex)
        direct = tip_direct(basis, g, gamma, vertex)
        assert np.isclose(spectral, direct, rtol=1e-10, atol=1e-12)

    def test_magnitude_bound(self, rng):
        basis = random_basis(91)
        nu = spectral_magnitudes(basis).by_vertex
        g, gamma = random_complex(rng, basis.size), random_complex(rng, basis.size)
        bound_scale = basis.size * np.linalg.norm(g) * np.linalg.norm(gamma)
        for vertex in range(1, basis.size + 1):
            value = translation_inner_product(basis, gft(basis, g), gft(basis, gamma), vertex)
            assert abs(value) <= nu[vertex - 1] ** 2 * bound_scale * (1 + 1e-12)

    def test_vectorized_matches_scalar(self, rng):
        basis = random_basis(92)
        g_hat = random_complex(rng, basis.size)
        gamma_hat = random_complex(rng, basis.size)
        batch = translation_inner_products(basis, g_hat, gamma_hat)
        for vertex in range(1, basis.size + 1):
            assert np.isclose(
                batch[vertex - 1],
                translation_inner_product(basis, g_hat, gamma_hat, vertex),
                rtol=1e-12,
            )

    @pytest.mark.parametrize("which", ["g_hat", "gamma_hat"])
    def test_spectrum_shape_check(self, which):
        basis = basis_for(path_graph(6))
        spectra = {"g_hat": np.ones(6), "gamma_hat": np.ones(6), which: np.ones(1)}
        with pytest.raises(DimensionMismatch):
            translation_inner_product(basis, spectra["g_hat"], spectra["gamma_hat"], 2)

    def test_index_check(self, rng):
        basis = random_basis(94)
        g_hat = random_complex(rng, basis.size)
        for vertex in (0, basis.size + 1):
            with pytest.raises(IndexOutOfRange, match=f"outside 1..{basis.size}"):
                translation_inner_product(basis, g_hat, g_hat, vertex)

    def test_inner_product_convention(self, rng):
        # <T_n gamma, T_n g> is linear in gamma and conjugate-linear in g
        basis = random_basis(93)
        g, gamma = random_complex(rng, basis.size), random_complex(rng, basis.size)
        tg = translate(basis, 2, g)
        tgam = translate(basis, 2, gamma)
        value = translation_inner_product(basis, gft(basis, g), gft(basis, gamma), 2)
        assert np.isclose(value, inner(tgam, tg), rtol=1e-10)
