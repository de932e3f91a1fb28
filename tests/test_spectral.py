import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwgft import (
    DimensionMismatch,
    InvalidParameter,
    MultipleZeroEigenvalues,
    SpectralBasis,
    eigendecompose,
    gft,
    igft,
    laplacian,
    path_graph,
    spectral_magnitudes,
)
from mwgft.spectral import save_eigenvalues_csv, save_vectors_csv
from helpers import NORM, UNNORM, basis_for, random_basis, random_complex
from oracles import path_eigenvalues, path_eigenvectors


class TestEigendecompose:
    def test_two_path(self):
        basis = basis_for(path_graph(2))
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.vectors, [[s, s], [s, -s]], atol=1e-12)

    def test_four_path_frozen_values(self):
        # 4-vertex path spectrum: {0, 2-sqrt(2), 2, 2+sqrt(2)}
        basis = basis_for(path_graph(4))
        expected = np.sort([0.0, 2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        assert np.allclose(basis.eigenvalues, expected, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 50])
    def test_path_closed_form(self, n):
        basis = basis_for(path_graph(n))
        assert np.allclose(basis.eigenvalues, path_eigenvalues(n), atol=1e-10)
        assert np.allclose(basis.vectors, path_eigenvectors(n), atol=1e-8)

    def test_normalized_spectrum_in_0_2(self):
        basis = basis_for(path_graph(50), NORM)
        assert basis.eigenvalues[-1] <= 2.0 + 1e-12
        assert basis.eigenvalues[0] == 0.0

    def test_orthonormal(self):
        basis = random_basis(42)
        gram = basis.vectors.T @ basis.vectors
        assert np.allclose(gram, np.eye(basis.size), atol=1e-10)

    def test_ascending_and_simple_zero(self):
        basis = random_basis(43)
        assert np.all(np.diff(basis.eigenvalues) >= -1e-14)
        assert basis.eigenvalues[1] > 0

    def test_deterministic_bitwise(self):
        lap = laplacian(path_graph(30), UNNORM)
        a = eigendecompose(lap, UNNORM)
        b = eigendecompose(lap, UNNORM)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.fingerprint == b.fingerprint

    def test_sign_convention(self):
        basis = random_basis(44)
        mags = np.abs(basis.vectors)
        idx = (mags >= mags.max(axis=0) * (1.0 - 1e-6)).argmax(axis=0)
        pivots = basis.vectors[idx, np.arange(basis.size)]
        assert np.all(pivots > 0)

    def test_sign_convention_breaks_ties_at_lowest_vertex(self):
        # the 2-path's second eigenvector is +-(1, -1)/sqrt(2): an exact
        # magnitude tie, resolved by making the first entry positive
        basis = basis_for(path_graph(2))
        assert basis.vectors[0, 1] > 0
        assert basis.vectors[1, 1] < 0

    def test_constant_zeroth_vector_unnormalized(self):
        basis = random_basis(45)
        n = basis.size
        assert np.allclose(basis.vectors[:, 0], np.full(n, 1.0 / np.sqrt(n)), atol=1e-10)

    def test_disconnected_input_detected(self):
        # block-diagonal Laplacian of two separate edges
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        lap = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
        with pytest.raises(MultipleZeroEigenvalues):
            eigendecompose(lap, UNNORM)

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidParameter):
            eigendecompose(bad, UNNORM)

    def test_non_laplacian_rejected(self):
        with pytest.raises(InvalidParameter):
            eigendecompose(np.eye(3), UNNORM)

    def test_complex_vectors_rejected(self):
        basis = basis_for(path_graph(4))
        with pytest.raises(InvalidParameter):
            SpectralBasis(basis.eigenvalues, basis.vectors * 1j, basis.kind)

    def test_fingerprint_distinguishes_kind(self):
        g = path_graph(10)
        a = basis_for(g, UNNORM)
        b = basis_for(g, NORM)
        assert a.fingerprint != b.fingerprint


class TestTransformPair:
    def test_eigenvector_maps_to_coordinate(self):
        basis = random_basis(50)
        spectrum = gft(basis, basis.vectors[:, 3])
        expected = np.zeros(basis.size)
        expected[3] = 1.0
        assert np.allclose(spectrum, expected, atol=1e-10)

    def test_constant_signal_is_dc_only(self):
        basis = random_basis(51)
        n = basis.size
        spectrum = gft(basis, np.ones(n))
        assert np.isclose(spectrum[0], np.sqrt(n), atol=1e-10)
        assert np.allclose(spectrum[1:], 0.0, atol=1e-10)

    def test_dc_magnitude_is_scaled_mean(self, rng):
        basis = random_basis(52)
        f = random_complex(rng, basis.size)
        assert np.isclose(
            np.abs(gft(basis, f)[0]), np.abs(f.sum()) / np.sqrt(basis.size), rtol=1e-12
        )

    def test_igft_of_coordinate_vector(self):
        basis = random_basis(53)
        e0 = np.zeros(basis.size)
        e0[0] = 1.0
        assert np.allclose(igft(basis, e0), basis.vectors[:, 0], atol=1e-12)

    def test_zero_round_trip(self):
        basis = random_basis(54)
        assert np.array_equal(igft(basis, np.zeros(basis.size)), np.zeros(basis.size))

    def test_shape_checks(self):
        basis = random_basis(55)
        with pytest.raises(DimensionMismatch):
            gft(basis, np.zeros(basis.size + 1))
        with pytest.raises(DimensionMismatch):
            igft(basis, np.zeros(basis.size + 2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_and_parseval(self, seed):
        rng = np.random.default_rng(seed)
        basis = random_basis(int(rng.integers(0, 2**31)), size=30)
        f = random_complex(rng, 30)
        spectrum = gft(basis, f)
        assert np.linalg.norm(igft(basis, spectrum) - f) <= 1e-10 * np.linalg.norm(f)
        assert np.isclose(np.linalg.norm(spectrum), np.linalg.norm(f), rtol=1e-10)


class TestSpectralMagnitudes:
    def test_two_path(self):
        mags = spectral_magnitudes(basis_for(path_graph(2)))
        s = 1.0 / np.sqrt(2.0)
        assert np.isclose(mags.overall, s)
        assert np.allclose(mags.by_vertex, [s, s])

    def test_dc_column_unnormalized(self):
        basis = random_basis(60, size=10)
        mags = spectral_magnitudes(basis)
        assert np.isclose(mags.by_frequency[0], 1.0 / np.sqrt(10), atol=1e-10)

    def test_maxima_identity(self):
        basis = random_basis(61, size=10)
        mags = spectral_magnitudes(basis)
        # the two maxima scan the same matrix, so they agree exactly
        assert mags.by_frequency.max() == mags.by_vertex.max() == mags.overall
        assert 0 < mags.overall <= 1.0


class TestCsvExport:
    def test_eigenvalue_export(self, tmp_path):
        basis = basis_for(path_graph(5))
        target = tmp_path / "eigenvalues.csv"
        save_eigenvalues_csv(target, basis)
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "ell,eigenvalue"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.allclose(values, basis.eigenvalues)

    def test_vector_export(self, tmp_path):
        basis = basis_for(path_graph(4))
        target = tmp_path / "vectors.csv"
        save_vectors_csv(target, basis)
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("vertex,chi_0")
        row = np.array([float(v) for v in lines[1].split(",")[1:]])
        assert np.allclose(row, basis.vectors[0], rtol=1e-15)
