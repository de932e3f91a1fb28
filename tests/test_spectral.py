import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwgft import (
    DimensionMismatch,
    EigSolverFailure,
    FingerprintMismatch,
    InvalidParameter,
    InvalidSize,
    MultipleZeroEigenvalues,
    SpectralBasis,
    WindowFamily,
    build_graph,
    check_basis,
    eigendecompose,
    gft,
    igft,
    laplacian,
    mwgft_analyze,
    mwgft_synthesize,
    path_graph,
    random_connected_graph,
    rbf_prototype,
    shifted_family,
    spectral_magnitudes,
    uniform_shifts,
)
from mwgft.spectral import _fix_signs, save_eigenvalues_csv, save_vectors_csv
from helpers import NORM, UNNORM, basis_for, random_basis, random_complex, star_graph
from oracles import (
    fix_signs_reference,
    rotate_degenerate_eigenspaces,
    path_eigenvalues,
    path_eigenvectors,
    save_eigenvalues_csv_reference,
    save_vectors_csv_reference,
)


def _synthesizes(basis, other) -> bool:
    """Whether :func:`mwgft_synthesize` takes ``other`` for coefficients
    analyzed on ``basis``, or refuses it with :class:`FingerprintMismatch`."""
    family = WindowFamily.with_normalized_synthesis(shifted_family(
        rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 2), basis))
    coeffs = mwgft_analyze(basis, family, np.ones(basis.size))
    try:
        mwgft_synthesize(other, family, coeffs)
    except FingerprintMismatch:
        return False
    return True


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

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["scale-from-max", "scale-from-min"])
    def test_asymmetry_tolerance_is_that_of_allclose(self, sign):
        # an asymmetry of exactly 1e-12 * max(1, max |L|) passes and the next
        # float up is refused, as np.allclose(L, L.T, rtol=0, atol=...) decided;
        # eigh reads the lower triangle, so the upper one takes the offset
        lap = sign * laplacian(path_graph(6), UNNORM)  # max |L| = 2
        atol = 1e-12 * 2.0
        for offset, symmetric in ((atol, True), (np.nextafter(atol, np.inf), False)):
            skewed = lap.copy()
            skewed[0, 3] = offset
            assert bool(np.allclose(skewed, skewed.T, rtol=0.0, atol=atol)) is symmetric
            try:
                eigendecompose(skewed, UNNORM)
                refused = False
            except InvalidParameter as exc:  # -L fails as no Laplacian, after the check
                refused = "must be symmetric" in str(exc)
            assert refused is not symmetric

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fix_signs_is_the_out_of_place_result(self, seed):
        # exact, near and just-missed magnitude ties, and signed zeros
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        vectors = rng.standard_normal((n, n))
        # row 0 is the pivot when within PIVOT_TIE_RTOL of row 1's magnitude
        vectors[1] = rng.choice([-4.0, 4.0], n)
        vectors[0] = -vectors[1] * (1.0 - rng.choice([0.0, 5e-7, 1e-6, 2e-6], n))
        vectors[rng.random((n, n)) < 0.2] = rng.choice([0.0, -0.0])
        vectors = np.asfortranarray(vectors)
        expected = fix_signs_reference(vectors)
        _fix_signs(vectors)
        assert vectors.flags.f_contiguous
        assert np.array_equal(vectors.view(np.uint64), expected.view(np.uint64))

    def test_peak_allocation(self):
        # |L - L^T| for the symmetry check, eigh's C-ordered vectors and their
        # Fortran-ordered copy: 3 N^2 float64; the sign fix adds no N x N array
        n = 300
        lap = laplacian(random_connected_graph(n, seed=7, extra_edges=600), NORM)
        eigendecompose(lap, NORM)  # numpy sets up its lazy state on a first call
        tracemalloc.start()
        try:
            eigendecompose(lap, NORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8 + 16_000, peak

    def test_non_finite_rejected(self):
        # a finite but huge weight overflows to inf in the unnormalized Laplacian
        with np.errstate(over="ignore"):
            huge = laplacian(build_graph(2, [(1, 2, 1e308)]), UNNORM)
        nan = np.array([[1.0, -1.0], [-1.0, np.nan]])
        for lap in (huge, nan):
            with pytest.raises(InvalidParameter, match="non-finite"):
                eigendecompose(lap, UNNORM)

    def test_non_laplacian_rejected(self):
        with pytest.raises(InvalidParameter):
            eigendecompose(np.eye(3), UNNORM)

    @pytest.mark.parametrize("lap, error, message", [
        (np.zeros((2, 3)), DimensionMismatch, r"^laplacian must be square, got shape \(2, 3\)$"),
        (np.zeros((1, 1)), InvalidSize, "^need at least two vertices to decompose$"),
    ], ids=["non-square", "one-vertex"])
    def test_wrong_shape_rejected(self, lap, error, message):
        with pytest.raises(error, match=message):
            eigendecompose(lap, UNNORM)

    def test_solver_failure_is_typed(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigSolverFailure, match="^Eigenvalues did not converge$"):
            eigendecompose(laplacian(path_graph(4), UNNORM), UNNORM)

    def test_inconsistent_basis_rejected(self):
        basis = basis_for(path_graph(4))
        with pytest.raises(DimensionMismatch, match=r"^eigenvalues \(3,\) and vectors \(4, 4\)"):
            SpectralBasis(basis.eigenvalues[:3], basis.vectors, basis.kind)

    def test_complex_vectors_rejected(self):
        basis = basis_for(path_graph(4))
        with pytest.raises(InvalidParameter):
            SpectralBasis(basis.eigenvalues, basis.vectors * 1j, basis.kind)

    def test_another_kind_is_refused(self):
        g = path_graph(10)
        a = basis_for(g, UNNORM)
        assert not _synthesizes(a, basis_for(g, NORM))
        assert not _synthesizes(a, SpectralBasis(a.eigenvalues, a.vectors, NORM))

    def test_arrays_are_read_only(self):
        basis = basis_for(path_graph(4))
        with pytest.raises(ValueError, match="read-only"):
            basis.eigenvalues[1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            basis.vectors[0, 0] = 5.0
        fresh = basis_for(path_graph(4))
        assert np.array_equal(basis.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(basis.vectors, fresh.vectors)

    @pytest.mark.parametrize("kind", [UNNORM, NORM])
    def test_vectors_are_fortran_ordered(self, kind):
        # the GEMMs downstream round differently on a C-ordered basis, so the
        # preset artifacts' bytes depend on this layout
        assert basis_for(random_connected_graph(30, 4), kind).vectors.flags.f_contiguous

    def test_basis_compares_by_value(self):
        basis = basis_for(path_graph(6))
        nudged = basis.vectors.copy()
        nudged[2, 3] = np.nextafter(nudged[2, 3], 1.0)
        assert not _synthesizes(basis, SpectralBasis(basis.eigenvalues, nudged, basis.kind))
        # values are compared, not their memory order or the sign of a zero
        c_ordered = SpectralBasis(basis.eigenvalues, np.ascontiguousarray(basis.vectors), basis.kind)
        assert c_ordered.vectors.flags.c_contiguous
        assert _synthesizes(basis, c_ordered)
        assert basis.eigenvalues[0] == 0.0
        negative_zero = np.concatenate([[-0.0], basis.eigenvalues[1:]])
        assert _synthesizes(basis, SpectralBasis(negative_zero, basis.vectors, basis.kind))

    def test_caller_arrays_are_viewed_not_copied(self):
        vals, vecs = np.array([0.0, 2.0]), np.eye(2)
        basis = SpectralBasis(vals, vecs, UNNORM)
        assert np.shares_memory(basis.eigenvalues, vals) and np.shares_memory(basis.vectors, vecs)
        assert vals.flags.writeable and vecs.flags.writeable


class TestCheckBasis:
    @pytest.mark.parametrize("kind", [UNNORM, NORM])
    def test_own_basis_passes(self, kind):
        graph = random_connected_graph(40, 8, extra_edges=60)
        lap = laplacian(graph, kind)
        residual, orthogonality = check_basis(eigendecompose(lap, kind), lap, kind)
        assert 0 <= residual <= 1e-13 and 0 <= orthogonality <= 1e-13

    def test_rotation_inside_an_eigenspace_passes(self):
        # another basis of the star's 10-fold eigenvalue still decomposes L,
        # and analysis and synthesis both take it from the same file
        lap = laplacian(star_graph(12), UNNORM)
        rotated, did_rotate = rotate_degenerate_eigenspaces(
            eigendecompose(lap, UNNORM), np.random.default_rng(3))
        assert did_rotate
        check_basis(rotated, lap, UNNORM)

    def test_other_graph_of_the_same_size_raises(self):
        basis = basis_for(random_connected_graph(30, 1), NORM)
        lap = laplacian(random_connected_graph(30, 2), NORM)
        with pytest.raises(FingerprintMismatch, match="eigen-residual"):
            check_basis(basis, lap, NORM)

    def test_swapped_column_raises(self):
        basis = basis_for(path_graph(12))
        order = np.arange(12)
        order[[4, 9]] = [9, 4]
        swapped = SpectralBasis(basis.eigenvalues, basis.vectors[:, order], basis.kind)
        with pytest.raises(FingerprintMismatch, match="eigen-residual"):
            check_basis(swapped, laplacian(path_graph(12), UNNORM), UNNORM)

    def test_non_orthogonal_basis_raises(self):
        # stretched columns still satisfy L u = lambda u; only U^T U != I shows
        basis = basis_for(path_graph(12))
        stretched = SpectralBasis(basis.eigenvalues, basis.vectors * (1 + 1e-6), basis.kind)
        with pytest.raises(FingerprintMismatch, match=r"orthogonality defect [12]\.\d+e-06"):
            check_basis(stretched, laplacian(path_graph(12), UNNORM), UNNORM)

    def test_other_kind_raises(self):
        graph = path_graph(10)
        with pytest.raises(FingerprintMismatch, match="normalized"):
            check_basis(basis_for(graph, UNNORM), laplacian(graph, NORM), NORM)

    def test_other_size_raises(self):
        with pytest.raises(DimensionMismatch):
            check_basis(basis_for(path_graph(5)), laplacian(path_graph(6), UNNORM), UNNORM)


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
        expected = tmp_path / "oracle.csv"
        for other in (basis, random_basis(191, size=30, kind=NORM)):
            save_eigenvalues_csv(target, other)
            save_eigenvalues_csv_reference(expected, other)
            assert target.read_bytes() == expected.read_bytes()

    def test_vector_export(self, tmp_path):
        basis = basis_for(path_graph(4))
        target = tmp_path / "vectors.csv"
        save_vectors_csv(target, basis)
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("vertex,chi_0")
        row = np.array([float(v) for v in lines[1].split(",")[1:]])
        assert np.allclose(row, basis.vectors[0], rtol=1e-15)
        expected = tmp_path / "oracle.csv"
        for other in (basis, random_basis(190, size=30, kind=NORM)):
            save_vectors_csv(target, other)
            save_vectors_csv_reference(expected, other)
            assert target.read_bytes() == expected.read_bytes()
