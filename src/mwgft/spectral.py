"""Spectral decomposition of graph Laplacians and the graph Fourier transform.

The Laplacian is real symmetric positive semidefinite, so it has a full
orthonormal eigenbasis with real eigenvalues.  The graph Fourier transform
(GFT) of a vertex signal is its coefficient vector in that basis; the sign
of each eigenvector is pinned deterministically so repeated runs agree
bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EigSolverFailure,
    FingerprintMismatch,
    InvalidParameter,
    InvalidSize,
    MultipleZeroEigenvalues,
)
from .graph import LaplacianKind, read_only
from .tables import write_table

#: An eigenvalue counts as zero when it is at most this factor times
#: ``max(1, largest eigenvalue)``.
ZERO_EIGENVALUE_RTOL = 1e-10

#: A stored basis passes :func:`check_basis` when its probe residual and
#: orthogonality defect are at most this factor times ``max(1, largest
#: eigenvalue)``.
BASIS_CHECK_RTOL = 1e-10

#: Number of fixed-seed probe columns :func:`check_basis` applies.
BASIS_PROBES = 4

#: Entries within this relative distance of a column's maximum magnitude are
#: treated as tied when picking the sign-pinning pivot.
PIVOT_TIE_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Eigendecomposition of a graph Laplacian.

    ``eigenvalues`` are sorted ascending; column ``ell`` of ``vectors`` is the
    (real, unit-norm) eigenvector for ``eigenvalues[ell]``; complex vectors
    raise :class:`InvalidParameter`.  Both are stored as read-only views, so
    the cached :attr:`fingerprint` cannot go stale.  Frequencies are indexed
    0..N-1 throughout the package.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    kind: LaplacianKind

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        if np.iscomplexobj(self.vectors):
            raise InvalidParameter("eigenvectors of a graph Laplacian must be real")
        vecs = np.asarray(self.vectors, dtype=float)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise DimensionMismatch(
                f"eigenvalues {vals.shape} and vectors {vecs.shape} are inconsistent"
            )
        object.__setattr__(self, "eigenvalues", read_only(vals))
        object.__setattr__(self, "vectors", read_only(vecs))

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @cached_property
    def fingerprint(self) -> str:
        """Exact hash of this decomposition: kind, size, eigenvalues and
        eigenvectors, so another basis of a repeated eigenvalue differs too."""
        h = hashlib.sha256()
        h.update(self.kind.value.encode())
        h.update(str(self.size).encode())
        h.update(np.ascontiguousarray(self.eigenvalues))
        # the transpose of the Fortran-ordered basis eigendecompose returns is
        # C-contiguous, so this hashes the vectors in place
        h.update(np.ascontiguousarray(self.vectors.T))
        return h.hexdigest()


def _vector(basis: SpectralBasis, values, name: str = "signal") -> np.ndarray:
    """``values`` as an array holding one entry per vertex, or per eigenvalue,
    of ``basis``; any other shape raises :class:`DimensionMismatch`."""
    values = np.asarray(values)
    if values.shape != (basis.size,):
        raise DimensionMismatch(f"{name} shape {values.shape}, expected ({basis.size},)")
    return values


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Pin each eigenvector's sign: its largest-magnitude entry (lowest index
    on ties) is made positive.

    Ties are resolved with a relative tolerance because symmetric graphs
    produce columns whose extremal magnitudes agree exactly in theory but
    differ by rounding noise in the solver output; a raw argmax would let
    that noise choose the pivot.
    """
    mags = np.abs(vectors)
    near_max = mags >= mags.max(axis=0) * (1.0 - PIVOT_TIE_RTOL)
    idx = near_max.argmax(axis=0)  # first near-maximal row per column
    pivot = vectors[idx, np.arange(vectors.shape[1])]
    flip = np.where(pivot < 0, -1.0, 1.0)
    return vectors * flip


def eigendecompose(lap: np.ndarray, kind: LaplacianKind) -> SpectralBasis:
    """Full eigendecomposition of a dense symmetric Laplacian.

    Raises :class:`MultipleZeroEigenvalues` when the second-smallest
    eigenvalue is zero within tolerance (i.e. the underlying graph was
    disconnected), and :class:`EigSolverFailure` if the solver does not
    converge.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise DimensionMismatch(f"laplacian must be square, got shape {lap.shape}")
    n = lap.shape[0]
    if n < 2:
        raise InvalidSize("need at least two vertices to decompose")
    if not np.isfinite(lap).all():
        raise InvalidParameter("laplacian has non-finite entries")
    scale = max(1.0, float(np.abs(lap).max()))
    if not np.allclose(lap, lap.T, rtol=0.0, atol=1e-12 * scale):
        raise InvalidParameter("laplacian must be symmetric")
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    # eigh sorts ascending and returns C-ordered vectors; the GEMMs downstream
    # round differently on a Fortran-ordered U, and every artifact's last
    # digits were fixed on that layout, so the copy keeps it
    vecs = _fix_signs(np.asfortranarray(vecs))
    zero_tol = ZERO_EIGENVALUE_RTOL * max(1.0, float(vals[-1]))
    if abs(vals[0]) > zero_tol:
        raise InvalidParameter(
            f"smallest eigenvalue {float(vals[0])!r} is not zero within tolerance; "
            "input does not look like a graph Laplacian"
        )
    if vals[1] <= zero_tol:
        raise MultipleZeroEigenvalues(
            "second eigenvalue is zero within tolerance; graph is disconnected"
        )
    vals[0] = 0.0
    return SpectralBasis(vals, vecs, kind)


def check_basis(basis: SpectralBasis, lap: np.ndarray, kind: LaplacianKind) -> tuple[float, float]:
    """Check that ``basis`` decomposes the Laplacian ``lap`` of kind ``kind``
    without a second ``eigh``; return its (residual, orthogonality defect).

    With fixed-seed probe columns P, the residual is
    ``||L (U P) - U (Lambda P)|| / ||P||`` and the orthogonality defect
    ``||U^T (U P) - P|| / ||P||``; each costs O(N^2) per probe.  Either above
    ``BASIS_CHECK_RTOL * max(1, lambda_max)``, or another kind, raises
    :class:`FingerprintMismatch`; another size raises
    :class:`DimensionMismatch`.  A rotation inside a repeated eigenvalue's
    eigenspace passes, as it should: it is still an eigenbasis of L.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.shape != (basis.size, basis.size):
        raise DimensionMismatch(f"{basis.size}-vertex basis for a Laplacian of shape {lap.shape}")
    if basis.kind is not kind:
        raise FingerprintMismatch(
            f"basis is of the {basis.kind.value} Laplacian, expected {kind.value}"
        )
    u = basis.vectors
    probes = np.random.default_rng(0).standard_normal((basis.size, BASIS_PROBES))
    mapped = u @ probes
    scale = float(np.linalg.norm(probes))
    residual = float(np.linalg.norm(lap @ mapped - u @ (basis.eigenvalues[:, None] * probes))) / scale
    orthogonality = float(np.linalg.norm(u.T @ mapped - probes)) / scale
    bound = BASIS_CHECK_RTOL * max(1.0, basis.lambda_max)
    if not residual <= bound or not orthogonality <= bound:
        raise FingerprintMismatch(
            f"basis does not decompose this Laplacian: eigen-residual {residual:.3e}, "
            f"orthogonality defect {orthogonality:.3e}, bound {bound:.3e}"
        )
    return residual, orthogonality


def gft(basis: SpectralBasis, signal: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: project a vertex signal onto the eigenbasis.

    ``gft(f)[ell] = sum_i f(i) * conj(chi_ell(i))``.
    """
    return basis.vectors.T @ _vector(basis, signal)


def igft(basis: SpectralBasis, spectrum: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform: synthesize a vertex signal."""
    return basis.vectors @ _vector(basis, spectrum, "spectrum")


@dataclass(frozen=True, eq=False)
class SpectralMagnitudes:
    """Coherence-style maxima of the eigenvector matrix.

    ``by_frequency[ell]`` is the largest |chi_ell(i)| over vertices,
    ``by_vertex[n-1]`` the largest over frequencies, and ``overall`` the
    common maximum of both (they agree: both scan the same matrix).
    """

    by_frequency: np.ndarray
    by_vertex: np.ndarray
    overall: float


def spectral_magnitudes(basis: SpectralBasis) -> SpectralMagnitudes:
    mag = np.abs(basis.vectors)
    by_freq = mag.max(axis=0)
    by_vertex = mag.max(axis=1)
    return SpectralMagnitudes(by_freq, by_vertex, float(mag.max()))


def save_eigenvalues_csv(path, basis: SpectralBasis) -> None:
    """Eigenvalues as rows (ell, eigenvalue)."""
    write_table(path, ["ell", "eigenvalue"], basis.eigenvalues[:, None], 0, "\n")


def save_vectors_csv(path, basis: SpectralBasis) -> None:
    """Eigenvector matrix as rows (vertex, chi_0 .. chi_{N-1})."""
    header = ["vertex"] + [f"chi_{ell}" for ell in range(basis.size)]
    write_table(path, header, basis.vectors, 1, "\n")
