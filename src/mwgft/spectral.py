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
    InvalidParameter,
    InvalidSize,
    MultipleZeroEigenvalues,
)
from .graph import LaplacianKind

#: An eigenvalue counts as zero when it is at most this factor times
#: ``max(1, largest eigenvalue)``.
ZERO_EIGENVALUE_RTOL = 1e-10

#: Entries within this relative distance of a column's maximum magnitude are
#: treated as tied when picking the sign-pinning pivot.
PIVOT_TIE_RTOL = 1e-6


@dataclass(frozen=True)
class SpectralBasis:
    """Eigendecomposition of a graph Laplacian.

    ``eigenvalues`` are sorted ascending; column ``ell`` of ``vectors`` is the
    (real, unit-norm) eigenvector for ``eigenvalues[ell]``; complex vectors
    raise :class:`InvalidParameter`.  Frequencies are indexed 0..N-1
    throughout the package.
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
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @cached_property
    def fingerprint(self) -> str:
        """Hash identifying this decomposition (kind, size, eigenvalues)."""
        h = hashlib.sha256()
        h.update(self.kind.value.encode())
        h.update(str(self.size).encode())
        h.update(np.ascontiguousarray(self.eigenvalues).tobytes())
        return h.hexdigest()


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
    scale = max(1.0, float(np.abs(lap).max()))
    if not np.allclose(lap, lap.T, rtol=0.0, atol=1e-12 * scale):
        raise InvalidParameter("laplacian must be symmetric")
    try:
        vals, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = _fix_signs(vecs[:, order])
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


def gft(basis: SpectralBasis, signal: np.ndarray) -> np.ndarray:
    """Graph Fourier transform: project a vertex signal onto the eigenbasis.

    ``gft(f)[ell] = sum_i f(i) * conj(chi_ell(i))``.
    """
    signal = np.asarray(signal)
    if signal.shape != (basis.size,):
        raise DimensionMismatch(f"signal shape {signal.shape}, expected ({basis.size},)")
    return basis.vectors.conj().T @ signal


def igft(basis: SpectralBasis, spectrum: np.ndarray) -> np.ndarray:
    """Inverse graph Fourier transform: synthesize a vertex signal."""
    spectrum = np.asarray(spectrum)
    if spectrum.shape != (basis.size,):
        raise DimensionMismatch(f"spectrum shape {spectrum.shape}, expected ({basis.size},)")
    return basis.vectors @ spectrum


@dataclass(frozen=True)
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ell,eigenvalue\n")
        for ell, lam in enumerate(basis.eigenvalues):
            fh.write(f"{ell},{float(lam)!r}\n")


def save_vectors_csv(path, basis: SpectralBasis) -> None:
    """Eigenvector matrix as rows (vertex, chi_0 .. chi_{N-1})."""
    n = basis.size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex," + ",".join(f"chi_{ell}" for ell in range(n)) + "\n")
        for i in range(n):
            row = ",".join(repr(float(v)) for v in basis.vectors[i])
            fh.write(f"{i + 1},{row}\n")
