"""Windowed graph Fourier analysis, exact reconstruction, and frame bounds.

The windowed transform of a signal f against a window g is the N x N matrix

    S(n, k) = <f, g_{n,k}>,    g_{n,k} = M_k T_n g,

with vertices n down the rows (1-based) and frequencies k across the columns
(0-based).  With the real eigenvector matrix U it factors as

    S_j = N U diag(conj ghat_j) A,    A = U^T diag(f) U,

and the complex-symmetric factor A does not depend on the window.  Analysis
of J windows therefore costs J + 1 dense N^3 products: one for A (with the
factor N folded in) and one per window, written into a single (J, N, N)
buffer.  Synthesis is the adjoint: ``M = sum_j diag(gammahat_j) U^T S_j`` is
accumulated in one N x N buffer, U is applied once, and
``p(i) = N sum_k U(i, k) (U M)(i, k)``; again J + 1 products.  The
atom-by-atom path survives only as a test oracle.

Every product has the real U (or U^T) on the left.  A C-contiguous complex
matrix read as float64 holds its real and imaginary parts in interleaved
columns, which U maps independently, so a product with complex data is one
real GEMM of twice the width instead of a complex GEMM on a promoted copy
of U.

Synthesis divides p by ``N d(n)``, with the per-vertex denominator d from
:func:`mwgft.windows.denominator`; it is exact whenever d never vanishes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    FingerprintMismatch,
    InvalidParameter,
    NotAFrame,
    ParseError,
)
from .operators import translation_inner_products, translate_norms_sq
from .spectral import SpectralBasis, gft
from .windows import (
    SpectralWindow,
    WindowFamily,
    default_nondegeneracy_tolerance,
    denominator,
)


def _window_spectrum(basis: SpectralBasis, window) -> np.ndarray:
    """Accept a window in either domain and return its spectrum.

    A :class:`SpectralWindow` is taken as already-spectral samples; a plain
    array is treated as a vertex-domain window and transformed once.
    """
    if isinstance(window, SpectralWindow):
        if window.size != basis.size:
            raise DimensionMismatch(
                f"window sampled on {window.size} eigenvalues, basis has {basis.size}"
            )
        return window.samples
    spectrum = gft(basis, window)
    if not np.all(np.isfinite(spectrum)):
        raise InvalidParameter("window has non-finite values")
    return spectrum


@dataclass(frozen=True)
class WgftCoefficients:
    """Per-window coefficient matrices plus the basis fingerprint they belong to."""

    matrices: tuple[np.ndarray, ...]
    basis_fingerprint: str

    def __post_init__(self):
        matrices = tuple(np.asarray(m) for m in self.matrices)
        if len(matrices) == 0:
            raise DimensionMismatch("need at least one coefficient matrix")
        n = matrices[0].shape[0]
        for m in matrices:
            if m.shape != (n, n):
                raise DimensionMismatch(
                    f"coefficient matrices must all be ({n}, {n}), got {m.shape}"
                )
        object.__setattr__(self, "matrices", matrices)

    @property
    def num_windows(self) -> int:
        return len(self.matrices)

    @property
    def size(self) -> int:
        return self.matrices[0].shape[0]


@dataclass(frozen=True)
class FrameBounds:
    """Tight frame bounds plus the per-vertex translate energies behind them.

    ``lower``/``upper`` are the optimal constants N*min/max of ``||T_i g||^2``.
    When a synthesis window was supplied, ``loose_lower``/``loose_upper`` hold
    the coarser two-window pair (a^2 N, b^2 N); they always bracket at least
    as loosely: loose_lower <= lower and upper <= loose_upper.
    """

    lower: float
    upper: float
    translate_energies: np.ndarray
    loose_lower: float | None = None
    loose_upper: float | None = None


@dataclass(frozen=True)
class Spectrogram:
    """Squared-magnitude coefficient maps, per window and averaged over windows."""

    per_window: tuple[np.ndarray, ...]
    averaged: np.ndarray


def _left_multiply(u: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``u @ b`` for a real matrix ``u``: one real GEMM even when ``b`` is complex.

    ``out``, when given, must have the dtype of ``b`` and be C-contiguous.
    """
    if b.dtype != np.complex128:
        return np.matmul(u, b, out=out)
    b = np.ascontiguousarray(b)
    real_out = None if out is None else out.view(np.float64)
    return np.matmul(u, b.view(np.float64), out=real_out).view(np.complex128)


def _analyze(basis: SpectralBasis, spectra, signal) -> np.ndarray:
    """``S_j = N U diag(conj ghat_j) A`` for every window spectrum, as (J, N, N).

    Real signal and real windows give float64 coefficients, anything else
    complex128.
    """
    signal = np.asarray(signal)
    if signal.shape != (basis.size,):
        raise DimensionMismatch(f"signal shape {signal.shape}, expected ({basis.size},)")
    if not np.all(np.isfinite(signal)):
        raise InvalidParameter("signal has non-finite values")
    u, n = basis.vectors, basis.size
    dtype = np.result_type(signal, *spectra, np.float64)
    shared = _left_multiply(u.T, (n * signal)[:, None] * u).astype(dtype, copy=False)  # N A
    out = np.empty((len(spectra), n, n), dtype=dtype)
    last = len(spectra) - 1
    for j, g_hat in enumerate(spectra):
        # the last slot is scratch until the last window, which scales A in place
        scaled = shared if j == last else out[last]
        np.multiply(np.conj(g_hat)[:, None], shared, out=scaled)
        _left_multiply(u, scaled, out=out[j])
    return out


def wgft(basis: SpectralBasis, window, signal: np.ndarray) -> np.ndarray:
    """Windowed transform ``S(n, k) = <f, g_{n,k}>`` as an N x N matrix."""
    return _analyze(basis, [_window_spectrum(basis, window)], signal)[0]


def reconstruct_two_window(
    basis: SpectralBasis,
    window,
    dual_window,
    coeffs: np.ndarray,
    tolerance: float | None = None,
) -> np.ndarray:
    """Invert a single-window transform with a (possibly different) dual window.

    ``f(i) = [N <T_i gamma, T_i g>]^{-1} sum_{n,k} S(n,k) gamma_{n,k}(i)``,
    i.e. :func:`mwgft_synthesize` for the one-pair family.  Raises
    :class:`DegenerateDenominator` listing the vertices where the
    denominator magnitude is at or below tolerance.
    """
    family = WindowFamily(
        (SpectralWindow(_window_spectrum(basis, window)),),
        (SpectralWindow(_window_spectrum(basis, dual_window)),),
    )
    coeffs = WgftCoefficients((coeffs,), basis.fingerprint)
    return mwgft_synthesize(basis, family, coeffs, tolerance)


def mwgft_analyze(
    basis: SpectralBasis, family: WindowFamily, signal: np.ndarray
) -> WgftCoefficients:
    """Windowed transform against every analysis window of the family.

    The matrices are views into one (J, N, N) array.
    """
    if family.size != basis.size:
        raise DimensionMismatch(
            f"family sampled on {family.size} eigenvalues, basis has {basis.size}"
        )
    stacked = _analyze(basis, [w.samples for w in family.analysis], signal)
    return WgftCoefficients(tuple(stacked), basis.fingerprint)


def mwgft_synthesize(
    basis: SpectralBasis,
    family: WindowFamily,
    coeffs: WgftCoefficients,
    tolerance: float | None = None,
) -> np.ndarray:
    """Exact multi-window reconstruction ``f(i) = p(i) / (N d(i))``.

    Window contributions are accumulated in fixed window order.  Raises
    :class:`InvalidParameter` when the result is not finite, which is how
    non-finite coefficients surface without scanning all J N^2 of them.
    """
    if coeffs.basis_fingerprint != basis.fingerprint:
        raise FingerprintMismatch(
            "coefficients were produced against a different spectral basis"
        )
    if coeffs.num_windows != family.num_windows:
        raise DimensionMismatch(
            f"{coeffs.num_windows} coefficient matrices for {family.num_windows} windows"
        )
    if coeffs.size != basis.size or family.size != basis.size:
        raise DimensionMismatch("coefficients / family / basis sizes differ")
    if tolerance is None:
        tolerance = default_nondegeneracy_tolerance(family)
    d = denominator(basis, family)
    bad = np.flatnonzero(np.abs(d) <= tolerance)
    if bad.size:
        raise DegenerateDenominator(
            f"sum_j |<T_i gamma_j, T_i g_j>| <= {tolerance:.3e}", vertices=bad + 1
        )

    u, n = basis.vectors, basis.size
    gammas = [w.samples for w in family.synthesis]
    dtype = np.result_type(*coeffs.matrices, *gammas, np.float64)
    acc = np.zeros((n, n), dtype=dtype)  # M
    term = np.empty((n, n), dtype=dtype)
    for s, gamma_hat in zip(coeffs.matrices, gammas):
        _left_multiply(u.T, np.asarray(s, dtype=dtype), out=term)
        term *= gamma_hat[:, None]
        acc += term
    _left_multiply(u, acc, out=term)
    term *= u
    # p = N * rowsum(U * UM); its factor N cancels the N of the denominator
    reconstructed = term.sum(axis=1) / d
    if not np.all(np.isfinite(reconstructed)):
        raise InvalidParameter("reconstruction is not finite; coefficients hold NaN or inf")
    return reconstructed


def frame_bounds(
    basis: SpectralBasis,
    window,
    dual_window=None,
    tolerance: float | None = None,
) -> FrameBounds:
    """Optimal frame bounds of the atom system ``{g_{n,k}}``.

    The analysis energy of any f is ``N sum_i |f(i)|^2 ||T_i g||^2``, so the
    best constants are ``N min_i ||T_i g||^2`` and ``N max_i ||T_i g||^2``
    (delta signals attain both).  Raises :class:`NotAFrame` when the smallest
    translate norm vanishes within tolerance.
    """
    g_hat = _window_spectrum(basis, window)
    energies = translate_norms_sq(basis, g_hat)
    if tolerance is None:
        tolerance = 1e-10 * np.sqrt(basis.size) * float(np.linalg.norm(g_hat))
    if np.sqrt(max(energies.min(), 0.0)) <= tolerance:
        worst = int(np.argmin(energies)) + 1
        raise NotAFrame(
            f"translate norm at vertex {worst} is below tolerance; atoms do not span"
        )
    n = basis.size
    bounds = FrameBounds(
        lower=float(n * energies.min()),
        upper=float(n * energies.max()),
        translate_energies=energies,
    )
    if dual_window is None:
        return bounds
    gamma_hat = _window_spectrum(basis, dual_window)
    cross = translation_inner_products(basis, g_hat, gamma_hat)
    dual_energies = translate_norms_sq(basis, gamma_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dual_energies > 0, np.abs(cross) / np.sqrt(dual_energies), 0.0)
    a = float(np.min(ratios))
    b = float(np.sqrt(energies.max()))
    return FrameBounds(
        lower=bounds.lower,
        upper=bounds.upper,
        translate_energies=energies,
        loose_lower=a * a * n,
        loose_upper=b * b * n,
    )


def spectrogram(coeffs: WgftCoefficients) -> Spectrogram:
    """Squared magnitudes per window plus their mean over windows."""
    per = []
    for m in coeffs.matrices:
        power = np.abs(m)
        per.append(np.square(power, out=power))
    averaged = per[0].copy()
    for power in per[1:]:
        averaged += power
    averaged /= len(per)
    return Spectrogram(tuple(per), averaged)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _meta_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def save_coefficients(path, coeffs: WgftCoefficients) -> None:
    """Coefficients as CSV (window, vertex, freq, re, im) plus a JSON sidecar
    carrying the basis fingerprint."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "vertex", "freq", "re", "im"])
        for j, matrix in enumerate(coeffs.matrices, start=1):
            for n in range(matrix.shape[0]):
                for k in range(matrix.shape[1]):
                    v = complex(matrix[n, k])
                    writer.writerow([j, n + 1, k, repr(v.real), repr(v.imag)])
    meta = {
        "basis_fingerprint": coeffs.basis_fingerprint,
        "num_windows": coeffs.num_windows,
        "size": coeffs.size,
    }
    _meta_path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_coefficients(path) -> WgftCoefficients:
    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise ParseError(f"missing coefficient metadata file {meta_file}")
    meta = json.loads(meta_file.read_text(encoding="utf-8"))
    size = int(meta["size"])
    num_windows = int(meta["num_windows"])
    matrices = [np.zeros((size, size), dtype=complex) for _ in range(num_windows)]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["window", "vertex", "freq", "re", "im"]:
            raise ParseError(f"unexpected coefficient header {header}", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                j, n, k = int(row[0]), int(row[1]), int(row[2])
                value = complex(float(row[3]), float(row[4]))
            except (ValueError, IndexError):
                raise ParseError("bad coefficient row", lineno)
            if not (1 <= j <= num_windows and 1 <= n <= size and 0 <= k < size):
                raise ParseError(f"indices ({j}, {n}, {k}) out of range", lineno)
            matrices[j - 1][n - 1, k] = value
    return WgftCoefficients(tuple(matrices), str(meta["basis_fingerprint"]))


def save_spectrogram_csv(path, matrix: np.ndarray) -> None:
    """One spectrogram matrix as CSV: vertex row index, then |S|^2 per frequency."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex"] + [f"k{k}" for k in range(matrix.shape[1])])
        for n in range(matrix.shape[0]):
            writer.writerow([n + 1] + [repr(float(v)) for v in matrix[n]])


def save_spectrogram_pgm(path, matrix: np.ndarray) -> None:
    """Binary PGM preview: linear grayscale, normalized by the matrix maximum."""
    matrix = np.asarray(matrix, dtype=float)
    peak = matrix.max()
    scaled = matrix / peak if peak > 0 else matrix
    pixels = np.round(255.0 * scaled).astype(np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
