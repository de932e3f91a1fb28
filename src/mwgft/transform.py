"""Windowed graph Fourier analysis, exact reconstruction, and frame bounds.

The windowed transform of a signal f against a window g is the N x N matrix

    S(n, k) = <f, g_{n,k}>,    g_{n,k} = M_k T_n g,

with vertices n down the rows (1-based) and frequencies k across the columns
(0-based).  With the real eigenvector matrix U it factors as

    S_j = N U diag(conj ghat_j) A,    A = U^T diag(f) U,

and the complex-symmetric factor A does not depend on the window.  Analysis
of J windows therefore costs J + 1 dense N^3 products: one for A (with the
factor N folded in) and one per window, written into a single (J, N, N)
buffer, which :class:`WgftCoefficients` holds and ``coefficients.npz`` stores
as is, beside the basis U it was analyzed against.  Synthesis is the adjoint: ``M = sum_j diag(gammahat_j) U^T S_j`` is
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

import zipfile
from dataclasses import dataclass, replace
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
from .graph import LaplacianKind
from .operators import translation_inner_products, translate_norms_sq
from .spectral import SpectralBasis, _vector
from .tables import write_table
from .windows import WindowFamily, _check_family, _verdict


@dataclass(frozen=True, eq=False)
class WgftCoefficients:
    """Per-window coefficient matrices as one (J, N, N) array, plus the
    spectral basis they were analyzed against."""

    matrices: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        try:
            matrices = np.asarray(self.matrices)
        except ValueError as exc:  # ragged stack of matrices
            raise DimensionMismatch(f"coefficient matrices differ in shape: {exc}") from exc
        if matrices.ndim != 3 or matrices.shape[0] < 1 or matrices.shape[1] != matrices.shape[2]:
            raise DimensionMismatch(
                f"coefficients must be (J, N, N) with J >= 1, got shape {matrices.shape}"
            )
        if matrices.shape[1] != self.basis.size:
            raise DimensionMismatch(
                f"{matrices.shape[1]}-vertex coefficients for a {self.basis.size}-vertex basis"
            )
        object.__setattr__(self, "matrices", matrices)

    @property
    def basis_fingerprint(self) -> str:
        return self.basis.fingerprint

    @property
    def num_windows(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Tight frame bounds plus the per-vertex translate energies behind them.

    ``lower``/``upper`` are the optimal constants N*min/max of ``||T_i g||^2``.
    When a synthesis spectrum was supplied, ``loose_lower``/``loose_upper`` hold
    the coarser two-window pair (a^2 N, b^2 N); b = max_i ||T_i g|| makes
    loose_upper equal upper, and loose_lower <= lower.
    """

    lower: float
    upper: float
    translate_energies: np.ndarray
    loose_lower: float | None = None
    loose_upper: float | None = None


def _left_multiply(u: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``u @ b`` for a real matrix ``u``: one real GEMM even when ``b`` is complex.

    ``out``, when given, must have the dtype of ``b`` and be C-contiguous.
    """
    if b.dtype != np.complex128:
        return np.matmul(u, b, out=out)
    b = np.ascontiguousarray(b)
    real_out = None if out is None else out.view(np.float64)
    return np.matmul(u, b.view(np.float64), out=real_out).view(np.complex128)


def mwgft_analyze(
    basis: SpectralBasis, family: WindowFamily, signal: np.ndarray
) -> WgftCoefficients:
    """``S_j = N U diag(conj ghat_j) A`` for every analysis window, as (J, N, N).

    Real signal and real windows give float64 coefficients, anything else
    complex128.
    """
    _check_family(basis, family)
    signal = _vector(basis, signal)
    if not np.all(np.isfinite(signal)):
        raise InvalidParameter("signal has non-finite values")
    u, n = basis.vectors, basis.size
    dtype = np.result_type(signal, family.analysis, np.float64)
    shared = _left_multiply(u.T, (n * signal)[:, None] * u).astype(dtype, copy=False)  # N A
    out = np.empty((family.num_windows, n, n), dtype=dtype)
    last = family.num_windows - 1
    for j, g_hat in enumerate(family.analysis):
        # the last slot is scratch until the last window, which scales A in place
        scaled = shared if j == last else out[last]
        np.multiply(np.conj(g_hat)[:, None], shared, out=scaled)
        _left_multiply(u, scaled, out=out[j])
    return WgftCoefficients(out, basis)


def wgft(basis: SpectralBasis, g_hat, signal: np.ndarray) -> np.ndarray:
    """Windowed transform ``S(n, k) = <f, g_{n,k}>`` as an N x N matrix: the
    one-window :func:`mwgft_analyze` of the spectrum ``g_hat`` (``gft(basis, g)``
    for a vertex-domain window g)."""
    return mwgft_analyze(basis, WindowFamily.with_same_synthesis([g_hat]), signal).matrices[0]


def reconstruct_two_window(
    basis: SpectralBasis,
    g_hat,
    gamma_hat,
    coeffs: np.ndarray,
    tolerance: float | None = None,
) -> np.ndarray:
    """Invert a single-window transform with a (possibly different) dual window.

    ``f(i) = [N <T_i gamma, T_i g>]^{-1} sum_{n,k} S(n,k) gamma_{n,k}(i)``,
    i.e. :func:`mwgft_synthesize` for the one pair of spectra ``(g_hat,
    gamma_hat)``.  Raises :class:`DegenerateDenominator` listing the vertices
    where the denominator magnitude is at or below tolerance.
    """
    coeffs = WgftCoefficients(np.asarray(coeffs)[None], basis)
    return mwgft_synthesize(basis, WindowFamily([g_hat], [gamma_hat]), coeffs, tolerance)


def mwgft_synthesize(
    basis: SpectralBasis,
    family: WindowFamily,
    coeffs: WgftCoefficients,
    tolerance: float | None = None,
) -> np.ndarray:
    """Exact multi-window reconstruction ``f(i) = p(i) / (N d(i))``.

    Window contributions are accumulated in fixed window order.  Raises
    :class:`DegenerateDenominator`, before any product, at the vertices where
    ``|d(n)| > tolerance`` does not hold (NaN included), and
    :class:`InvalidParameter` when the result is not finite, which is how
    non-finite coefficients surface without scanning all J N^2 of them.
    """
    # the same object needs no hash; the fingerprint covers size and vectors
    if coeffs.basis is not basis and coeffs.basis_fingerprint != basis.fingerprint:
        raise FingerprintMismatch(
            "coefficients were produced against a different spectral basis"
        )
    if coeffs.num_windows != family.num_windows:
        raise DimensionMismatch(
            f"{coeffs.num_windows} coefficient matrices for {family.num_windows} windows"
        )
    d, tolerance, vanishing = _verdict(basis, family, tolerance)
    if vanishing.size:
        raise DegenerateDenominator(
            f"sum_j |<T_i gamma_j, T_i g_j>| <= {tolerance:.3e}", vertices=vanishing + 1
        )

    u, n = basis.vectors, basis.size
    dtype = np.result_type(coeffs.matrices, family.synthesis, np.float64)
    acc = np.zeros((n, n), dtype=dtype)  # M
    term = np.empty((n, n), dtype=dtype)
    for s, gamma_hat in zip(coeffs.matrices, family.synthesis):
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
    g_hat,
    gamma_hat=None,
    tolerance: float | None = None,
) -> FrameBounds:
    """Optimal frame bounds of the atom system ``{g_{n,k}}`` of the window
    with spectrum ``g_hat``.

    The analysis energy of any f is ``N sum_i |f(i)|^2 ||T_i g||^2``, so the
    best constants are ``N min_i ||T_i g||^2`` and ``N max_i ||T_i g||^2``
    (delta signals attain both).  They are d(n) of the one-window family
    ``(g, g)``, so its verdict decides: ``tolerance`` applies to
    ``||T_i g||^2`` (default: that family's denominator tolerance), and
    :class:`NotAFrame` names the vertices where ``||T_i g||^2 > tolerance``
    does not hold.  A synthesis spectrum ``gamma_hat`` adds the loose pair.
    """
    family = WindowFamily.with_same_synthesis([g_hat])
    d, tolerance, vanishing = _verdict(basis, family, tolerance)
    if vanishing.size:
        raise NotAFrame(
            f"||T_i g||^2 <= {tolerance:.3e}; atoms do not span "
            f"(vertices: {', '.join(str(int(i) + 1) for i in vanishing)})"
        )
    energies = d.real
    n = basis.size
    bounds = FrameBounds(lower=float(n * energies.min()), upper=float(n * energies.max()),
                         translate_energies=energies)
    if gamma_hat is None:
        return bounds
    g_hat, gamma_hat = family.analysis[0], WindowFamily(family.analysis, [gamma_hat]).synthesis[0]
    cross = translation_inner_products(basis, g_hat, gamma_hat)
    dual_energies = translate_norms_sq(basis, gamma_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dual_energies > 0, np.abs(cross) / np.sqrt(dual_energies), 0.0)
    a = float(np.min(ratios))
    return replace(bounds, loose_lower=a * a * n, loose_upper=bounds.upper)


def spectrogram(coeffs: WgftCoefficients) -> np.ndarray:
    """Mean over windows of ``|S_j|^2`` as one (N, N) float64 map.

    Windows are squared one at a time and added in window order, so no
    (J, N, N) copy is made; ``np.abs(coeffs.matrices[j]) ** 2`` is the map
    of window j alone.
    """
    total = np.zeros(coeffs.matrices.shape[1:])
    for s in coeffs.matrices:
        total += np.square(np.abs(s))
    total /= coeffs.num_windows
    return total


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_BASIS_KEYS = ("eigenvalues", "vectors", "kind")


def save_coefficients(path, coeffs: WgftCoefficients) -> None:
    """Coefficients and their basis as one uncompressed ``.npz``: the (J, N, N)
    array, dtype kept, under ``coefficients``; the basis under
    ``eigenvalues``, ``vectors`` (memory order kept) and ``kind``."""
    basis = coeffs.basis
    # an open handle keeps numpy from appending ".npz" to the caller's path
    with open(path, "wb") as fh:
        np.savez(
            fh,
            coefficients=coeffs.matrices,
            eigenvalues=basis.eigenvalues,
            vectors=basis.vectors,
            kind=np.array(basis.kind.value),
        )


def load_coefficients(path) -> WgftCoefficients:
    """Read a file written by :func:`save_coefficients`, never unpickling.

    A missing, damaged or foreign file, one without its basis, or one holding
    NaN, infinite or non-float64 values raises :class:`ParseError`; arrays
    whose shapes are not (J, N, N), (N,) and (N, N) raise
    :class:`DimensionMismatch`.  The basis keeps the stored memory order, and
    its fingerprint is computed from it, never read from the file.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array, not an .npz archive")
        with archive:
            missing = [key for key in _BASIS_KEYS if key not in archive.files]
            if missing:
                raise ParseError(
                    f"coefficient file {path} does not carry its spectral basis "
                    f"(no {', '.join(missing)}); re-run `mwgft analyze` to write it again"
                )
            matrices, vals, vecs, kind = (archive[key] for key in ("coefficients", *_BASIS_KEYS))
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"could not read coefficient file {path}: {exc}") from exc
    if matrices.dtype not in (np.float64, np.complex128):
        raise ParseError(f"coefficients have dtype {matrices.dtype}, expected float64 or complex128")
    for name, array in (("eigenvalues", vals), ("vectors", vecs)):
        if array.dtype != np.float64:
            raise ParseError(f"stored {name} have dtype {array.dtype}, expected float64")
    for name, array in (("coefficients", matrices), ("eigenvalues", vals), ("vectors", vecs)):
        if not np.isfinite(array).all():
            raise ParseError(f"coefficient file {path} holds NaN or infinite {name}")
    try:
        kind = LaplacianKind.from_name(str(kind))
    except InvalidParameter as exc:
        raise ParseError(f"coefficient file {path}: {exc}") from exc
    # the constructors hold the shape contracts: (N,) and (N, N) for the
    # basis, (J, N, N) with the basis's N for the coefficients
    return WgftCoefficients(matrices, SpectralBasis(vals, vecs, kind))


def save_spectrogram_csv(path, matrix: np.ndarray) -> None:
    """One spectrogram matrix as CSV: vertex row index, then |S|^2 per frequency."""
    matrix = np.asarray(matrix, dtype=np.float64)
    header = ["vertex"] + [f"k{k}" for k in range(matrix.shape[1])]
    write_table(path, header, matrix, 1, "\r\n")


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


def save_spectrogram_files(out_dir, coeffs: WgftCoefficients, pgm: bool = False) -> np.ndarray:
    """Write ``spectrogram_w{j}.csv`` per window, squared one window at a
    time, then ``spectrogram_avg.csv`` and, with ``pgm``,
    ``spectrogram_avg.pgm`` into ``out_dir``; return the averaged map."""
    out = Path(out_dir)
    for j, s in enumerate(coeffs.matrices, start=1):
        save_spectrogram_csv(out / f"spectrogram_w{j}.csv", np.square(np.abs(s)))
    averaged = spectrogram(coeffs)
    save_spectrogram_csv(out / "spectrogram_avg.csv", averaged)
    if pgm:
        save_spectrogram_pgm(out / "spectrogram_avg.pgm", averaged)
    return averaged
