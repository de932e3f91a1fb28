"""Vertex-domain operators: modulation, convolution, translation, atoms.

Conventions (N = number of vertices, chi_ell = eigenvector for frequency
ell, hats denote GFT coefficients):

* modulation     ``(M_k f)(i) = sqrt(N) f(i) chi_k(i)``
* convolution    ``(f * g)(i) = sum_ell fhat(ell) ghat(ell) chi_ell(i)``
* translation    ``(T_n f)(i) = sqrt(N) sum_ell fhat(ell) conj(chi_ell(n)) chi_ell(i)``
* atom           ``g_{n,k} = M_k T_n g``

Vertex arguments ``n`` are 1-based, frequency arguments ``k`` are 0-based.
Inner products are linear in the first slot and conjugate-linear in the
second: ``<f, g> = sum_i f(i) conj(g(i))``.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .graph import _check_vertex
from .spectral import SpectralBasis, _vector, gft, igft


def modulate(basis: SpectralBasis, k: int, signal: np.ndarray) -> np.ndarray:
    """Pointwise multiply by sqrt(N) times the k-th eigenvector."""
    signal = _vector(basis, signal)
    if not 0 <= k < basis.size:
        raise IndexOutOfRange(f"frequency {k} outside 0..{basis.size - 1}")
    return np.sqrt(basis.size) * signal * basis.vectors[:, k]


def convolve(basis: SpectralBasis, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Graph convolution: multiply spectra, transform back."""
    return apply_filter(basis, gft(basis, g), f)


def translate(basis: SpectralBasis, n: int, signal: np.ndarray) -> np.ndarray:
    """Localize ``signal`` around vertex ``n`` (1-based)."""
    _check_vertex(n, basis.size)
    return np.sqrt(basis.size) * apply_filter(basis, basis.vectors[n - 1, :], signal)


def translate_all(basis: SpectralBasis, window_spectrum: np.ndarray) -> np.ndarray:
    """All translates at once: column ``n-1`` holds ``T_n g``.

    Equals ``sqrt(N) * U diag(ghat) U^T`` which is symmetric for real
    spectra; costs one dense N^3 product instead of N matvecs.
    """
    ghat = _vector(basis, window_spectrum, "spectrum")
    u = basis.vectors
    return np.sqrt(basis.size) * ((u * ghat) @ u.T)


def atom(basis: SpectralBasis, window: np.ndarray, n: int, k: int) -> np.ndarray:
    """Windowed atom ``g_{n,k} = M_k T_n g``."""
    return modulate(basis, k, translate(basis, n, window))


def apply_filter(basis: SpectralBasis, window_spectrum: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Multiply the signal's spectrum by ``window_spectrum`` and go back."""
    return igft(basis, _vector(basis, window_spectrum, "spectrum") * gft(basis, signal))


def translation_inner_product(
    basis: SpectralBasis, g_hat: np.ndarray, gamma_hat: np.ndarray, n: int
) -> complex:
    """``<T_n gamma, T_n g>`` from the two spectra, without forming translates.

    ``<T_n gamma, T_n g> = N sum_ell gammahat(ell) conj(ghat(ell)) |chi_ell(n)|^2``.
    """
    _check_vertex(n, basis.size)
    pair = _vector(basis, gamma_hat, "spectrum") * np.conj(_vector(basis, g_hat, "spectrum"))
    return complex(basis.size * np.sum(pair * np.square(basis.vectors[n - 1, :])))


def translation_inner_products(
    basis: SpectralBasis, g_hat: np.ndarray, gamma_hat: np.ndarray
) -> np.ndarray:
    """``<T_n gamma, T_n g>`` for every vertex at once; entry ``n-1`` is vertex n."""
    g_hat = _vector(basis, g_hat, "spectrum")
    return _at_vertices(basis, _vector(basis, gamma_hat, "spectrum") * np.conj(g_hat))


def _at_vertices(basis: SpectralBasis, pair_spectrum: np.ndarray) -> np.ndarray:
    """``N sum_ell pair_spectrum(ell) chi_ell(n)^2`` for every vertex n: the one
    matvec behind ``<T_n gamma, T_n g>`` and the denominator d(n)."""
    return basis.size * (np.square(basis.vectors) @ pair_spectrum)


def translate_norms_sq(basis: SpectralBasis, g_hat: np.ndarray) -> np.ndarray:
    """``||T_n g||_2^2`` for every vertex (real, non-negative)."""
    return translation_inner_products(basis, g_hat, g_hat).real
