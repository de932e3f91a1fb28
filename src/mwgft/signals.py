"""Test-signal generators: impulse, heat profile, chirp, spectral profiles.

Each generator is a pure function; the ``*Spec`` dataclasses are the
declarative form used by experiment configs (their fields are the keys each
signal type reads); each builds its signal on a basis, and
:func:`build_signal` checks what it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameter
from .graph import _check_vertex
from .spectral import SpectralBasis, igft
from .tables import complex_column, re_im, read_table, write_table

#: default heat diffusion time as a multiple of 1/lambda_max
DEFAULT_HEAT_TAU_FACTOR = 10.0


def impulse(num_vertices: int, center: int) -> np.ndarray:
    """Unit impulse at a 1-based vertex."""
    _check_vertex(center, num_vertices)
    out = np.zeros(num_vertices)
    out[center - 1] = 1.0
    return out


def heat_signal(basis: SpectralBasis, tau: float | None = None) -> np.ndarray:
    """Smooth signal with spectrum ``exp(-tau * lambda_ell)``.

    ``tau`` defaults to ``10 / lambda_max``, which keeps the profile visibly
    smooth without collapsing it to a constant.  Real-valued for real bases.
    """
    if tau is None:
        tau = DEFAULT_HEAT_TAU_FACTOR / basis.lambda_max
    if not (np.isfinite(tau) and tau > 0):
        raise InvalidParameter(f"diffusion time tau must be finite and positive, got {tau}")
    return igft(basis, np.exp(-tau * basis.eigenvalues))


def chirp_signal(num_vertices: int, center: int, width: float, rate: float) -> np.ndarray:
    """Gaussian-envelope chirp over the vertex indices.

    ``f(n) = exp(-(n - center)^2 / (2 width^2)) * exp(1j * rate * (n - center))``
    for n = 1..N.  The index arithmetic only means "position" on path-like
    vertex orderings, but the generator itself works on any size.
    """
    _check_vertex(center, num_vertices)
    if not width > 0:
        raise InvalidParameter(f"width must be positive, got {width}")
    if not np.isfinite(rate):
        raise InvalidParameter(f"rate must be finite, got {rate}")
    offsets = np.arange(1, num_vertices + 1, dtype=float) - center
    envelope = np.exp(-(offsets**2) / (2.0 * width * width))
    return envelope * np.exp(1j * rate * offsets)


def spectral_signal(basis: SpectralBasis, spectrum: np.ndarray) -> np.ndarray:
    """Vertex signal with a prescribed spectrum (just the inverse transform)."""
    return igft(basis, spectrum)


def random_signal(num_vertices: int, seed: int, complex_values: bool = True) -> np.ndarray:
    if seed < 0:
        raise InvalidParameter(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    if complex_values:
        return rng.standard_normal(num_vertices) + 1j * rng.standard_normal(num_vertices)
    return rng.standard_normal(num_vertices)


# ---------------------------------------------------------------------------
# declarative specs for configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpulseSpec:
    center: int

    def build(self, basis: SpectralBasis) -> np.ndarray:
        return impulse(basis.size, self.center)


@dataclass(frozen=True)
class HeatSpec:
    tau: float | None = None

    def build(self, basis: SpectralBasis) -> np.ndarray:
        return heat_signal(basis, self.tau)


@dataclass(frozen=True)
class ChirpSpec:
    center: int
    width: float = 6.0
    rate: float = 0.3

    def build(self, basis: SpectralBasis) -> np.ndarray:
        return chirp_signal(basis.size, self.center, self.width, self.rate)


@dataclass(frozen=True)
class SpectralProfileSpec:
    """Spectrum from a CSV written by :func:`save_spectrum_csv`."""

    path: str

    def build(self, basis: SpectralBasis) -> np.ndarray:
        return spectral_signal(basis, load_spectrum_csv(self.path))


@dataclass(frozen=True)
class RandomSpec:
    seed: int
    complex: bool = True

    def build(self, basis: SpectralBasis) -> np.ndarray:
        return random_signal(basis.size, self.seed, self.complex)


SignalSpec = Union[ImpulseSpec, HeatSpec, ChirpSpec, SpectralProfileSpec, RandomSpec]

#: each spec type by the config name of its signal type
SIGNAL_TYPES = {"impulse": ImpulseSpec, "heat": HeatSpec, "chirp": ChirpSpec,
                "spectral": SpectralProfileSpec, "random": RandomSpec}


def build_signal(spec: SignalSpec, basis: SpectralBasis) -> np.ndarray:
    """Resolve a declarative signal spec against a concrete basis.

    A signal with NaN or infinite values (a chirp of vanishing width, a
    spectrum whose inverse transform overflows) raises
    :class:`InvalidParameter` naming the signal type and the first such
    vertices, before anything is written.
    """
    name = next((name for name, kind in SIGNAL_TYPES.items() if isinstance(spec, kind)), None)
    if name is None:
        raise InvalidParameter(f"unknown signal spec {spec!r}")
    with np.errstate(all="ignore"):  # the check below reports what overflowed
        signal = spec.build(basis)
    bad = np.flatnonzero(~np.isfinite(signal))
    if bad.size:
        more = f" and {bad.size - 10} more" if bad.size > 10 else ""
        raise InvalidParameter(f"signal type {name!r} gives non-finite values at vertices "
                               f"{(bad[:10] + 1).tolist()}{more}")
    return signal


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def save_signal_csv(path, values: np.ndarray) -> None:
    write_table(path, ["vertex", "re", "im"], re_im(values), 1, "\r\n")


def load_signal_csv(path) -> np.ndarray:
    """Read a (vertex, re, im) CSV back into a vector; real input stays real."""
    _, table = read_table(path, 1, lambda header: header == ["vertex", "re", "im"])
    return complex_column(table, 0)


def save_spectrum_csv(path, values: np.ndarray) -> None:
    write_table(path, ["ell", "re", "im"], re_im(values), 0, "\r\n")


def load_spectrum_csv(path) -> np.ndarray:
    _, table = read_table(path, 0, lambda header: header == ["ell", "re", "im"])
    return complex_column(table, 0)
