"""Spectral window families and non-degeneracy / sufficient-condition checks.

Windows live in the spectral domain: a window is a vector of samples
``ghat(lambda_ell)`` on the Laplacian eigenvalues.  A :class:`WindowFamily`
pairs J analysis windows with J synthesis windows.  Reconstruction from the
windowed transform works exactly when the per-vertex denominator

    d(n) = sum_j <T_n gamma_j, T_n g_j>

never vanishes; :func:`denominator` computes it, :func:`check_nondegeneracy`
compares it against a tolerance, and :func:`sufficient_conditions` evaluates
the cheaper spectral-side criteria that certify it without touching the
vertex domain.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateCoverage,
    DimensionMismatch,
    InvalidParameter,
    ParseError,
)
from .graph import LaplacianKind
from .spectral import SpectralBasis, spectral_magnitudes

#: energy responses at or below this are treated as no coverage at all
ENERGY_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectralWindow:
    """A window given by its spectrum sampled at the Laplacian eigenvalues."""

    samples: np.ndarray
    label: str = ""
    kernel: str | None = None
    shift: float | None = None
    l_fac: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 1 or samples.size == 0:
            raise DimensionMismatch(f"window samples must be a 1-d array, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise InvalidParameter(f"window {self.label or '?'} has non-finite samples")
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class WindowFamily:
    """J analysis windows paired index-by-index with J synthesis windows."""

    analysis: tuple[SpectralWindow, ...]
    synthesis: tuple[SpectralWindow, ...]

    def __post_init__(self):
        analysis = tuple(self.analysis)
        synthesis = tuple(self.synthesis)
        if len(analysis) == 0 or len(analysis) != len(synthesis):
            raise DimensionMismatch(
                f"need equally many analysis and synthesis windows (>= 1), "
                f"got {len(analysis)} and {len(synthesis)}"
            )
        sizes = {w.size for w in analysis} | {w.size for w in synthesis}
        if len(sizes) != 1:
            raise DimensionMismatch(f"windows have inconsistent lengths: {sorted(sizes)}")
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "synthesis", synthesis)

    @property
    def num_windows(self) -> int:
        return len(self.analysis)

    @property
    def size(self) -> int:
        return self.analysis[0].size

    @classmethod
    def paired(cls, analysis: Sequence[SpectralWindow], synthesis: Sequence[SpectralWindow]):
        return cls(tuple(analysis), tuple(synthesis))

    @classmethod
    def with_normalized_synthesis(cls, analysis: Sequence[SpectralWindow]):
        """Pair each analysis window with its energy-normalized dual."""
        return cls(tuple(analysis), tuple(synthesis_family(analysis)))

    @classmethod
    def with_same_synthesis(cls, analysis: Sequence[SpectralWindow]):
        """Use the analysis windows themselves for synthesis."""
        return cls(tuple(analysis), tuple(analysis))


# ---------------------------------------------------------------------------
# window design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RbfPrototype:
    """Quartic-exponent radial kernel ``exp(-(lam / (l_fac * lambda_max))**4)``.

    Strictly positive everywhere, equal to 1 at 0 and to ``1/e`` at
    ``l_fac * lambda_max``.
    """

    lambda_max: float
    l_fac: float
    kernel: str = "rbf"

    def __call__(self, lam):
        scale = self.l_fac * self.lambda_max
        return np.exp(-((np.asarray(lam, dtype=float) / scale) ** 4))


def rbf_prototype(lambda_max: float, l_fac: float) -> RbfPrototype:
    if not lambda_max > 0:
        raise InvalidParameter(f"lambda_max must be positive, got {lambda_max}")
    if not l_fac > 0:
        raise InvalidParameter(f"l_fac must be positive, got {l_fac}")
    return RbfPrototype(float(lambda_max), float(l_fac))


def uniform_shifts(lambda_max: float, count: int) -> np.ndarray:
    """Default shift rule: ``count`` shifts covering [0, lambda_max] uniformly."""
    if count < 1:
        raise InvalidParameter(f"need at least one shift, got {count}")
    if count == 1:
        return np.zeros(1)
    return np.linspace(0.0, float(lambda_max), count)


def shifted_family(
    prototype: Callable[[np.ndarray], np.ndarray],
    shifts: Sequence[float],
    basis: SpectralBasis,
) -> list[SpectralWindow]:
    """Sample ``prototype(lambda - shift)`` on the eigenvalues for each shift."""
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 1 or shifts.size == 0:
        raise InvalidParameter("shifts must be a non-empty 1-d sequence")
    kernel = getattr(prototype, "kernel", None)
    l_fac = getattr(prototype, "l_fac", None)
    return [
        SpectralWindow(
            samples=np.asarray(prototype(basis.eigenvalues - tau), dtype=float),
            label=f"g{k + 1}",
            kernel=kernel,
            shift=float(tau),
            l_fac=l_fac,
        )
        for k, tau in enumerate(shifts)
    ]


def energy_response(windows: Sequence[SpectralWindow], floor: float = ENERGY_FLOOR) -> np.ndarray:
    """Stacked energy ``m(lambda_ell) = sum_k |ghat_k(lambda_ell)|^2``.

    Raises :class:`DegenerateCoverage` when the minimum drops to ``floor`` or
    below — normalizing by such an m would be ill-conditioned.
    """
    if len(windows) == 0:
        raise InvalidParameter("window family is empty")
    stack = np.stack([w.samples for w in windows])
    m = np.sum(np.abs(stack) ** 2, axis=0)
    if m.min() <= floor:
        worst = int(np.argmin(m))
        raise DegenerateCoverage(
            f"energy response is {m[worst]:.3e} at frequency {worst}; "
            "family does not cover the spectrum"
        )
    return m


def synthesis_family(analysis: Sequence[SpectralWindow]) -> list[SpectralWindow]:
    """Energy-normalized duals ``gammahat_k = ghat_k / m``.

    For real windows this makes ``sum_k gammahat_k * ghat_k`` identically 1
    at every sampled eigenvalue, which in turn makes the reconstruction
    denominator exactly N at every vertex.
    """
    m = energy_response(analysis)
    return [
        SpectralWindow(
            samples=w.samples / m,
            label=f"gamma{k + 1}",
            kernel=w.kernel,
            shift=w.shift,
            l_fac=w.l_fac,
        )
        for k, w in enumerate(analysis)
    ]


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

def default_nondegeneracy_tolerance(family: WindowFamily) -> float:
    """Denominator tolerance scaled to the problem: d(n) grows linearly in N
    and bilinearly in the window magnitudes."""
    n = family.size
    worst = max(
        float(np.linalg.norm(g.samples) * np.linalg.norm(gam.samples))
        for g, gam in zip(family.analysis, family.synthesis)
    )
    return 1e-10 * n * max(worst, np.finfo(float).tiny)


def denominator(basis: SpectralBasis, family: WindowFamily) -> np.ndarray:
    """``d(n) = sum_j <T_n gamma_j, T_n g_j>`` at every vertex (entry n-1).

    Summing the pair spectra first makes it one matvec,
    ``d = N |U|^2 @ sum_j gammahat_j conj(ghat_j)``.
    """
    if family.size != basis.size:
        raise DimensionMismatch(
            f"family sampled on {family.size} eigenvalues, basis has {basis.size}"
        )
    spectrum = sum(gam.samples * np.conj(g.samples)
                   for g, gam in zip(family.analysis, family.synthesis))
    return basis.size * (np.square(basis.vectors) @ spectrum)


@dataclass(frozen=True)
class SufficientConditions:
    """Per-condition verdicts for the spectral-side reconstruction criteria.

    ``csuff1`` (and the sign variants a/b/c) ask for a consistent sign of the
    real or imaginary part of ``conj(ghat_j) * gammahat_j`` across the whole
    spectrum of every pair, strict at frequency 0.  ``csuff2`` compares the
    DC terms against the worst-case spread ``sqrt(N) * mu * ||ghat - gammahat||``
    pair by pair; ``csuff4`` only needs the sum over pairs to come out
    positive, and ``csufff5`` needs one strict pair with the rest non-negative.
    ``csuff3`` is the family version of ``csuff1`` (sign conditions on the sum
    over pairs).

    Strict inequalities are demanded with a quantitative margin matched to the
    denominator tolerance, so a True verdict certifies that
    :func:`check_nondegeneracy` passes with the same tolerance instead of
    merely suggesting it; borderline families report False.

    ``implies_nondegenerate`` is the guarantee flag: True when some condition
    that is actually conclusive for the basis kind holds.  The DC-term
    conditions (csuff2/csuff4/csufff5) rely on the constant-magnitude zeroth
    eigenvector of the unnormalized Laplacian, so they only carry a guarantee
    there; the sign conditions certify either kind.
    """

    csuff1: bool
    csuff1a: bool
    csuff1b: bool
    csuff1c: bool
    csuff2: bool
    csuff3: bool
    csuff4: bool
    csufff5: bool
    implies_nondegenerate: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def sufficient_conditions(
    basis: SpectralBasis, family: WindowFamily, tolerance: float | None = None
) -> SufficientConditions:
    if family.size != basis.size:
        raise DimensionMismatch(
            f"family sampled on {family.size} eigenvalues, basis has {basis.size}"
        )
    if tolerance is None:
        tolerance = default_nondegeneracy_tolerance(family)
    n = basis.size
    g = np.stack([w.samples for w in family.analysis])
    gam = np.stack([w.samples for w in family.synthesis])
    prod = gam * np.conj(g)  # (J, N): the per-frequency terms of d(n)
    re, im = prod.real, prod.imag

    # smallest weight the zeroth frequency gets in any d(n); for the
    # unnormalized Laplacian this is exactly 1 up to rounding
    c0 = n * float(np.min(np.abs(basis.vectors[:, 0]) ** 2))

    def signed(part: np.ndarray, flip: float) -> bool:
        p = flip * part
        per_pair = np.all(p[:, 1:] >= 0.0) and np.all(p[:, 0] > 0.0)
        return bool(per_pair and c0 * p[:, 0].sum() > tolerance)

    csuff1 = signed(re, +1.0)
    csuff1a = signed(re, -1.0)
    csuff1b = signed(im, +1.0)
    csuff1c = signed(im, -1.0)

    re_sum = re.sum(axis=0)
    csuff3 = bool(np.all(re_sum[1:] >= 0.0) and c0 * re_sum[0] > tolerance)

    # DC-dominance family: lower-bounds 4*Re d(n) by lhs^2 - rhs^2 per pair
    mu = spectral_magnitudes(basis).overall
    lhs = np.abs(g[:, 0] + gam[:, 0])
    rhs = np.sqrt(n) * mu * np.linalg.norm(g - gam, axis=1)
    gap = lhs**2 - rhs**2
    csuff2 = bool(np.all(lhs > rhs) and gap.sum() > 4.0 * tolerance)
    csuff4 = bool(gap.sum() > 4.0 * tolerance)
    csufff5 = bool(np.all(lhs >= rhs) and gap.max() > 4.0 * tolerance)

    sign_based = csuff1 or csuff1a or csuff1b or csuff1c or csuff3
    dc_based = csuff2 or csuff4 or csufff5
    implies = sign_based or (dc_based and basis.kind is LaplacianKind.UNNORMALIZED)
    return SufficientConditions(
        csuff1, csuff1a, csuff1b, csuff1c, csuff2, csuff3, csuff4, csufff5, implies
    )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the per-vertex denominator check."""

    denominators: np.ndarray
    min_abs: float
    tolerance: float
    satisfied: bool
    conditions: SufficientConditions

    @property
    def failing_vertices(self) -> list[int]:
        """1-based vertices where |d(n)| is at or below tolerance."""
        return [int(i) + 1 for i in np.flatnonzero(np.abs(self.denominators) <= self.tolerance)]


def check_nondegeneracy(
    basis: SpectralBasis, family: WindowFamily, tolerance: float | None = None
) -> ConditionReport:
    """Evaluate ``d(n) = sum_j <T_n gamma_j, T_n g_j>`` at every vertex.

    ``satisfied`` is True exactly when ``min_n |d(n)| > tolerance``.
    """
    d = denominator(basis, family)
    if tolerance is None:
        tolerance = default_nondegeneracy_tolerance(family)
    min_abs = float(np.abs(d).min())
    conditions = sufficient_conditions(basis, family, tolerance)
    return ConditionReport(
        denominators=d,
        min_abs=min_abs,
        tolerance=float(tolerance),
        satisfied=min_abs > tolerance,
        conditions=conditions,
    )


def format_condition_report(report: ConditionReport) -> str:
    lines = [
        f"min_abs_denominator: {report.min_abs!r}",
        f"tolerance: {report.tolerance!r}",
        f"satisfied: {str(report.satisfied).lower()}",
    ]
    for name, value in report.conditions.as_dict().items():
        lines.append(f"{name}: {str(value).lower()}")
    failing = report.failing_vertices
    if failing:
        lines.append("failing_vertices: " + " ".join(map(str, failing)))
    return "\n".join(lines) + "\n"


def save_condition_report_csv(path, report: ConditionReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "denominator_re", "denominator_im", "abs", "ok"])
        for i, d in enumerate(report.denominators, start=1):
            c = complex(d)
            ok = abs(c) > report.tolerance
            writer.writerow([i, repr(c.real), repr(c.imag), repr(abs(c)), int(ok)])


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
#
# One row per frequency: ell, eigenvalue, then per window j the four columns
# g{j}_re, g{j}_im, gamma{j}_re, gamma{j}_im.


def save_family_csv(path, basis: SpectralBasis, family: WindowFamily) -> None:
    if family.size != basis.size:
        raise DimensionMismatch("family and basis sizes differ")
    header = ["ell", "eigenvalue"]
    for j in range(1, family.num_windows + 1):
        header += [f"g{j}_re", f"g{j}_im", f"gamma{j}_re", f"gamma{j}_im"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ell in range(basis.size):
            row = [ell, repr(float(basis.eigenvalues[ell]))]
            for g, gam in zip(family.analysis, family.synthesis):
                gs, cs = complex(g.samples[ell]), complex(gam.samples[ell])
                row += [repr(gs.real), repr(gs.imag), repr(cs.real), repr(cs.imag)]
            writer.writerow(row)


def load_family_csv(path) -> tuple[WindowFamily, np.ndarray]:
    """Read a window family back; returns (family, eigenvalues as stored)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty window family file")
        if header[:2] != ["ell", "eigenvalue"]:
            raise ParseError(f"unexpected header {header[:2]}, expected ['ell', 'eigenvalue']", 1)
        rest = header[2:]
        if len(rest) == 0 or len(rest) % 4 != 0:
            raise ParseError("expected four columns (g_re, g_im, gamma_re, gamma_im) per window", 1)
        num_windows = len(rest) // 4
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", lineno)
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ParseError("non-numeric value in window family file", lineno)
    if not rows:
        raise ParseError("window family file has no data rows")
    data = np.asarray(rows)
    eigenvalues = data[:, 0]
    analysis, synth = [], []
    for j in range(num_windows):
        block = data[:, 1 + 4 * j : 1 + 4 * (j + 1)]
        g = block[:, 0] + 1j * block[:, 1]
        gam = block[:, 2] + 1j * block[:, 3]
        if np.all(g.imag == 0):
            g = g.real
        if np.all(gam.imag == 0):
            gam = gam.real
        analysis.append(SpectralWindow(g, label=f"g{j + 1}"))
        synth.append(SpectralWindow(gam, label=f"gamma{j + 1}"))
    return WindowFamily.paired(analysis, synth), eigenvalues
