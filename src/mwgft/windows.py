"""Spectral window families and non-degeneracy / sufficient-condition checks.

Windows live in the spectral domain: a window is its spectrum, the samples
``ghat(lambda_ell)`` on the Laplacian eigenvalues, and a :class:`WindowFamily`
is two (J, N) arrays of them.  Reconstruction from the windowed transform
works exactly when the per-vertex denominator

    d(n) = sum_j <T_n gamma_j, T_n g_j>

never vanishes; :func:`denominator` computes it, :func:`check_nondegeneracy`
compares it against a tolerance, and :func:`sufficient_conditions` evaluates
the cheaper spectral-side criteria that certify it without touching the
vertex domain.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateCoverage,
    DegenerateDenominator,
    DimensionMismatch,
    InvalidParameter,
    InvalidSize,
)
from .graph import LaplacianKind, read_only
from .operators import _at_vertices
from .spectral import SpectralBasis, spectral_magnitudes
from .tables import _float_row, complex_column, re_im, read_table, write_table

#: energy responses at or below this fraction of their peak are treated as
#: no coverage at all
ENERGY_FLOOR = 1e-12

#: most windows J a family may have: each window costs two N x N GEMMs and
#: one N x N coefficient matrix, and :func:`uniform_shifts`,
#: :func:`shifted_family` and :class:`WindowFamily` check J against this cap
#: before they allocate anything
MAX_WINDOWS = 1000


def _check_count(count: int) -> None:
    if count > MAX_WINDOWS:
        raise InvalidSize(
            f"window family has {count} windows, more than the cap of {MAX_WINDOWS}"
        )


def _spectra(side: str, windows) -> np.ndarray:
    """``windows`` as a read-only (J, N) float64 or complex128 array; ragged,
    non-2-d or empty input raises :class:`DimensionMismatch` and a non-finite
    sample :class:`InvalidParameter` naming ``side`` and the 1-based window."""
    try:
        windows = np.asarray(windows)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatch(f"{side} windows differ in length: {exc}") from exc
    if windows.ndim != 2 or windows.size == 0:
        raise DimensionMismatch(
            f"{side} windows must be a non-empty (J, N) array, got shape {windows.shape}"
        )
    _check_count(windows.shape[0])
    windows = windows.astype(np.complex128 if np.iscomplexobj(windows) else np.float64, copy=False)
    finite = np.isfinite(windows).all(axis=1)
    if not finite.all():
        raise InvalidParameter(f"{side} window {int(np.argmin(finite)) + 1} has non-finite samples")
    return read_only(windows)


@dataclass(frozen=True, eq=False)
class WindowFamily:
    """J analysis and J synthesis windows as two read-only (J, N) arrays, float64
    or complex128: row j of ``analysis`` and ``synthesis`` holds ``ghat_j`` and
    ``gammahat_j`` on the N eigenvalues.  Given one array twice, as by
    :meth:`with_same_synthesis`, the family keeps it on both sides."""

    analysis: np.ndarray
    synthesis: np.ndarray

    def __post_init__(self):
        analysis = _spectra("analysis", self.analysis)
        synthesis = (analysis if self.synthesis is self.analysis
                     else _spectra("synthesis", self.synthesis))
        if analysis.shape != synthesis.shape:
            raise DimensionMismatch(
                f"analysis windows {analysis.shape} and synthesis windows "
                f"{synthesis.shape} differ in shape"
            )
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "synthesis", synthesis)

    @property
    def num_windows(self) -> int:
        return self.analysis.shape[0]

    @property
    def size(self) -> int:
        return self.analysis.shape[1]

    @classmethod
    def with_normalized_synthesis(cls, analysis):
        """Pair each analysis window with its energy-normalized dual."""
        analysis = _spectra("analysis", analysis)
        return cls(analysis, synthesis_family(analysis))

    @classmethod
    def with_same_synthesis(cls, analysis):
        """Use the analysis windows themselves for synthesis."""
        return cls(analysis, analysis)


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

    def __call__(self, lam):
        scale = self.l_fac * self.lambda_max
        # a tiny scale overflows (lam / scale)**4 to inf: the kernel's limit 0
        with np.errstate(over="ignore"):
            return np.exp(-((np.asarray(lam, dtype=float) / scale) ** 4))


def rbf_prototype(lambda_max: float, l_fac: float) -> RbfPrototype:
    if not lambda_max > 0:
        raise InvalidParameter(f"lambda_max must be positive, got {lambda_max}")
    if not (np.isfinite(l_fac) and l_fac > 0):
        raise InvalidParameter(f"l_fac must be finite and positive, got {l_fac}")
    return RbfPrototype(float(lambda_max), float(l_fac))


def uniform_shifts(lambda_max: float, count: int) -> np.ndarray:
    """Default shift rule: ``count`` shifts covering [0, lambda_max] uniformly."""
    if count < 1:
        raise InvalidParameter(f"need at least one shift, got {count}")
    _check_count(count)
    return np.linspace(0.0, float(lambda_max), count)


def shifted_family(
    prototype: Callable[[np.ndarray], np.ndarray],
    shifts: Sequence[float],
    basis: SpectralBasis,
) -> np.ndarray:
    """Sample ``prototype(lambda - shift)`` on the eigenvalues for each shift:
    row k of the (J, N) result is the window of ``shifts[k]``."""
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 1 or shifts.size == 0:
        raise InvalidParameter("shifts must be a non-empty 1-d sequence")
    _check_count(shifts.size)
    if not np.all(np.isfinite(shifts)):
        raise InvalidParameter(f"shifts must be finite, got {shifts.tolist()}")
    return np.array([prototype(basis.eigenvalues - tau) for tau in shifts], dtype=float)


def energy_response(windows: np.ndarray) -> np.ndarray:
    """Energy ``m(lambda_ell) = sum_k |ghat_k(lambda_ell)|^2`` of (J, N) window spectra.

    Raises :class:`DegenerateCoverage` when the minimum drops to
    :data:`ENERGY_FLOOR` times the maximum or below — normalizing by such an
    m would be ill-conditioned.  The floor is relative, so the verdict does
    not depend on the windows' overall scale.
    """
    if len(windows) == 0:
        raise InvalidParameter("window family is empty")
    m = np.sum(np.abs(windows) ** 2, axis=0)
    if m.min() <= ENERGY_FLOOR * m.max():
        worst = int(np.argmin(m))
        raise DegenerateCoverage(
            f"energy response is {m[worst]:.3e} at frequency {worst}; "
            "family does not cover the spectrum"
        )
    return m


def synthesis_family(analysis: np.ndarray) -> np.ndarray:
    """Energy-normalized duals ``gammahat_k = ghat_k / m`` of the (J, N)
    analysis spectra, as a (J, N) array.

    For real windows this makes ``sum_k gammahat_k * ghat_k`` identically 1
    at every sampled eigenvalue, which in turn makes the reconstruction
    denominator exactly N at every vertex.
    """
    return analysis / energy_response(analysis)


# ---------------------------------------------------------------------------
# non-degeneracy
# ---------------------------------------------------------------------------

def default_nondegeneracy_tolerance(family: WindowFamily) -> float:
    """Denominator tolerance scaled to the problem: d(n) grows linearly in N
    and bilinearly in the window magnitudes."""
    n = family.size
    worst = max(
        float(np.linalg.norm(g) * np.linalg.norm(gam))
        for g, gam in zip(family.analysis, family.synthesis)
    )
    return 1e-10 * n * max(worst, np.finfo(float).tiny)


def _check_family(basis: SpectralBasis, family: WindowFamily) -> None:
    """Raise :class:`DimensionMismatch` unless the family is sampled on the
    basis's eigenvalues, one sample each."""
    if family.size != basis.size:
        raise DimensionMismatch(
            f"family sampled on {family.size} eigenvalues, basis has {basis.size}"
        )


def denominator(basis: SpectralBasis, family: WindowFamily) -> np.ndarray:
    """``d(n) = sum_j <T_n gamma_j, T_n g_j>`` at every vertex (entry n-1).

    Summing the pair spectra first, row after row, makes it one matvec,
    ``d = N (U * U) @ sum_j gammahat_j conj(ghat_j)``.
    """
    _check_family(basis, family)
    return _at_vertices(basis, (family.synthesis * np.conj(family.analysis)).sum(axis=0))


def _tolerance(family: WindowFamily, tolerance: float | None) -> float:
    """``tolerance``, or :func:`default_nondegeneracy_tolerance` when None; a
    negative or NaN tolerance raises :class:`InvalidParameter`."""
    if tolerance is None:
        return default_nondegeneracy_tolerance(family)
    tolerance = float(tolerance)
    if not tolerance >= 0.0:
        raise InvalidParameter(f"nondegeneracy tolerance must be >= 0, got {tolerance!r}")
    return tolerance


def _verdict(
    basis: SpectralBasis, family: WindowFamily, tolerance: float | None
) -> ConditionReport:
    """d(n) and the resolved tolerance: the one reconstruction verdict every
    check and report reads."""
    return ConditionReport(denominator(basis, family), _tolerance(family, tolerance))


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
    _check_family(basis, family)
    tolerance = _tolerance(family, tolerance)
    n = basis.size
    g, gam = family.analysis, family.synthesis
    prod = gam * np.conj(g)  # (J, N): the per-frequency terms of d(n)
    re, im = prod.real, prod.imag

    # smallest weight the zeroth frequency gets in any d(n); for the
    # unnormalized Laplacian this is exactly 1 up to rounding
    c0 = n * float(np.min(np.square(basis.vectors[:, 0])))

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


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Outcome of the per-vertex denominator check: d(n) (entry n-1), the
    tolerance it must clear and, from :func:`check_nondegeneracy`, the
    sufficient conditions.  The rest is read off the first two."""

    denominators: np.ndarray
    tolerance: float
    conditions: SufficientConditions | None = None

    @property
    def failing_vertices(self) -> list[int]:
        """1-based vertices where ``|d(n)| > tolerance`` does not hold, so a
        NaN d(n) fails too."""
        return [int(i) + 1 for i in np.flatnonzero(~(np.abs(self.denominators) > self.tolerance))]

    @property
    def satisfied(self) -> bool:
        """True exactly when no vertex fails."""
        return not self.failing_vertices

    @property
    def min_abs(self) -> float:
        return float(np.abs(self.denominators).min())

    def error(self) -> DegenerateDenominator:
        """What a synthesis by these d(n) raises when they are not satisfied."""
        return DegenerateDenominator(f"sum_j |<T_i gamma_j, T_i g_j>| <= {self.tolerance:.3e}",
                                     vertices=self.failing_vertices)


def check_nondegeneracy(
    basis: SpectralBasis, family: WindowFamily, tolerance: float | None = None
) -> ConditionReport:
    """Evaluate ``d(n) = sum_j <T_n gamma_j, T_n g_j>`` at every vertex, and
    the sufficient conditions with the same tolerance."""
    report = _verdict(basis, family, tolerance)
    return replace(report, conditions=sufficient_conditions(basis, family, report.tolerance))


def format_condition_report(report: ConditionReport) -> str:
    """The report as ``key: value`` lines, the sufficient conditions only if it has them."""
    lines = [
        f"min_abs_denominator: {report.min_abs!r}",
        f"tolerance: {report.tolerance!r}",
        f"satisfied: {str(report.satisfied).lower()}",
    ]
    for name, value in (report.conditions.as_dict() if report.conditions else {}).items():
        lines.append(f"{name}: {str(value).lower()}")
    failing = report.failing_vertices
    if failing:
        lines.append("failing_vertices: " + " ".join(map(str, failing)))
    return "\n".join(lines) + "\n"


def save_condition_report_csv(path, report: ConditionReport) -> None:
    """Rows (vertex, denominator_re, denominator_im, abs, ok), ``ok`` being 0
    at the report's failing vertices and 1 elsewhere."""
    d = re_im(report.denominators)
    magnitude = np.hypot(d[:, 0], d[:, 1])  # bit for bit Python's abs(complex)
    table = np.column_stack([d, magnitude])
    failing = set(report.failing_vertices)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,denominator_re,denominator_im,abs,ok\r\n")
        for i, row in enumerate(table, start=1):
            fh.write(f"{i},{_float_row(row)},{int(i not in failing)}\r\n")


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------
#
# One row per frequency: ell, eigenvalue, then per window j the four columns
# g{j}_re, g{j}_im, gamma{j}_re, gamma{j}_im.


def save_family_csv(path, basis: SpectralBasis, family: WindowFamily) -> None:
    _check_family(basis, family)
    header, columns = ["ell", "eigenvalue"], [basis.eigenvalues]
    for j, (g, gam) in enumerate(zip(family.analysis, family.synthesis), start=1):
        header += [f"g{j}_re", f"g{j}_im", f"gamma{j}_re", f"gamma{j}_im"]
        columns += [re_im(g), re_im(gam)]
    write_table(path, header, np.column_stack(columns), 0, "\r\n")


def load_family_csv(path) -> tuple[WindowFamily, np.ndarray]:
    """Read a window family back; returns (family, eigenvalues as stored).

    Each side is float64 when all of its imaginary columns are zero, else
    complex128.
    """
    header, table = read_table(
        path, 0, lambda h: h[:2] == ["ell", "eigenvalue"] and len(h) > 2 and len(h) % 4 == 2
    )
    columns = range(1, len(header) - 1, 4)
    analysis = [complex_column(table, c) for c in columns]
    synthesis = [complex_column(table, c + 2) for c in columns]
    return WindowFamily(analysis, synthesis), table[:, 0]
