"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`MwgftError`, so callers can catch one base class.  Errors are split
into two rough families: *validation* errors (malformed input, mismatched
shapes, bad parameters) and *numerical* errors (conditions that only show up
once you compute: degenerate denominators, failed eigensolves, window
families that do not form a frame), which derive from
:class:`NumericalError`.  The command line tool maps the first family to
exit code 1 and the second to exit code 2.
"""

from __future__ import annotations

#: the most characters of a string, and the most list items, that a message shows
SHOWN_CHARS = 40
SHOWN_VERTICES = 10


def _shown(value) -> str:
    """``value`` as a message shows it: a container by its type and size (``a
    list of 10``), a string or bytes of more than :data:`SHOWN_CHARS` by its
    first characters and its length, anything else as its ``repr``."""
    if isinstance(value, (list, tuple, set, dict)):
        return f"a {type(value).__name__} of {len(value)}"
    if isinstance(value, (str, bytes)) and len(value) > SHOWN_CHARS:
        return f"{value[:SHOWN_CHARS]!r}... ({len(value)} characters)"
    return repr(value)


def _listed(items, template: str = "{}") -> str:
    """The first :data:`SHOWN_VERTICES` of ``items``, comma-joined into
    ``template``, then the count of the rest: ``[1, 2, ..., 10] and 5 more``."""
    items = list(items)
    more = len(items) - SHOWN_VERTICES
    shown = template.format(", ".join(map(str, items[:SHOWN_VERTICES])))
    return f"{shown} and {more} more" if more > 0 else shown


def _os_message(exc: OSError) -> str:
    """``str(exc)``, with the one file name it names shown by :func:`_shown`."""
    if exc.filename is None or exc.filename2 is not None:
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"


class MwgftError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

class NegativeWeight(MwgftError):
    """An edge weight is negative."""


class SelfLoop(MwgftError):
    """An edge connects a vertex to itself."""


class DuplicateEdgeConflict(MwgftError):
    """The same vertex pair appears twice with different weights."""


class Disconnected(MwgftError):
    """The graph has more than one connected component."""


class InvalidSize(MwgftError):
    """A size argument is out of its allowed range."""


class ParseError(MwgftError):
    """A text input (edge list, CSV, config) could not be parsed.

    When the offending line is known its 1-based number is stored on
    ``line``.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ZeroDegree(MwgftError):
    """A vertex has zero degree where a positive degree is required."""


class IndexOutOfRange(MwgftError):
    """A vertex or frequency index falls outside the valid range."""


class DimensionMismatch(MwgftError):
    """Array shapes are inconsistent with each other or with the graph."""


class InvalidParameter(MwgftError):
    """A scalar parameter is outside its valid range."""


class FingerprintMismatch(MwgftError):
    """Coefficients meet a spectral basis not exactly equal to the one they
    were produced against, or a stored basis does not decompose the
    Laplacian it is used with."""


# ---------------------------------------------------------------------------
# numerical errors
# ---------------------------------------------------------------------------

class NumericalError(MwgftError):
    """Base class of the numerical errors (command line exit code 2).  The
    1-based ``vertices`` where the quantity failed, if any, are all kept on
    ``vertices``; the message ends with the first :data:`SHOWN_VERTICES` of
    them and a count of the rest."""

    def __init__(self, message: str, vertices=()):
        vertices = tuple(int(v) for v in vertices)
        if vertices:
            message = f"{message} (vertices: {_listed(vertices)})"
        super().__init__(message)
        self.vertices = vertices


class EigSolverFailure(NumericalError):
    """The symmetric eigensolver did not converge."""


class MultipleZeroEigenvalues(NumericalError):
    """More than one eigenvalue is zero within tolerance.

    For a Laplacian this means the graph is disconnected, so the transform's
    reconstruction guarantees no longer apply.
    """


class DegenerateCoverage(NumericalError):
    """The stacked energy response of a window family vanishes somewhere."""


class DegenerateDenominator(NumericalError):
    """The reconstruction denominator vanishes at one or more vertices:
    ``vertices`` are those where its magnitude does not exceed the
    tolerance, a NaN denominator included."""


class NotAFrame(NumericalError):
    """The candidate lower frame bound is zero within tolerance: ``vertices``
    are those where ``sum_j ||T_i g_j||^2`` does not exceed it."""
