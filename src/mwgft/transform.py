"""Windowed graph Fourier analysis, exact reconstruction, and frame bounds.

The windowed transform of a signal f against a window g is the N x N matrix

    S(n, k) = <f, g_{n,k}>,    g_{n,k} = M_k T_n g,

with vertices n down the rows (1-based) and frequencies k across the columns
(0-based).  With the real eigenvector matrix U it factors as

    S_j = N U diag(conj ghat_j) A,    A = U^T diag(f) U,

and the complex-symmetric factor A does not depend on the window.  Analysis
of J windows therefore costs J + 1 dense N^3 products: one for A (with the
factor N folded in) and one per window.  Synthesis is the adjoint:
``M = sum_j diag(gammahat_j) U^T S_j`` is accumulated in one N x N buffer, U
is applied once, and ``p(i) = N sum_k U(i, k) (U M)(i, k)``; again J + 1
products.  The atom-by-atom path survives only as a test oracle.

Both run one window at a time: the analysis yields S_j in window order, and
the spectrogram and the synthesis are running sums, :class:`_PowerSum` and
:class:`_SynthesisSum`, that take the windows in the order they come.  The
analysis forms every diag(conj ghat_j) N A in one scratch buffer, which is
free between windows and is lent to the running sums of ``mwgft run``.
Coefficients are a stack: a ``basis``, the ``shape`` (J, N, N) and
``dtype`` of their array, and the windows in window order when iterated.
:class:`WgftCoefficients` holds one in an array, a :class:`_Windows` stack
makes it a window at a time, and :func:`save_coefficients`,
:func:`spectrogram` and :func:`mwgft_synthesize` take either.
``coefficients.npz`` holds the array in C order beside the basis U, in the
bytes ``np.savez`` writes, but is written and read one window at a time.
So ``mwgft run`` (one pass that writes, squares and sums each window,
:func:`_summed`) and the ``analyze``, ``synthesize`` and ``spectrogram``
commands never hold the whole array.

Every product has the real U (or U^T) on the left.  A C-contiguous complex
matrix read as float64 holds its real and imaginary parts in interleaved
columns, which U maps independently, so a product with complex data is one
real GEMM of twice the width instead of a complex GEMM on a promoted copy
of U.

Synthesis divides p by ``N d(n)``, with the per-vertex denominator d from
:func:`mwgft.windows.denominator`; it is exact whenever d never vanishes.
"""

from __future__ import annotations

import math
import zipfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    FingerprintMismatch,
    InvalidParameter,
    NotAFrame,
    ParseError,
)
from .graph import LaplacianKind
from .spectral import SpectralBasis, _same_basis, _vector
from .tables import write_table
from .windows import WindowFamily, _check_family, _verdict, denominator


@dataclass(frozen=True, eq=False)
class WgftCoefficients:
    """Per-window coefficient matrices as one (J, N, N) float64 or complex128
    array (other dtypes are cast, so every instance can be saved and loaded
    back) and the basis they were analyzed against, as one coefficient stack."""

    matrices: np.ndarray
    basis: SpectralBasis

    def __post_init__(self):
        try:
            matrices = np.asarray(self.matrices)
        except ValueError as exc:  # ragged stack of matrices
            raise DimensionMismatch(f"coefficient matrices differ in shape: {exc}") from exc
        _check_shape(matrices.shape, self.basis)
        dtype = np.complex128 if np.iscomplexobj(matrices) else np.float64
        try:
            matrices = matrices.astype(dtype, copy=False)
        except (ValueError, TypeError) as exc:  # strings, objects, ...
            raise InvalidParameter(f"coefficients must be numbers: {exc}") from exc
        object.__setattr__(self, "matrices", matrices)

    @property
    def num_windows(self) -> int:
        return self.matrices.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.matrices.shape

    @property
    def dtype(self) -> np.dtype:
        return self.matrices.dtype

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.matrices)


def _check_shape(shape: tuple, basis: SpectralBasis) -> None:
    """Raise :class:`DimensionMismatch` unless ``shape`` is (J, N, N), J >= 1,
    with the N of ``basis``."""
    if len(shape) != 3 or shape[0] < 1 or shape[1] != shape[2]:
        raise DimensionMismatch(f"coefficients must be (J, N, N) with J >= 1, got shape {shape}")
    if shape[1] != basis.size:
        raise DimensionMismatch(f"{shape[1]}-vertex coefficients for a {basis.size}-vertex basis")


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal frame bounds of a window family's atoms plus the per-vertex
    translate energies behind them.

    ``translate_energies`` is ``sum_j ||T_i g_j||^2`` at every vertex (entry
    i-1), and ``lower``/``upper`` are the optimal constants N*min/max of it.
    For a family with its own synthesis windows, ``loose_lower``/``loose_upper``
    hold the coarser pair (a^2 N, b^2 N), with a the smallest of
    ``|sum_j <T_i gamma_j, T_i g_j>| / sqrt(sum_j ||T_i gamma_j||^2)`` and b
    the largest ``sqrt(sum_j ||T_i g_j||^2)``; so loose_upper equals upper,
    and loose_lower <= lower.
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


@dataclass(frozen=True, eq=False)
class _Windows:
    """A (J, N, N) coefficient stack made or read one window at a time.

    Like :class:`WgftCoefficients` it has a ``basis``, a ``shape`` and a
    ``dtype``, and ``produce(out=None)`` yields its N x N windows in window
    order: into ``out[j]`` when a (J, N, N) ``out`` is given, else into
    buffers that the next window overwrites.  Iterating it is ``produce()``.
    One pass runs at a time.  ``spare``, if any, is an N x N buffer of the
    stack's dtype that is free while a window is out; producing the next
    window overwrites it.
    """

    basis: SpectralBasis
    shape: tuple[int, int, int]
    dtype: np.dtype
    produce: Callable[..., Iterator[np.ndarray]]
    spare: np.ndarray | None = None

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.produce()

    def collect(self) -> np.ndarray:
        """Every window, in one (J, N, N) array."""
        out = np.empty(self.shape, self.dtype)
        for _ in self.produce(out):
            pass
        return out


def _leading_float64(buffer: np.ndarray) -> np.ndarray:
    """The first N^2 float64 values of the N x N float64 or complex128
    ``buffer``, as an N x N array."""
    n = buffer.shape[0]
    return buffer.reshape(-1).view(np.float64)[:n * n].reshape(n, n)


def _analysis(basis: SpectralBasis, family: WindowFamily, signal: np.ndarray) -> _Windows:
    """The analysis as a :class:`_Windows` stack: the inputs are checked and
    ``N A`` is formed now, and each window ``S_j`` costs one GEMM as it is
    produced from ``diag(conj ghat_j) N A``, formed in the stack's one
    scratch.  That scratch, lent out as ``spare``, first holds the
    ``diag(N f) U`` that ``N A`` is made from (in its first N^2 float64
    values when a real signal meets complex windows).
    """
    _check_family(basis, family)
    signal = _vector(basis, signal)
    if not np.all(np.isfinite(signal)):
        raise InvalidParameter("signal has non-finite values")
    u, n = basis.vectors, basis.size
    dtype = np.result_type(signal, family.analysis, np.float64)
    scratch = np.empty((n, n), dtype)
    scaled = scratch if np.iscomplexobj(signal) else _leading_float64(scratch)
    np.multiply((n * signal)[:, None], u, out=scaled)  # diag(N f) U
    shared = _left_multiply(u.T, scaled).astype(dtype, copy=False)  # N A

    def produce(out=None):
        window = np.empty((n, n), dtype) if out is None else None
        for j, g_hat in enumerate(family.analysis):
            np.multiply(np.conj(g_hat)[:, None], shared, out=scratch)
            target = window if out is None else out[j]
            _left_multiply(u, scratch, out=target)
            yield target

    return _Windows(basis, (family.num_windows, n, n), dtype, produce, spare=scratch)


def mwgft_analyze(
    basis: SpectralBasis, family: WindowFamily, signal: np.ndarray
) -> WgftCoefficients:
    """``S_j = N U diag(conj ghat_j) A`` for every analysis window, as (J, N, N).

    Real signal and real windows give float64 coefficients, anything else
    complex128.
    """
    return WgftCoefficients(_analysis(basis, family, signal).collect(), basis)


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
    coeffs: WgftCoefficients | _Windows,
    tolerance: float | None = None,
) -> np.ndarray:
    """Exact multi-window reconstruction ``f(i) = p(i) / (N d(i))``.

    Window contributions are accumulated in fixed window order.  Another basis,
    compared by value (so -0.0 equals 0.0), or window count raises before any
    window is used.  Raises :class:`DegenerateDenominator`, before any product,
    at the vertices where ``|d(n)| > tolerance`` does not hold (NaN included), and
    :class:`InvalidParameter` when the result is not finite, which is how
    non-finite coefficients surface without scanning all J N^2 of them.
    """
    if not _same_basis(coeffs.basis, basis):
        raise FingerprintMismatch(
            "coefficients were produced against a different spectral basis"
        )
    if coeffs.shape[0] != family.num_windows:
        raise DimensionMismatch(
            f"{coeffs.shape[0]} coefficient matrices for {family.num_windows} windows"
        )
    report = _verdict(basis, family, tolerance)
    if not report.satisfied:
        raise report.error()
    synthesis = _SynthesisSum(basis, family, coeffs.dtype)
    for s in coeffs:  # a stream is run to its end and its last checks
        synthesis.add(s)
    return synthesis.reconstruct(report.denominators)


class _SynthesisSum:
    """The synthesis as a running sum: :meth:`add` adds window j's term
    ``diag(gammahat_j) U^T S_j`` into ``M`` for the windows in window order,
    and :meth:`reconstruct` turns ``M`` into ``p(i) / (N d(i))``.  Terms are
    formed in ``spare`` if it has the sum's dtype, else in a buffer of its own."""

    def __init__(self, basis: SpectralBasis, family: WindowFamily, dtype,
                 spare: np.ndarray | None = None):
        self.u = basis.vectors
        self.spectra = family.synthesis
        self.dtype = np.result_type(dtype, family.synthesis, np.float64)
        self.acc = np.zeros((basis.size, basis.size), self.dtype)  # M
        fits = spare is not None and spare.dtype == self.dtype
        self.term = spare if fits else np.empty_like(self.acc)
        self.count = 0

    def add(self, s: np.ndarray) -> None:
        _left_multiply(self.u.T, np.asarray(s, dtype=self.dtype), out=self.term)
        self.term *= self.spectra[self.count][:, None]
        self.acc += self.term
        self.count += 1

    def reconstruct(self, d: np.ndarray) -> np.ndarray:
        """``p / d`` from the sum of every window; :class:`InvalidParameter`
        when it is not finite, which is how non-finite coefficients surface
        without scanning all J N^2 of them."""
        _left_multiply(self.u, self.acc, out=self.term)
        self.term *= self.u
        # p = N * rowsum(U * UM); its factor N cancels the N of the denominator
        reconstructed = self.term.sum(axis=1) / d
        if not np.all(np.isfinite(reconstructed)):
            raise InvalidParameter("reconstruction is not finite; coefficients hold NaN or inf")
        return reconstructed


def frame_bounds(
    basis: SpectralBasis, family: WindowFamily, tolerance: float | None = None
) -> FrameBounds:
    """Optimal frame bounds of the atom system ``{M_k T_n g_j}`` of the
    family's analysis windows, one window or J.

    The analysis energy of any f is ``N sum_i |f(i)|^2 sum_j ||T_i g_j||^2``,
    so the best constants are N times the smallest and the largest of
    ``sum_j ||T_i g_j||^2`` (delta signals attain both).  That sum is d(n) of
    the analysis windows paired with themselves, so their verdict decides:
    ``tolerance`` applies to it (default: that family's denominator
    tolerance), and :class:`NotAFrame` names the vertices where it does not
    exceed the tolerance.

    A family whose synthesis windows are not its analysis windows also gets
    the loose pair, whose cross energies ``sum_j <T_i gamma_j, T_i g_j>`` and
    dual energies ``sum_j ||T_i gamma_j||^2`` are d(n) of the family and of
    its synthesis windows paired with themselves.  Cauchy-Schwarz over the J
    stacked translates bounds each cross energy by the square roots of the
    dual energy and of ``sum_j ||T_i g_j||^2``, so ``loose_lower <= lower``,
    and ``loose_upper == upper``.
    """
    report = _verdict(basis, WindowFamily.with_same_synthesis(family.analysis), tolerance)
    if not report.satisfied:
        raise NotAFrame(f"sum_j ||T_i g_j||^2 <= {report.tolerance:.3e}; atoms do not span",
                        vertices=report.failing_vertices)
    energies = report.denominators.real
    n = basis.size
    bounds = FrameBounds(lower=float(n * energies.min()), upper=float(n * energies.max()),
                         translate_energies=energies)
    if family.synthesis is family.analysis:
        return bounds
    cross = denominator(basis, family)
    dual_energies = denominator(basis, WindowFamily.with_same_synthesis(family.synthesis)).real
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(dual_energies > 0, np.abs(cross) / np.sqrt(dual_energies), 0.0)
    a = float(np.min(ratios))
    return replace(bounds, loose_lower=a * a * n, loose_upper=bounds.upper)


def spectrogram(coeffs: WgftCoefficients | _Windows) -> np.ndarray:
    """Mean over windows of ``|S_j|^2`` as one (N, N) float64 map.

    Windows are squared one at a time and added in window order, so no
    (J, N, N) copy is made; ``np.abs(coeffs.matrices[j]) ** 2`` is the map
    of window j alone.  A map that is not finite, because a square overflows
    float64 or a coefficient is NaN, raises :class:`InvalidParameter`.
    """
    power = _PowerSum(coeffs.shape[1])
    for s in coeffs:
        power.add(s)
    return power.mean()


class _PowerSum:
    """The spectrogram as a running sum: :meth:`add` adds ``|S_j|^2`` of
    each window in the order given, and :meth:`mean` divides by their count.
    Squares are formed in the first N^2 float64 values of ``spare`` (N x N,
    float64 or complex128), else in a buffer of its own."""

    def __init__(self, n: int, spare: np.ndarray | None = None):
        self.total = np.zeros((n, n))
        self.square = np.empty((n, n)) if spare is None else _leading_float64(spare)
        self.count = 0

    def add(self, s: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # mean() refuses a sum that overflowed
            np.square(np.abs(s, out=self.square), out=self.square)
            self.total += self.square
        self.count += 1

    def mean(self) -> np.ndarray:
        self.total /= self.count
        # the map is >= 0, so its max is finite only if every entry is
        if not math.isfinite(self.total.max()):
            raise InvalidParameter(
                "spectrogram is not finite: |S_j|^2 overflows float64 or coefficients hold NaN")
        return self.total


def _summed(
    family: WindowFamily, windows: _Windows, synthesize: bool
) -> tuple[_Windows, _PowerSum, _SynthesisSum | None]:
    """The analysis stack ``windows`` made into one pass that also sums: every
    window, once the consumer of the returned stack is done with it, is added
    into the returned :class:`_PowerSum` and, with ``synthesize``, into the
    returned :class:`_SynthesisSum` (else None).

    Both sums work in the stack's ``spare``, so the pass holds five N x N
    buffers whatever J is: ``N A``, the window, the spare, ``M`` and the
    power sum.  Only real windows with complex synthesis spectra need a
    sixth, for the complex term.
    """
    power = _PowerSum(windows.basis.size, windows.spare)
    synthesis = (_SynthesisSum(windows.basis, family, windows.dtype, windows.spare)
                 if synthesize else None)

    def produce(out=None):
        for s in windows.produce(out):
            yield s
            power.add(s)
            if synthesis is not None:
                synthesis.add(s)

    return replace(windows, produce=produce), power, synthesis


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_BASIS_KEYS = ("eigenvalues", "vectors", "kind")

# bytes read per call while a window is filled, so a read never stages a
# whole window in a second buffer; below glibc's 128 KiB mmap threshold, so
# each read's staging buffer comes from the heap instead of fresh pages
_READ_CHUNK = 1 << 16


def _put_member(archive: zipfile.ZipFile, name: str, header: dict, blocks) -> None:
    """One ``.npy`` member as ``np.savez`` writes it: a format 1.0 header, then
    the bytes of each C-contiguous block, straight from array memory."""
    with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for block in blocks:
            fh.write(np.ascontiguousarray(block).data)


def _put_array(archive: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    header = np.lib.format.header_data_from_array_1_0(array)
    _put_member(archive, name, header, [array.T if header["fortran_order"] else array])


def _npy_header(archive: zipfile.ZipFile, name: str, fh) -> tuple[tuple, bool, np.dtype]:
    """(shape, fortran_order, dtype) from the head of the ``.npy`` member
    ``name`` open in ``fh``: object dtypes are refused, and so is a shape that
    needs more bytes than the member holds, before it sizes any allocation."""
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        header = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        header = np.lib.format.read_array_header_2_0(fh)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    shape, _, dtype = header
    if dtype.hasobject:
        raise ValueError(f"{name} holds Python objects, which are never unpickled")
    if archive.getinfo(name).file_size < fh.tell() + math.prod(shape) * dtype.itemsize:
        raise EOFError(f"{name} data ends early")
    return header


def _read_member(fh, header) -> np.ndarray:
    """The data that follows ``header`` in ``fh``, as an array in the
    stored memory order."""
    shape, fortran_order, dtype = header
    array = np.empty(shape, dtype, order="F" if fortran_order else "C")
    _fill(fh, array.T if fortran_order else array)
    return array


def _fill(fh, array: np.ndarray) -> None:
    """Read ``array.nbytes`` bytes from ``fh`` into the C-contiguous ``array``."""
    flat = array.reshape(-1).view(np.uint8)
    for start in range(0, flat.size, _READ_CHUNK):
        part = flat[start:start + _READ_CHUNK]
        if fh.readinto(part) != part.size:
            raise EOFError("member data ends early")


def _read_coefficients(path) -> _Windows:
    """The coefficients of a file, with the basis stored beside them, as a
    :class:`_Windows` stack, never unpickling.

    Every member's header passes :func:`_npy_header` before anything is
    allocated for it, and ``vectors`` must be N x N for the N of
    ``eigenvalues``.  The basis members and the kind are read and checked
    here; each pass over the stack then reads the windows in order, checks
    each for NaN and infinity, and ends where the zip CRC of the member is
    checked.  Errors are those of :func:`load_coefficients`.
    """
    name = "coefficients.npy"
    try:
        with zipfile.ZipFile(path) as archive:
            present = archive.namelist()
            missing = [key for key in _BASIS_KEYS if f"{key}.npy" not in present]
            if missing:
                raise ParseError(
                    f"coefficient file {path} does not carry its spectral basis "
                    f"(no {', '.join(missing)}); re-run `mwgft analyze` to write it again"
                )
            members = {}
            for key in _BASIS_KEYS:
                with archive.open(f"{key}.npy") as fh:
                    stored = _npy_header(archive, f"{key}.npy", fh)
                    vals = members.get("eigenvalues")
                    if key == "vectors" and (vals.ndim != 1 or stored[0] != (vals.size,) * 2):
                        # the basis constructor's check, before vectors are allocated
                        raise DimensionMismatch(
                            f"eigenvalues {vals.shape} and vectors {stored[0]} are inconsistent")
                    members[key] = _read_member(fh, stored)
            with archive.open(name) as fh:
                header = _npy_header(archive, name, fh)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"could not read coefficient file {path}: {exc}") from exc
    vals, vecs, kind = members.values()
    shape, fortran_order, dtype = header
    if dtype not in (np.float64, np.complex128):
        raise ParseError(f"coefficients have dtype {dtype}, expected float64 or complex128")
    for label, array in (("eigenvalues", vals), ("vectors", vecs)):
        if array.dtype != np.float64:
            raise ParseError(f"stored {label} have dtype {array.dtype}, expected float64")
        if not np.isfinite(array).all():
            raise ParseError(f"coefficient file {path} holds NaN or infinite {label}")
    try:
        kind = LaplacianKind.from_name(str(kind))
    except InvalidParameter as exc:
        raise ParseError(f"coefficient file {path}: {exc}") from exc
    # the (J, N, N) shape contract with the basis's N, before any window is read
    basis = SpectralBasis(vals, vecs, kind)
    _check_shape(shape, basis)

    def produce(out=None):
        window = np.empty(shape[1:], dtype) if out is None else None
        try:
            with zipfile.ZipFile(path) as archive, archive.open(name) as fh:
                if _npy_header(archive, name, fh) != header:
                    raise ValueError("coefficient header changed while the file was read")
                # a foreign layout, not window by window: read it whole
                whole = _read_member(fh, header) if fortran_order else None
                for j in range(shape[0]):
                    target = window if out is None else out[j]
                    if fortran_order:
                        target[...] = whole[j]
                    else:
                        _fill(fh, target)
                    if not np.isfinite(target).all():
                        raise ParseError(
                            f"coefficient file {path} holds NaN or infinite coefficients "
                            f"(window {j + 1})"
                        )
                    yield target
                if fh.read(1):
                    raise ValueError("coefficient data runs past its (J, N, N) shape")
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"could not read coefficient file {path}: {exc}") from exc

    return _Windows(basis, shape, dtype, produce)


def save_coefficients(path, coeffs: WgftCoefficients | _Windows) -> None:
    """Coefficients and their basis as one uncompressed ``.npz``: the (J, N, N)
    array, dtype kept, in C order under ``coefficients``; the basis under
    ``eigenvalues``, ``vectors`` (memory order kept) and ``kind``.  The bytes
    are those ``np.savez`` writes for a C-ordered array.

    Each window is checked before it is written, as the reader checks it: a
    window holding NaN or infinity raises :class:`InvalidParameter`, which
    names it, and the file is removed, so no file is left that the reader
    refuses.
    """
    header = {"descr": np.lib.format.dtype_to_descr(coeffs.dtype),
              "fortran_order": False, "shape": coeffs.shape}
    basis = coeffs.basis

    def finite():
        for j, s in enumerate(coeffs, start=1):
            if not np.isfinite(s).all():
                raise InvalidParameter(f"refusing to write {path}: coefficients hold NaN "
                                       f"or infinite values (window {j})")
            yield s

    archive = zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True)
    try:
        with archive:
            _put_member(archive, "coefficients", header, finite())
            _put_array(archive, "eigenvalues", basis.eigenvalues)
            _put_array(archive, "vectors", basis.vectors)
            _put_array(archive, "kind", np.array(basis.kind.value))
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def load_coefficients(path) -> WgftCoefficients:
    """Read a file written by :func:`save_coefficients`, never unpickling.

    Every member's header is checked before anything is allocated for it.  A
    missing, damaged or foreign file, one without its basis, a member header
    that stores Python objects or promises more bytes than the member holds,
    or NaN, infinite or non-float64 values raise :class:`ParseError`; arrays
    whose shapes are not (J, N, N), (N,) and (N, N) raise
    :class:`DimensionMismatch`.  The basis keeps the stored memory order;
    :func:`mwgft_synthesize` compares its values with the basis it is given.
    """
    windows = _read_coefficients(path)
    return WgftCoefficients(windows.collect(), windows.basis)


def save_spectrogram_csv(path, matrix: np.ndarray) -> None:
    """One spectrogram matrix as CSV: vertex row index, then |S|^2 per frequency."""
    matrix = np.asarray(matrix, dtype=np.float64)
    header = ["vertex"] + [f"k{k}" for k in range(matrix.shape[1])]
    write_table(path, header, matrix, 1, "\r\n")


def save_spectrogram_pgm(path, matrix: np.ndarray) -> None:
    """Binary PGM preview: linear grayscale, normalized by the matrix maximum."""
    matrix = np.asarray(matrix, dtype=float)
    peak = matrix.max()
    # one N x N temporary, scaled and rounded in place: ``mwgft run`` writes
    # the image while its synthesis sum still holds M and the analysis scratch
    scaled = matrix / (peak if peak > 0 else 1.0)
    scaled *= 255.0
    pixels = np.round(scaled, out=scaled).astype(np.uint8)
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def save_spectrogram_files(out_dir, windows, averaged: np.ndarray, pgm: bool = False) -> None:
    """Write ``spectrogram_w{j}.csv`` for each window of a (J, N, N) array or
    a coefficient stack, squared one window at a time, then the
    ``averaged`` map as ``spectrogram_avg.csv`` and, with ``pgm``,
    ``spectrogram_avg.pgm`` into ``out_dir``."""
    out = Path(out_dir)
    for j, s in enumerate(windows, start=1):
        save_spectrogram_csv(out / f"spectrogram_w{j}.csv", np.square(np.abs(s)))
    save_spectrogram_csv(out / "spectrogram_avg.csv", averaged)
    if pgm:
        save_spectrogram_pgm(out / "spectrogram_avg.pgm", averaged)
