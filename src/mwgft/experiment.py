"""End-to-end experiment runner: config -> graph -> basis -> windows ->
analyze -> spectrogram -> synthesize -> report files.

Configs are YAML mappings (see the shipped presets under ``presets/``), and
:func:`run_experiment` writes a fixed set of CSV artifacts (the table layout
of :mod:`mwgft.tables`) plus ``coefficients.npz`` and a plain-text summary
whose values are byte-identical across reruns at a fixed BLAS thread count.
Analysis, spectrogram and synthesis are one pass over the windows: each
S_j is written to ``coefficients.npz``, squared into the spectrogram sum
and added into the synthesis sum as it is produced, so the run never holds
the (J, N, N) array.  Its bytes are those of the whole-array functions of
:mod:`mwgft.transform`.  The spectrogram stays in memory: the summary takes
its argmax vertex from the averaged |S|^2, ``write_pgm`` saves that map as
a grayscale image, and ``mwgft spectrogram`` writes its CSVs from
``coefficients.npz``.
Malformed config values and keys that nothing reads raise
:class:`InvalidParameter` naming their key.
"""

from __future__ import annotations

import functools
import math
import time
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import signals as _signals
from .errors import SHOWN_CHARS, InvalidParameter, ParseError, _listed, _os_message, _shown
from .graph import (
    Graph,
    LaplacianKind,
    laplacian,
    load_graph,
    path_graph,
    random_connected_graph,
)
from .spectral import SpectralBasis, eigendecompose, save_eigenvalues_csv
from .tables import write_table
from .transform import _analysis, _summed, save_coefficients, save_spectrogram_pgm
from .windows import (
    WindowFamily,
    _check_family,
    check_nondegeneracy,
    format_condition_report,
    load_family_csv,
    rbf_prototype,
    save_condition_report_csv,
    save_family_csv,
    shifted_family,
    uniform_shifts,
)

#: each pairing by name, with the constructor that adds the synthesis windows
PAIRING_MODES = {
    "normalized-synthesis": WindowFamily.with_normalized_synthesis,
    "same-as-analysis": WindowFamily.with_same_synthesis,
}


@dataclass(frozen=True)
class PathSource:
    """The unweighted path 1 - 2 - ... - N."""

    size: int

    def build(self) -> Graph:
        return path_graph(self.size)


@dataclass(frozen=True)
class FileSource:
    """An edge-list file; ``file`` may come from ``--graph-file`` instead."""

    file: str | None = None
    coordinates: str | None = None
    largest_component: bool = False

    def build(self) -> Graph:
        if not self.file:
            raise InvalidParameter(
                "graph source 'file' needs a path (config graph.file or --graph-file)")
        try:
            return load_graph(self.file, coordinates_path=self.coordinates,
                              largest_component=self.largest_component)
        except OSError as exc:
            key = "coordinates" if exc.filename == self.coordinates else "file"
            raise InvalidParameter(f"config key graph.{key}: {_os_message(exc)}") from exc


@dataclass(frozen=True)
class RandomSource:
    """A seeded random connected graph (:func:`random_connected_graph`)."""

    size: int
    seed: int
    extra_edges: int | None = None

    def build(self) -> Graph:
        return random_connected_graph(self.size, self.seed, extra_edges=self.extra_edges)


@dataclass(frozen=True)
class RbfWindows:
    """Shifted RBF windows: ``shifts``, or ``count`` (default 3) uniform
    shifts over [0, lambda_max]."""

    count: int | None = None
    l_fac: float = 0.7
    shifts: tuple | None = None
    pairing: str = "normalized-synthesis"

    def __post_init__(self):
        if self.pairing not in PAIRING_MODES:
            raise InvalidParameter(
                f"pairing must be one of {tuple(PAIRING_MODES)}, got {_shown(self.pairing)}")
        if self.count is not None and self.shifts is not None:
            raise InvalidParameter("config key windows.count: windows.shifts sets the window count")
        if self.count is not None and self.count < 1:
            raise InvalidParameter("window count must be at least 1")

    def build(self, basis: SpectralBasis) -> WindowFamily:
        prototype = rbf_prototype(basis.lambda_max, self.l_fac)
        shifts = (self.shifts if self.shifts is not None
                  else uniform_shifts(basis.lambda_max, 3 if self.count is None else self.count))
        return PAIRING_MODES[self.pairing](shifted_family(prototype, shifts, basis))


@dataclass(frozen=True)
class FileWindows:
    """A window family read from a CSV written by :func:`save_family_csv`."""

    file: str

    def build(self, basis: SpectralBasis) -> WindowFamily:
        try:
            family, stored = load_family_csv(self.file)
        except OSError as exc:
            raise InvalidParameter(f"config key windows.file: {_os_message(exc)}") from exc
        _check_family(basis, family)
        if not np.allclose(stored, basis.eigenvalues, atol=1e-8 * max(1.0, basis.lambda_max)):
            raise InvalidParameter(
                "window file was sampled on different eigenvalues than this graph")
        return family


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    graph: PathSource | FileSource | RandomSource
    kind: LaplacianKind
    signal: _signals.SignalSpec
    windows: RbfWindows | FileWindows
    nondegeneracy_tolerance: float | None = None


def _value(m: dict, section: str, key: str, convert, default=None):
    """``convert(m[key])``, or ``default`` when the key is absent or empty.

    A missing required key (``default=...``) or a value ``convert`` rejects
    raises :class:`InvalidParameter` naming ``section.key`` (a top-level key
    by its name alone).
    """
    value = m.get(key)
    name = f"{section}.{key}" if section else key
    if value is None and default is ...:
        raise InvalidParameter(f"config key {name} is required")
    try:
        return default if value is None else convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"config key {name}: {exc}") from exc


def _bounded(raw, where: str = "config key {}") -> None:
    """Refuse every int of more than 63 bits and every string holding a NUL
    byte (which no file name may hold) in ``raw``, as a value or as a mapping
    key, by ``where`` filled with its key path (``windows.shifts[1]``) and,
    for an int, its size in bits: one walk that visits each container once,
    however many YAML aliases point at it and however deep it nests."""
    stack, seen = [("", "", raw)], set()
    while stack:
        parent, key, value = stack.pop()
        path = (f"{parent}.{key}" if isinstance(key, str) else f"{parent}[{key}]").removeprefix(".")
        if isinstance(value, int) and value.bit_length() > 63:
            raise InvalidParameter(
                f"{where.format(path)}: an integer of {value.bit_length()} bits, more than 63")
        if isinstance(value, str) and "\0" in value:
            raise InvalidParameter(f"{where.format(path)}: a string holding a NUL byte")
        if isinstance(value, (list, tuple, set, dict)) and id(value) not in seen:
            seen.add(id(value))
            pairs = value.items() if isinstance(value, dict) else enumerate(value)
            keys = value if isinstance(value, dict) else ()
            # the keys pop first, so each is bounded before it names a path
            stack += [(path, k, item) for k, item in pairs] + [(path, "<key>", k) for k in keys]


def _integer(value) -> int:
    """``int(value)``, but a boolean, a string, a fractional number or a float
    beyond 2**53, where floats stop being exact integers, raises ``ValueError``
    instead of becoming 1, being parsed, being truncated or becoming a huge
    int (``1.0e+308`` has 309 digits)."""
    if isinstance(value, (bool, str)) or (
            isinstance(value, float) and not (value.is_integer() and abs(value) <= 2**53)):
        raise ValueError(f"expected an integer, got {_shown(value)}")
    return int(value)


def _real(value) -> float:
    """``float(value)`` of a YAML int or float (``.inf`` and ``.nan`` included);
    a boolean or a string raises ``ValueError`` instead of becoming 1.0 or 0.001."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {_shown(value)}")
    return float(value)


def _reals(value) -> tuple:
    """A YAML list of numbers as floats; a string or a mapping raises instead of
    being taken apart (``"12"`` into 1.0, 2.0)."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, got {_shown(value)}")
    return tuple(map(_real, value))


def _boolean(value) -> bool:
    """``value`` if it is a YAML boolean; a string such as ``"false"`` raises."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {_shown(value)}")
    return value


def _string(value) -> str:
    """``value`` if it is a string; a number (which ``open`` would take for a
    file descriptor) or a list raises."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {_shown(value)}")
    return value


def _name(value) -> str:
    """``value`` if it is a string that names one directory of ``out/``; ``""``,
    ``.``, ``..`` or a path separator would write elsewhere."""
    name = _string(value)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"expected a directory name, got {_shown(name)}")
    return name


#: Per config section with variants: the noun that names them (for messages),
#: the key that selects one, its default and the dataclass of each variant.
#: A dataclass's fields are the keys that variant reads (a field without a
#: default is a required key), their annotations pick the converters, and its
#: ``build`` makes the graph, or the signal or window family on a basis.
_SECTIONS = {
    "graph": ("graph source", "source", "path",
              {"path": PathSource, "file": FileSource, "random": RandomSource}),
    "signal": ("signal type", "type", None, _signals.SIGNAL_TYPES),
    "windows": ("window kernel", "kernel", "rbf", {"rbf": RbfWindows, "file": FileWindows}),
}

#: How a key is converted, by the type its field is annotated with.
_CONVERTERS = {int: _integer, float: _real, bool: _boolean, str: _string, tuple: _reals}


def _converter(hint):
    """The converter of a field annotated ``hint``, ``int`` and ``int | None`` alike."""
    return _CONVERTERS[next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))]


@functools.cache
def _variant_keys(kind) -> dict:
    """Each key the variant dataclass ``kind`` reads, in field order, as
    ``(converter, default)``, the default of a required key being ``...``:
    resolved from the annotations once per variant, on its first use, and
    shared by every caller, which only reads it."""
    hints = typing.get_type_hints(kind)
    return {f.name: (_converter(hints[f.name]), ... if f.default is MISSING else f.default)
            for f in fields(kind)}


def _keys(section: str, m, known) -> dict:
    """``m``, once it is a mapping whose every key is in ``known``; otherwise
    :class:`InvalidParameter` naming at most ten (``unknown config key graph.sise``)."""
    if not isinstance(m, dict):
        raise InvalidParameter(f"config section {section} must be a mapping, got {_shown(m)}")
    prefix = f"{section}." if section else ""
    # a key is shown as it is unless it is a long string
    unknown = [prefix + (key if isinstance(key, str) and len(key) <= SHOWN_CHARS else _shown(key))
               for key in m if key not in known]
    if unknown:
        raise InvalidParameter(f"unknown config key {_listed(unknown)}")
    return m


def _section(section: str, m):
    """The variant that config section ``section`` selects, built from ``m``.

    A key no variant reads (``unknown config key graph.sise``), an unknown
    variant, a key only another variant reads (``graph source 'path' does not
    use seed``), a missing required key and a value its converter rejects
    raise :class:`InvalidParameter`.
    """
    noun, selector, default, variants = _SECTIONS[section]
    known = dict.fromkeys(key for kind in variants.values() for key in _variant_keys(kind))
    _keys(section, m, {selector, *known})
    variant = default if m.get(selector) is None else m[selector]
    if not (isinstance(variant, str) and variant in variants):
        raise InvalidParameter(f"unknown {noun} {_shown(variant)}")
    reads = _variant_keys(variants[variant])
    stray = [key for key in known if key in m and key not in reads]
    if stray:
        raise InvalidParameter(f"{noun} {variant!r} does not use {', '.join(stray)}")
    return variants[variant](**{
        key: _value(m, section, key, convert, default)
        for key, (convert, default) in reads.items()
    })


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Validate a raw (YAML-shaped) mapping into an :class:`ExperimentConfig`."""
    if not isinstance(mapping, dict):
        raise InvalidParameter("experiment config must be a mapping")
    _bounded(mapping)
    _keys("", mapping, ("name", "graph", "laplacian", "signal", "windows", "tolerances"))
    tolerances = _keys("tolerances", mapping.get("tolerances", {}), ("nondegeneracy",))
    return ExperimentConfig(
        name=_value(mapping, "", "name", _name, "experiment"),
        graph=_section("graph", mapping.get("graph")),
        kind=LaplacianKind.from_name(_value(mapping, "", "laplacian", _string, "unnormalized")),
        signal=_section("signal", mapping.get("signal")),
        windows=_section("windows", mapping.get("windows", {})),
        nondegeneracy_tolerance=_value(tolerances, "tolerances", "nondegeneracy", _real),
    )


#: libyaml's parser when PyYAML was built with it, else the pure-Python one;
#: both build values with the same safe constructor and resolver
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

#: the deepest a config may nest: a real one nests 3 deep, and the composers
#: recurse once per level (libyaml's overflows the C stack near 40000)
_MAX_DEPTH = 32


def _document(fh, name):
    """The YAML document read from ``fh``, an open text file of config ``name``.

    Its parse events are scanned first, so a document nested more than
    ``_MAX_DEPTH`` deep is refused before a composer recurses into it.  That,
    bad YAML and a scalar Python refuses to build (an int past 4300 digits, a
    timestamp such as 2024-13-45) raise :class:`ParseError`.
    """
    try:
        text, depth = fh.read(), 0
        for event in yaml.parse(text, Loader=_YAML_LOADER):
            depth += isinstance(event, yaml.CollectionStartEvent)
            depth -= isinstance(event, yaml.CollectionEndEvent)
            if depth > _MAX_DEPTH:
                raise ValueError(f"it nests more than {_MAX_DEPTH} deep")
        return yaml.load(text, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        raise ParseError(f"could not parse config {name}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = _document(fh, path)
    return config_from_mapping(raw)


#: the shipped presets, one ``<name>.yaml`` each
_PRESETS = Path(__file__).with_name("presets")


def list_presets() -> list[str]:
    return sorted(path.stem for path in _PRESETS.glob("*.yaml"))


def load_preset(name: str) -> ExperimentConfig:
    """The shipped preset ``name``, parsed as :func:`load_config` parses a
    config file.  A name :func:`list_presets` does not list, a path or an
    over-long string among them, raises :class:`InvalidParameter`."""
    names = list_presets()
    if name not in names:
        raise InvalidParameter(f"unknown preset {_shown(name)}; available: {', '.join(names)}")
    return load_config(_PRESETS / f"{name}.yaml")


@dataclass
class ExperimentReport:
    name: str
    num_vertices: int
    num_edges: int
    kind: LaplacianKind
    num_windows: int
    pairing: str
    min_abs_denominator: float
    nondegeneracy_tolerance: float
    nondegeneracy_satisfied: bool
    relative_error: float
    max_abs_error: float
    spectrogram_argmax_vertex: int
    elapsed_seconds: float
    outputs: dict[str, Path] = field(default_factory=dict)


def _summary_text(report: ExperimentReport) -> str:
    lines = [
        f"experiment: {report.name}",
        f"vertices: {report.num_vertices}",
        f"edges: {report.num_edges}",
        f"laplacian: {report.kind.value}",
        f"windows: {report.num_windows}",
        f"pairing: {report.pairing}",
        f"min_abs_denominator: {report.min_abs_denominator!r}",
        f"nondegeneracy_tolerance: {report.nondegeneracy_tolerance!r}",
        f"nondegeneracy_satisfied: {str(report.nondegeneracy_satisfied).lower()}",
        f"relative_l2_error: {report.relative_error!r}",
        f"max_abs_error: {report.max_abs_error!r}",
        f"spectrogram_argmax_vertex: {report.spectrogram_argmax_vertex}",
    ]
    return "\n".join(lines) + "\n"


def run_experiment(
    config: ExperimentConfig, out_dir=None, write_pgm: bool = False
) -> ExperimentReport:
    """Run one configured experiment and write its artifacts.

    Every input is built before the first write, so a refused config writes
    nothing.  An analysis that overflows float64 raises
    :class:`InvalidParameter` naming its window, and leaves no
    ``coefficients.npz``.  After ``coefficients.npz`` and before
    ``reconstructed.csv``, a spectrogram that overflows raises
    :class:`InvalidParameter`, and a degenerate family
    :class:`DegenerateDenominator` (after the PGM), so the condition report
    and the coefficients are on disk to inspect.
    """
    started = time.perf_counter()
    graph = config.graph.build()
    basis = eigendecompose(laplacian(graph, config.kind), config.kind)
    family = config.windows.build(basis)
    report = check_nondegeneracy(basis, family, config.nondegeneracy_tolerance)
    signal = _signals.build_signal(config.signal, basis)

    out = Path(out_dir if out_dir is not None else f"out/{config.name}")
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, Path] = {}

    def emit(key: str, filename: str, writer) -> Path:
        target = out / filename
        writer(target)
        outputs[key] = target
        return target

    if graph.coordinates is not None:
        emit("coordinates", "coordinates.csv",
             lambda p: write_table(p, ["vertex", "x", "y"], graph.coordinates, 1, "\n"))
    emit("eigenvalues", "eigenvalues.csv", lambda p: save_eigenvalues_csv(p, basis))
    emit("windows", "windows.csv", lambda p: save_family_csv(p, basis, family))
    emit("condition_report", "condition_report.csv", lambda p: save_condition_report_csv(p, report))
    emit(
        "condition_summary",
        "condition_report.txt",
        lambda p: Path(p).write_text(format_condition_report(report), encoding="utf-8"),
    )
    emit("signal", "signal.csv", lambda p: _signals.save_signal_csv(p, signal))

    # one pass: each window is written, then added into the spectrogram sum
    # and, if the report finds d(n) clear of its tolerance, the synthesis sum;
    # the writer refuses, by window, an analysis that overflowed
    windows, power, synthesis = _summed(
        family, _analysis(basis, family, signal), synthesize=report.satisfied
    )
    emit("coefficients", "coefficients.npz", lambda p: save_coefficients(p, windows))

    averaged = power.mean()
    if write_pgm:
        emit("spectrogram_pgm", "spectrogram_avg.pgm", lambda p: save_spectrogram_pgm(p, averaged))
    argmax_vertex = int(np.unravel_index(np.argmax(averaged), averaged.shape)[0]) + 1

    if synthesis is None:
        raise report.error()
    reconstructed = synthesis.reconstruct(report.denominators)
    emit("reconstructed", "reconstructed.csv", lambda p: _signals.save_signal_csv(p, reconstructed))

    residual = np.abs(reconstructed - signal)
    emit("error", "error.csv",
         lambda p: write_table(p, ["vertex", "abs_error"], residual[:, None], 1, "\n"))

    error = reconstructed - signal
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [float(np.linalg.norm(v)) for v in (error, signal)]
    if not (math.isfinite(norms[0]) and math.isfinite(norms[1]) and norms[1]):
        # a sum of squares beyond float64's range: the norms of both scaled by max|f|
        scale = float(np.abs(signal).max())
        norms = [float(np.linalg.norm(v / scale)) for v in (error, signal)] if scale else [0.0, 1.0]
    relative = norms[0] / norms[1]

    result = ExperimentReport(
        name=config.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        kind=config.kind,
        num_windows=family.num_windows,
        pairing=getattr(config.windows, "pairing", "from-file"),
        min_abs_denominator=report.min_abs,
        nondegeneracy_tolerance=report.tolerance,
        nondegeneracy_satisfied=report.satisfied,
        relative_error=relative,
        max_abs_error=float(residual.max()),
        spectrogram_argmax_vertex=argmax_vertex,
        elapsed_seconds=time.perf_counter() - started,
        outputs=outputs,
    )
    emit("summary", "summary.txt", lambda p: Path(p).write_text(_summary_text(result), encoding="utf-8"))
    return result
