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

import importlib.resources
import time
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import signals as _signals
from .errors import InvalidParameter, ParseError
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
from .transform import (
    _analysis,
    _degenerate,
    _summed,
    save_coefficients,
    save_spectrogram_pgm,
)
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
        return load_graph(self.file, coordinates_path=self.coordinates,
                          largest_component=self.largest_component)


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
                f"pairing must be one of {tuple(PAIRING_MODES)}, got {self.pairing!r}")
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
        family, stored = load_family_csv(self.file)
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


def _integer(value) -> int:
    """``int(value)``, but a boolean, a string or a fractional number raises
    ``ValueError`` instead of becoming 1, being parsed or being truncated."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``float(value)`` of a YAML int or float (``.inf`` and ``.nan`` included);
    a boolean or a string raises ``ValueError`` instead of becoming 1.0 or 0.001."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _reals(value) -> tuple:
    """A YAML list of numbers as floats; a string or a mapping raises instead of
    being taken apart (``"12"`` into 1.0, 2.0)."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of numbers, got {value!r}")
    return tuple(map(_real, value))


def _boolean(value) -> bool:
    """``value`` if it is a YAML boolean; a string such as ``"false"`` raises."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _string(value) -> str:
    """``value`` if it is a string; a number (which ``open`` would take for a
    file descriptor) or a list raises."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _name(value) -> str:
    """``value`` if it is a string that names one directory of ``out/``; ``""``,
    ``.``, ``..`` or a path separator would write elsewhere."""
    name = _string(value)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"expected a directory name, got {name!r}")
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


def _keys(section: str, m, known) -> dict:
    """``m``, once it is a mapping whose every key is in ``known``; otherwise
    :class:`InvalidParameter` (``unknown config key graph.sise``)."""
    if not isinstance(m, dict):
        raise InvalidParameter(f"config section {section} must be a mapping, got {m!r}")
    prefix = f"{section}." if section else ""
    unknown = [f"{prefix}{key}" for key in m if key not in known]
    if unknown:
        raise InvalidParameter(f"unknown config key {', '.join(unknown)}")
    return m


def _section(section: str, m):
    """The variant that config section ``section`` selects, built from ``m``.

    A key no variant reads (``unknown config key graph.sise``), an unknown
    variant, a key only another variant reads (``graph source 'path' does not
    use seed``), a missing required key and a value its converter rejects
    raise :class:`InvalidParameter`.  ``mwgft graph-info`` and ``eig`` pass
    their options through here as ``graph`` keys.
    """
    noun, selector, default, variants = _SECTIONS[section]
    known = dict.fromkeys(f.name for kind in variants.values() for f in fields(kind))
    _keys(section, m, {selector, *known})
    variant = default if m.get(selector) is None else m[selector]
    if not (isinstance(variant, str) and variant in variants):
        raise InvalidParameter(f"unknown {noun} {variant!r}")
    kind = variants[variant]
    hints = typing.get_type_hints(kind)
    stray = [key for key in known if key in m and key not in hints]
    if stray:
        raise InvalidParameter(f"{noun} {variant!r} does not use {', '.join(stray)}")
    return kind(**{
        f.name: _value(m, section, f.name, _converter(hints[f.name]),
                       ... if f.default is MISSING else f.default)
        for f in fields(kind)
    })


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Validate a raw (YAML-shaped) mapping into an :class:`ExperimentConfig`."""
    if not isinstance(mapping, dict):
        raise InvalidParameter("experiment config must be a mapping")
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


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ParseError(f"could not parse config {path}: {exc}") from exc
    return config_from_mapping(raw)


def list_presets() -> list[str]:
    root = importlib.resources.files("mwgft") / "presets"
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> ExperimentConfig:
    resource = importlib.resources.files("mwgft") / "presets" / f"{name}.yaml"
    if not resource.is_file():
        raise InvalidParameter(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    raw = yaml.safe_load(resource.read_text(encoding="utf-8"))
    return config_from_mapping(raw)


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
    nothing.  A degenerate family raises :class:`DegenerateDenominator` after
    ``coefficients.npz`` (and the PGM) and before ``reconstructed.csv``, so
    the condition report and the coefficients are on disk to inspect.
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
    # and, if the report finds d(n) clear of its tolerance, the synthesis sum
    windows, power, synthesis = _summed(
        family, _analysis(basis, family, signal), synthesize=report.satisfied
    )
    emit("coefficients", "coefficients.npz", lambda p: save_coefficients(p, windows))
    del windows  # frees N A before the PGM; the sums keep the analysis scratch

    averaged = power.mean()
    if write_pgm:
        emit("spectrogram_pgm", "spectrogram_avg.pgm", lambda p: save_spectrogram_pgm(p, averaged))
    argmax_vertex = int(np.unravel_index(np.argmax(averaged), averaged.shape)[0]) + 1

    if synthesis is None:
        raise _degenerate(report.tolerance, report.failing_vertices)
    reconstructed = synthesis.reconstruct(report.denominators)
    emit("reconstructed", "reconstructed.csv", lambda p: _signals.save_signal_csv(p, reconstructed))

    residual = np.abs(reconstructed - signal)
    emit("error", "error.csv",
         lambda p: write_table(p, ["vertex", "abs_error"], residual[:, None], 1, "\n"))

    signal_norm = float(np.linalg.norm(signal))
    relative = float(np.linalg.norm(reconstructed - signal) / signal_norm) if signal_norm else 0.0

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
