"""End-to-end experiment runner: config -> graph -> basis -> windows ->
analyze -> spectrogram -> synthesize -> report files.

Configs are YAML mappings (see the shipped presets under ``presets/``), and
:func:`run_experiment` writes a fixed set of CSV artifacts (the table layout
of :mod:`mwgft.tables`) plus ``coefficients.npz`` and a plain-text summary
whose values are byte-identical across reruns at a fixed BLAS thread count.
The spectrogram stays in memory: the summary takes its argmax vertex from
the averaged |S|^2, ``write_pgm`` saves that map as a grayscale image, and
``mwgft spectrogram`` writes its CSVs from ``coefficients.npz``.
Malformed config values and keys that nothing reads raise
:class:`InvalidParameter` naming their key.
"""

from __future__ import annotations

import importlib.resources
import time
from dataclasses import dataclass, field
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
    mwgft_analyze,
    mwgft_synthesize,
    save_coefficients,
    save_spectrogram_pgm,
    spectrogram,
)
from .windows import (
    WindowFamily,
    check_nondegeneracy,
    format_condition_report,
    load_family_csv,
    rbf_prototype,
    save_condition_report_csv,
    save_family_csv,
    shifted_family,
    uniform_shifts,
)

PAIRING_MODES = ("normalized-synthesis", "same-as-analysis")


#: The keys each config section reads: per section, the name of its variants
#: (for messages), the key that selects one and the other keys each variant
#: reads, in message order.  The top level and ``tolerances`` have one variant.
_KEYS = {
    "": (None, None, {None: ("name", "graph", "laplacian", "signal", "windows", "tolerances")}),
    "graph": ("graph source", "source", {"path": ("size",),
                                         "file": ("file", "coordinates", "largest_component"),
                                         "random": ("size", "seed", "extra_edges")}),
    "signal": ("signal type", "type", {"impulse": ("center",),
                                       "heat": ("tau",),
                                       "chirp": ("center", "width", "rate"),
                                       "spectral": ("path",),
                                       "random": ("seed", "complex")}),
    "windows": ("window kernel", "kernel", {"rbf": ("count", "l_fac", "shifts", "pairing"),
                                            "file": ("file",)}),
    "tolerances": (None, None, {None: ("nondegeneracy",)}),
}


def _variant(section: str, m: dict, default=None):
    """The variant that config section ``section`` selects (None for one
    without variants), once every key of ``m`` is one that variant reads.

    An unknown variant, a key no variant reads (``unknown config key
    graph.sise``) and a key only another variant reads (``graph source 'path'
    does not use seed``) raise :class:`InvalidParameter`.
    """
    noun, selector, variants = _KEYS[section]
    variant = m.get(selector, default) if selector else None
    if selector and not (isinstance(variant, str) and variant in variants):
        raise InvalidParameter(f"unknown {noun} {variant!r}")
    known = dict.fromkeys(key for keys in variants.values() for key in keys)
    prefix = f"{section}." if section else ""
    unknown = [f"{prefix}{key}" for key in m if key != selector and key not in known]
    if unknown:
        raise InvalidParameter(f"unknown config key {', '.join(unknown)}")
    stray = [key for key in known if key in m and key not in variants[variant]]
    if stray:
        raise InvalidParameter(f"{noun} {variant!r} does not use {', '.join(stray)}")
    return variant


@dataclass(frozen=True)
class GraphSource:
    """Where the graph comes from: a built-in path, an edge-list file, or a
    seeded random connected graph."""

    source: str
    size: int | None = None
    path: str | None = None
    coordinates: str | None = None
    largest_component: bool = False
    seed: int | None = None
    extra_edges: int | None = None

    def __post_init__(self):
        if self.source not in _KEYS["graph"][2]:
            raise InvalidParameter(f"unknown graph source {self.source!r}")
        if self.source in ("path", "random") and not self.size:
            raise InvalidParameter(f"graph source {self.source!r} needs a size")
        if self.source == "random" and self.seed is None:
            raise InvalidParameter("random graph source needs a seed")


@dataclass(frozen=True)
class WindowDesign:
    """How the family is built: shifted RBF windows or a user CSV."""

    kernel: str = "rbf"
    count: int = 3
    l_fac: float = 0.7
    shifts: tuple | None = None
    pairing: str = "normalized-synthesis"
    path: str | None = None

    def __post_init__(self):
        if self.kernel not in _KEYS["windows"][2]:
            raise InvalidParameter(f"unknown window kernel {self.kernel!r}")
        if self.kernel == "file" and not self.path:
            raise InvalidParameter("window kernel 'file' needs a path")
        if self.kernel == "rbf" and self.pairing not in PAIRING_MODES:
            raise InvalidParameter(
                f"pairing must be one of {PAIRING_MODES}, got {self.pairing!r}"
            )
        if self.kernel == "rbf" and self.count < 1:
            raise InvalidParameter("window count must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    graph: GraphSource
    kind: LaplacianKind
    signal: _signals.SignalSpec
    windows: WindowDesign
    nondegeneracy_tolerance: float | None = None


def _value(m: dict, section: str, key: str, convert, default=None):
    """``convert(m[key])``, or ``default`` when the key is absent or empty.

    A missing required key (``default=...``) or a value ``convert`` rejects
    raises :class:`InvalidParameter` naming ``section.key``.
    """
    value = m.get(key)
    if value is None and default is ...:
        raise InvalidParameter(f"config key {section}.{key} is required")
    try:
        return default if value is None else convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"config key {section}.{key}: {exc}") from exc


def _integer(value) -> int:
    """``int(value)``, but a boolean or a fractional number raises ``ValueError``
    instead of becoming 1 or being truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _boolean(value) -> bool:
    """``value`` if it is a YAML boolean; a string such as ``"false"`` raises."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _signal_spec_from_mapping(m: dict) -> _signals.SignalSpec:
    kind = _variant("signal", m)
    if kind == "impulse":
        return _signals.ImpulseSpec(center=_value(m, "signal", "center", _integer, ...))
    if kind == "heat":
        return _signals.HeatSpec(tau=_value(m, "signal", "tau", float))
    if kind == "chirp":
        return _signals.ChirpSpec(
            center=_value(m, "signal", "center", _integer, ...),
            width=_value(m, "signal", "width", float, 6.0),
            rate=_value(m, "signal", "rate", float, 0.3),
        )
    if kind == "spectral":
        return _signals.SpectralProfileSpec(path=m.get("path"))
    return _signals.RandomSpec(
        seed=_value(m, "signal", "seed", _integer, ...),
        complex_values=_value(m, "signal", "complex", _boolean, True),
    )


def _graph_source(m: dict) -> GraphSource:
    """The :class:`GraphSource` of a ``graph`` config section; ``mwgft
    graph-info`` and ``eig`` pass their options through here as config keys."""
    return GraphSource(
        source=_variant("graph", m, "path"),
        size=_value(m, "graph", "size", _integer),
        path=m.get("file"),
        coordinates=m.get("coordinates"),
        largest_component=_value(m, "graph", "largest_component", _boolean, False),
        seed=_value(m, "graph", "seed", _integer),
        extra_edges=_value(m, "graph", "extra_edges", _integer),
    )


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Validate a raw (YAML-shaped) mapping into an :class:`ExperimentConfig`."""
    if not isinstance(mapping, dict):
        raise InvalidParameter("experiment config must be a mapping")
    _variant("", mapping)
    sections = []
    for name, default in (("graph", None), ("signal", None), ("windows", {}), ("tolerances", {})):
        sections.append(mapping.get(name, default))
        if not isinstance(sections[-1], dict):
            raise InvalidParameter(f"config section {name} must be a mapping, got {sections[-1]!r}")
    graph_map, signal_map, window_map, tolerance_map = sections
    graph = _graph_source(graph_map)
    kernel = _variant("windows", window_map, "rbf")
    if "count" in window_map and window_map.get("shifts") is not None:
        raise InvalidParameter("config key windows.count: windows.shifts sets the window count")
    design = WindowDesign(
        kernel=kernel,
        count=_value(window_map, "windows", "count", _integer, 3),
        l_fac=_value(window_map, "windows", "l_fac", float, 0.7),
        shifts=_value(window_map, "windows", "shifts", lambda v: tuple(float(s) for s in v)),
        pairing=str(window_map.get("pairing", "normalized-synthesis")),
        path=window_map.get("file"),
    )
    _variant("tolerances", tolerance_map)
    return ExperimentConfig(
        name=str(mapping.get("name", "experiment")),
        graph=graph,
        kind=LaplacianKind.from_name(str(mapping.get("laplacian", "unnormalized"))),
        signal=_signal_spec_from_mapping(signal_map),
        windows=design,
        nondegeneracy_tolerance=_value(tolerance_map, "tolerances", "nondegeneracy", float),
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


def build_graph_from_source(source: GraphSource) -> Graph:
    """Materialize the configured graph."""
    if source.source == "path":
        return path_graph(int(source.size))
    if source.source == "random":
        return random_connected_graph(
            int(source.size), int(source.seed), extra_edges=source.extra_edges
        )
    if not source.path:
        raise InvalidParameter(
            "graph source 'file' needs a path (config graph.file or --graph-file)"
        )
    return load_graph(
        source.path,
        coordinates_path=source.coordinates,
        largest_component=source.largest_component,
    )


def build_family(design: WindowDesign, basis: SpectralBasis) -> WindowFamily:
    if design.kernel == "file":
        family, stored = load_family_csv(design.path)
        if family.size != basis.size:
            raise InvalidParameter(
                f"window file has {family.size} samples, basis has {basis.size}"
            )
        if not np.allclose(stored, basis.eigenvalues, atol=1e-8 * max(1.0, basis.lambda_max)):
            raise InvalidParameter(
                "window file was sampled on different eigenvalues than this graph"
            )
        return family
    prototype = rbf_prototype(basis.lambda_max, design.l_fac)
    shifts = design.shifts  # the count is read only without explicit shifts
    if shifts is None:
        shifts = uniform_shifts(basis.lambda_max, design.count)
    analysis = shifted_family(prototype, shifts, basis)
    if design.pairing == "same-as-analysis":
        return WindowFamily.with_same_synthesis(analysis)
    return WindowFamily.with_normalized_synthesis(analysis)


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

    Raises the underlying module error if the family is degenerate; the
    condition report is written to disk before that happens so failures are
    inspectable.
    """
    started = time.perf_counter()
    out = Path(out_dir if out_dir is not None else f"out/{config.name}")
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, Path] = {}

    def emit(key: str, filename: str, writer) -> Path:
        target = out / filename
        writer(target)
        outputs[key] = target
        return target

    graph = build_graph_from_source(config.graph)
    basis = eigendecompose(laplacian(graph, config.kind), config.kind)
    if graph.coordinates is not None:
        emit("coordinates", "coordinates.csv",
             lambda p: write_table(p, ["vertex", "x", "y"], graph.coordinates, 1, "\n"))
    emit("eigenvalues", "eigenvalues.csv", lambda p: save_eigenvalues_csv(p, basis))

    family = build_family(config.windows, basis)
    emit("windows", "windows.csv", lambda p: save_family_csv(p, basis, family))

    report = check_nondegeneracy(basis, family, config.nondegeneracy_tolerance)
    emit("condition_report", "condition_report.csv", lambda p: save_condition_report_csv(p, report))
    emit(
        "condition_summary",
        "condition_report.txt",
        lambda p: Path(p).write_text(format_condition_report(report), encoding="utf-8"),
    )

    signal = _signals.build_signal(config.signal, basis)
    emit("signal", "signal.csv", lambda p: _signals.save_signal_csv(p, signal))

    coeffs = mwgft_analyze(basis, family, signal)
    emit("coefficients", "coefficients.npz", lambda p: save_coefficients(p, coeffs))

    averaged = spectrogram(coeffs).averaged
    if write_pgm:
        emit("spectrogram_pgm", "spectrogram_avg.pgm", lambda p: save_spectrogram_pgm(p, averaged))
    argmax_vertex = int(np.unravel_index(np.argmax(averaged), averaged.shape)[0]) + 1

    # synthesize after the condition report exists on disk, so a degenerate
    # family still leaves an inspectable trail when this raises
    reconstructed = mwgft_synthesize(
        basis, family, coeffs, tolerance=config.nondegeneracy_tolerance
    )
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
        pairing=config.windows.pairing if config.windows.kernel == "rbf" else "from-file",
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
