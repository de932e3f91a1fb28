"""End-to-end experiment runner: config -> graph -> basis -> windows ->
analyze -> spectrogram -> synthesize -> report files.

Configs are YAML mappings (see the shipped presets under ``presets/``), and
:func:`run_experiment` writes a fixed set of CSV artifacts plus a plain-text
summary whose values are byte-identical across single-threaded reruns.
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
from .transform import (
    mwgft_analyze,
    mwgft_synthesize,
    save_coefficients,
    save_spectrogram_csv,
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

#: above this vertex count, coefficient CSVs are only written on request
COEFFICIENT_DUMP_LIMIT = 200

PAIRING_MODES = ("normalized-synthesis", "same-as-analysis")


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
        if self.source not in ("path", "file", "random"):
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
        if self.kernel not in ("rbf", "file"):
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
    output: str | None = None
    nondegeneracy_tolerance: float | None = None


def _signal_spec_from_mapping(m: dict) -> _signals.SignalSpec:
    kind = m.get("type")
    if kind == "impulse":
        return _signals.ImpulseSpec(center=int(m["center"]))
    if kind == "heat":
        tau = m.get("tau")
        return _signals.HeatSpec(tau=float(tau) if tau is not None else None)
    if kind == "chirp":
        return _signals.ChirpSpec(
            center=int(m["center"]),
            width=float(m.get("width", 6.0)),
            rate=float(m.get("rate", 0.3)),
        )
    if kind == "spectral":
        return _signals.SpectralProfileSpec(path=m.get("path"))
    if kind == "random":
        return _signals.RandomSpec(
            seed=int(m["seed"]), complex_values=bool(m.get("complex", True))
        )
    raise InvalidParameter(f"unknown signal type {kind!r}")


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Validate a raw (YAML-shaped) mapping into an :class:`ExperimentConfig`."""
    if not isinstance(mapping, dict):
        raise InvalidParameter("experiment config must be a mapping")
    try:
        graph_map = dict(mapping["graph"])
        signal_map = dict(mapping["signal"])
        window_map = dict(mapping.get("windows", {}))
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"config missing section: {exc}") from exc
    graph = GraphSource(
        source=str(graph_map.get("source", "path")),
        size=graph_map.get("size"),
        path=graph_map.get("file"),
        coordinates=graph_map.get("coordinates"),
        largest_component=bool(graph_map.get("largest_component", False)),
        seed=graph_map.get("seed"),
        extra_edges=graph_map.get("extra_edges"),
    )
    shifts = window_map.get("shifts")
    design = WindowDesign(
        kernel=str(window_map.get("kernel", "rbf")),
        count=int(window_map.get("count", 3)),
        l_fac=float(window_map.get("l_fac", 0.7)),
        shifts=tuple(float(s) for s in shifts) if shifts is not None else None,
        pairing=str(window_map.get("pairing", "normalized-synthesis")),
        path=window_map.get("file"),
    )
    tol = mapping.get("tolerances", {}).get("nondegeneracy")
    return ExperimentConfig(
        name=str(mapping.get("name", "experiment")),
        graph=graph,
        kind=LaplacianKind.from_name(str(mapping.get("laplacian", "unnormalized"))),
        signal=_signal_spec_from_mapping(signal_map),
        windows=design,
        output=mapping.get("output"),
        nondegeneracy_tolerance=float(tol) if tol is not None else None,
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


def build_graph_from_source(source: GraphSource, graph_file=None) -> Graph:
    """Materialize the configured graph; ``graph_file`` overrides a file source's path."""
    if source.source == "path":
        return path_graph(int(source.size))
    if source.source == "random":
        return random_connected_graph(
            int(source.size), int(source.seed), extra_edges=source.extra_edges
        )
    path = graph_file or source.path
    if not path:
        raise InvalidParameter(
            "graph source 'file' needs a path (config graph.file or --graph-file)"
        )
    return load_graph(
        path,
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
    shifts = (
        np.asarray(design.shifts, dtype=float)
        if design.shifts is not None
        else uniform_shifts(basis.lambda_max, design.count)
    )
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
    config: ExperimentConfig,
    out_dir=None,
    graph_file=None,
    dump_coefficients: bool = False,
    write_pgm: bool = False,
) -> ExperimentReport:
    """Run one configured experiment and write its artifacts.

    Raises the underlying module error if the family is degenerate; the
    condition report is written to disk before that happens so failures are
    inspectable.
    """
    started = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else Path(config.output or f"out/{config.name}")
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, Path] = {}

    def emit(key: str, filename: str, writer) -> Path:
        target = out / filename
        writer(target)
        outputs[key] = target
        return target

    graph = build_graph_from_source(config.graph, graph_file=graph_file)
    basis = eigendecompose(laplacian(graph, config.kind), config.kind)
    if graph.coordinates is not None:
        def write_coords(target):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write("vertex,x,y\n")
                for i, (x, y) in enumerate(graph.coordinates, start=1):
                    fh.write(f"{i},{float(x)!r},{float(y)!r}\n")
        emit("coordinates", "coordinates.csv", write_coords)
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
    if graph.num_vertices <= COEFFICIENT_DUMP_LIMIT or dump_coefficients:
        emit("coefficients", "coefficients.csv", lambda p: save_coefficients(p, coeffs))

    spec = spectrogram(coeffs)
    for j, matrix in enumerate(spec.per_window, start=1):
        emit(f"spectrogram_w{j}", f"spectrogram_w{j}.csv", lambda p, m=matrix: save_spectrogram_csv(p, m))
    emit("spectrogram_avg", "spectrogram_avg.csv", lambda p: save_spectrogram_csv(p, spec.averaged))
    if write_pgm:
        emit("spectrogram_pgm", "spectrogram_avg.pgm", lambda p: save_spectrogram_pgm(p, spec.averaged))
    argmax_vertex = int(np.unravel_index(np.argmax(spec.averaged), spec.averaged.shape)[0]) + 1

    # synthesize after the condition report exists on disk, so a degenerate
    # family still leaves an inspectable trail when this raises
    reconstructed = mwgft_synthesize(
        basis, family, coeffs, tolerance=config.nondegeneracy_tolerance
    )
    emit("reconstructed", "reconstructed.csv", lambda p: _signals.save_signal_csv(p, reconstructed))

    residual = np.abs(reconstructed - signal)
    def write_error(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("vertex,abs_error\n")
            for i, e in enumerate(residual, start=1):
                fh.write(f"{i},{float(e)!r}\n")
    emit("error", "error.csv", write_error)

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
    result.outputs = outputs
    return result
