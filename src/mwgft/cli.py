"""Command line front end.

``mwgft run`` executes a whole experiment from a YAML config or a shipped
preset; the other subcommands expose individual pipeline stages.  Exit codes:
0 success, 1 validation problem (bad input, bad config, mismatched
artifacts), 2 numerical failure (degenerate denominator, not a frame,
disconnected spectrum).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DegenerateCoverage,
    DegenerateDenominator,
    EigSolverFailure,
    MultipleZeroEigenvalues,
    MwgftError,
    NotAFrame,
)
from .experiment import (
    build_family,
    build_graph_from_source,
    GraphSource,
    list_presets,
    load_config,
    load_preset,
    run_experiment,
)
from .graph import LaplacianKind, laplacian
from .signals import RandomSpec, save_signal_csv
from .spectral import eigendecompose, save_eigenvalues_csv, save_vectors_csv
from .transform import (
    frame_bounds,
    load_coefficients,
    mwgft_analyze,
    mwgft_synthesize,
    save_coefficients,
    save_spectrogram_csv,
    save_spectrogram_pgm,
    spectrogram,
)
from .windows import check_nondegeneracy, format_condition_report, save_family_csv
from . import signals as _signals

NUMERICAL_ERRORS = (
    DegenerateDenominator,
    DegenerateCoverage,
    NotAFrame,
    MultipleZeroEigenvalues,
    EigSolverFailure,
)


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="YAML experiment config")
    group.add_argument("--preset", metavar="NAME", help="shipped preset (see --list-presets)")
    parser.add_argument("--graph-file", metavar="PATH", default=None,
                        help="override the config's graph edge-list file")


def _resolve_config(args):
    if args.preset:
        return load_preset(args.preset)
    return load_config(args.config)


def _apply_seed(config, seed):
    """--seed overrides the seeds of random graph sources and random signals."""
    if seed is None:
        return config
    graph = config.graph
    if graph.source == "random":
        graph = dataclasses.replace(graph, seed=int(seed))
    signal = config.signal
    if isinstance(signal, RandomSpec):
        signal = dataclasses.replace(signal, seed=int(seed))
    return dataclasses.replace(config, graph=graph, signal=signal)


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--path-size", type=int, metavar="N", help="built-in path graph")
    group.add_argument("--random-size", type=int, metavar="N", help="seeded random connected graph")
    group.add_argument("--graph-file", metavar="PATH", help="edge-list file")
    parser.add_argument("--seed", type=int, default=0, help="seed for --random-size")
    parser.add_argument("--extra-edges", type=int, default=None)
    parser.add_argument("--coordinates", metavar="PATH", default=None)
    parser.add_argument("--largest-component", action="store_true")


def _graph_from_args(args):
    if args.path_size is not None:
        source = GraphSource(source="path", size=args.path_size)
    elif args.random_size is not None:
        source = GraphSource(source="random", size=args.random_size,
                             seed=args.seed, extra_edges=args.extra_edges)
    else:
        source = GraphSource(source="file", path=args.graph_file,
                             coordinates=args.coordinates,
                             largest_component=args.largest_component)
    return build_graph_from_source(source)


def _basis_for(args, graph):
    kind = LaplacianKind.from_name(args.kind)
    return eigendecompose(laplacian(graph, kind), kind)


def _pipeline(args):
    """config -> (config, graph, basis, family) shared by several subcommands."""
    config = _apply_seed(_resolve_config(args), getattr(args, "seed", None))
    graph = build_graph_from_source(config.graph, graph_file=args.graph_file)
    basis = eigendecompose(laplacian(graph, config.kind), config.kind)
    family = build_family(config.windows, basis)
    return config, graph, basis, family


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = _apply_seed(_resolve_config(args), args.seed)
    report = run_experiment(
        config,
        out_dir=args.out,
        graph_file=args.graph_file,
        dump_coefficients=args.dump_coefficients,
        write_pgm=args.pgm,
    )
    print((report.outputs["summary"]).read_text(encoding="utf-8"), end="")
    print(f"elapsed_seconds: {report.elapsed_seconds:.3f}")
    print(f"outputs: {report.outputs['summary'].parent}")
    return 0


def _cmd_graph_info(args) -> int:
    graph = _graph_from_args(args)
    degrees = graph.degrees
    print(f"vertices: {graph.num_vertices}")
    print(f"edges: {graph.num_edges}")
    print(f"min_degree: {float(degrees.min())!r}")
    print(f"max_degree: {float(degrees.max())!r}")
    print(f"mean_degree: {float(degrees.mean())!r}")
    print("connected: true")
    return 0


def _cmd_eig(args) -> int:
    graph = _graph_from_args(args)
    basis = _basis_for(args, graph)
    limit = args.limit if args.limit is not None else basis.size
    for ell in range(min(limit, basis.size)):
        print(f"{ell}: {float(basis.eigenvalues[ell])!r}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_eigenvalues_csv(out / "eigenvalues.csv", basis)
        if args.vectors:
            save_vectors_csv(out / "eigenvectors.csv", basis)
        print(f"outputs: {out}")
    return 0


def _cmd_windows_check(args) -> int:
    config, _, basis, family = _pipeline(args)
    report = check_nondegeneracy(basis, family, config.nondegeneracy_tolerance)
    text = format_condition_report(report)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if report.satisfied else 2


def _cmd_analyze(args) -> int:
    config, _, basis, family = _pipeline(args)
    signal = _signals.build_signal(config.signal, basis)
    coeffs = mwgft_analyze(basis, family, signal)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_signal_csv(out / "signal.csv", signal)
    save_family_csv(out / "windows.csv", basis, family)
    save_coefficients(out / "coefficients.csv", coeffs)
    print(f"outputs: {out}")
    return 0


def _cmd_synthesize(args) -> int:
    config, _, basis, family = _pipeline(args)
    coeffs = load_coefficients(args.coefficients)
    reconstructed = mwgft_synthesize(
        basis, family, coeffs, tolerance=config.nondegeneracy_tolerance
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_signal_csv(out / "reconstructed.csv", reconstructed)
    print(f"outputs: {out}")
    return 0


def _cmd_spectrogram(args) -> int:
    coeffs = load_coefficients(args.coefficients)
    spec = spectrogram(coeffs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for j, matrix in enumerate(spec.per_window, start=1):
        save_spectrogram_csv(out / f"spectrogram_w{j}.csv", matrix)
    save_spectrogram_csv(out / "spectrogram_avg.csv", spec.averaged)
    if args.pgm:
        save_spectrogram_pgm(out / "spectrogram_avg.pgm", spec.averaged)
    peak = np.unravel_index(np.argmax(spec.averaged), spec.averaged.shape)
    print(f"argmax_vertex: {int(peak[0]) + 1}")
    print(f"argmax_frequency: {int(peak[1])}")
    print(f"outputs: {out}")
    return 0


def _cmd_frame_bounds(args) -> int:
    _, _, basis, family = _pipeline(args)
    for j, (g, gam) in enumerate(zip(family.analysis, family.synthesis), start=1):
        dual = None if gam is g else gam
        bounds = frame_bounds(basis, g, dual_window=dual)
        line = f"window={j} lower={bounds.lower!r} upper={bounds.upper!r}"
        if bounds.loose_lower is not None:
            line += f" loose_lower={bounds.loose_lower!r} loose_upper={bounds.loose_upper!r}"
        print(line)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwgft",
        description="Windowed / multi-window graph Fourier transform experiments",
    )
    parser.add_argument("--version", action="version", version=f"mwgft {__version__}")
    parser.add_argument("--list-presets", action="store_true",
                        help="print available preset names and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("run", help="run a full experiment from a config or preset")
    _add_config_options(p)
    p.add_argument("--out", metavar="DIR", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override random-graph / random-signal seeds")
    p.add_argument("--dump-coefficients", action="store_true",
                   help="write coefficient CSVs even on large graphs")
    p.add_argument("--pgm", action="store_true", help="also write a PGM spectrogram image")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("graph-info", help="summary statistics of a graph")
    _add_graph_options(p)
    p.set_defaults(func=_cmd_graph_info)

    p = sub.add_parser("eig", help="Laplacian eigenvalues of a graph")
    _add_graph_options(p)
    p.add_argument("--kind", choices=[k.value for k in LaplacianKind],
                   default=LaplacianKind.UNNORMALIZED.value)
    p.add_argument("--limit", type=int, default=None, help="print only the first L values")
    p.add_argument("--out", metavar="DIR", default=None, help="also write CSVs here")
    p.add_argument("--vectors", action="store_true", help="also write the eigenvector matrix")
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("windows-check", help="evaluate the reconstruction denominator")
    _add_config_options(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="FILE", default=None, help="write the report here too")
    p.set_defaults(func=_cmd_windows_check)

    p = sub.add_parser("analyze", help="compute and store windowed-transform coefficients")
    _add_config_options(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", metavar="DIR", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="reconstruct a signal from stored coefficients")
    _add_config_options(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--coefficients", metavar="FILE", required=True)
    p.add_argument("--out", metavar="DIR", required=True)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("spectrogram", help="squared-magnitude maps from stored coefficients")
    p.add_argument("--coefficients", metavar="FILE", required=True)
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--pgm", action="store_true")
    p.set_defaults(func=_cmd_spectrogram)

    p = sub.add_parser("frame-bounds", help="tight frame bounds of each analysis window")
    _add_config_options(p)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_frame_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation problems here
        return 0 if exc.code in (0, None) else 1
    if args.list_presets:
        for name in list_presets():
            print(name)
        return 0
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MwgftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
