"""Command line front end.

``mwgft run`` executes a whole experiment from a YAML config or a shipped
preset; the other subcommands expose individual pipeline stages.  Exit codes:
0 success, 1 validation problem (bad input, bad config, mismatched
artifacts), 2 numerical failure (a :class:`~mwgft.errors.NumericalError`:
degenerate denominator, not a frame, disconnected spectrum).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidParameter, MwgftError, NumericalError
from .experiment import _SECTIONS, _section, list_presets, load_config, load_preset, run_experiment
from .graph import LaplacianKind, laplacian
from .signals import save_signal_csv
from .spectral import check_basis, eigendecompose, save_eigenvalues_csv, save_vectors_csv
from .transform import (
    _analysis,
    _read_coefficients,
    frame_bounds,
    mwgft_synthesize,
    save_coefficients,
    save_spectrogram_files,
    spectrogram,
)
from .windows import check_nondegeneracy, format_condition_report, save_family_csv
from . import signals as _signals


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", metavar="PATH", help="YAML experiment config")
    group.add_argument("--preset", metavar="NAME", help="shipped preset (see --list-presets)")
    parser.add_argument("--graph-file", metavar="PATH", default=None,
                        help="edge-list file of a config whose graph source is 'file'")
    parser.add_argument("--seed", type=int, default=None,
                        help="override random-graph / random-signal seeds")


def _config(args):
    """The ``--config`` or ``--preset`` config, with ``--graph-file`` as the
    graph source's ``file`` and ``--seed`` as the ``seed`` of the graph source
    and of the signal, wherever that field exists; an option with no such
    field to set raises :class:`InvalidParameter`."""
    config = load_preset(args.preset) if args.preset else load_config(args.config)
    graph, signal = config.graph, config.signal
    if args.graph_file is not None:
        if not _reads(graph, "file"):
            source = next(k for k, v in _SECTIONS["graph"][3].items() if isinstance(graph, v))
            raise InvalidParameter(
                f"--graph-file needs graph source 'file', the config's is {source!r}")
        graph = dataclasses.replace(graph, file=args.graph_file)
    if args.seed is not None:
        if not (_reads(graph, "seed") or _reads(signal, "seed")):
            raise InvalidParameter(
                "--seed needs a random graph source or a random signal; this config has neither")
        graph, signal = (dataclasses.replace(part, seed=args.seed) if _reads(part, "seed")
                         else part for part in (graph, signal))
    return dataclasses.replace(config, graph=graph, signal=signal)


def _reads(variant, key: str) -> bool:
    """Whether a config variant reads ``key``, that is has a field of that name."""
    return any(f.name == key for f in dataclasses.fields(variant))


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--path-size", type=int, metavar="N", help="built-in path graph")
    group.add_argument("--random-size", type=int, metavar="N", help="seeded random connected graph")
    group.add_argument("--graph-file", metavar="PATH", help="edge-list file")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for --random-size (default 0)")
    parser.add_argument("--extra-edges", type=int, default=None)
    parser.add_argument("--coordinates", metavar="PATH", default=None)
    parser.add_argument("--largest-component", action="store_true", default=None)


def _graph_from_args(args):
    """The graph of ``--path-size``, ``--random-size`` or ``--graph-file``;
    every given option is passed on as its config key, so the config check
    rejects one the source does not use."""
    if args.path_size is not None:
        graph = {"source": "path", "size": args.path_size}
    elif args.random_size is not None:
        graph = {"source": "random", "size": args.random_size, "seed": 0}
    else:
        graph = {"source": "file", "file": args.graph_file}
    # `is not None`, not truth: a given --seed 0 must reach the check (0 == False)
    for key in ("seed", "extra_edges", "coordinates", "largest_component"):
        if getattr(args, key) is not None:
            graph[key] = getattr(args, key)
    return _section("graph", graph).build()


def _basis_for(args, graph):
    kind = LaplacianKind.from_name(args.kind)
    return eigendecompose(laplacian(graph, kind), kind)


def _pipeline(args, basis=None):
    """config -> (config, basis, family) shared by several subcommands.

    A given ``basis`` (one stored with coefficients) replaces the
    eigendecomposition, once :func:`check_basis` has found it to decompose
    the config's Laplacian.
    """
    config = _config(args)
    lap = laplacian(config.graph.build(), config.kind)
    if basis is None:
        basis = eigendecompose(lap, config.kind)
    else:
        check_basis(basis, lap, config.kind)
    return config, basis, config.windows.build(basis)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    report = run_experiment(_config(args), out_dir=args.out, write_pgm=args.pgm)
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
    if args.limit is not None and args.limit < 0:
        raise InvalidParameter(f"--limit must be at least 0, got {args.limit}")
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
    config, basis, family = _pipeline(args)
    report = check_nondegeneracy(basis, family, config.nondegeneracy_tolerance)
    text = format_condition_report(report)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0 if report.satisfied else 2


# The coefficient stages hold one window of the (J, N, N) coefficients at a
# time: analyze streams the analysis into the file, and synthesize and
# spectrogram stream the file's windows, each checked as it is read.

def _cmd_analyze(args) -> int:
    config, basis, family = _pipeline(args)
    signal = _signals.build_signal(config.signal, basis)
    windows = _analysis(basis, family, signal)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_signal_csv(out / "signal.csv", signal)
    save_family_csv(out / "windows.csv", basis, family)
    save_coefficients(out / "coefficients.npz", windows)
    print(f"outputs: {out}")
    return 0


def _cmd_synthesize(args) -> int:
    windows = _read_coefficients(args.coefficients)
    config, basis, family = _pipeline(args, windows.basis)
    reconstructed = mwgft_synthesize(basis, family, windows, config.nondegeneracy_tolerance)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_signal_csv(out / "reconstructed.csv", reconstructed)
    print(f"outputs: {out}")
    return 0


def _cmd_spectrogram(args) -> int:
    windows = _read_coefficients(args.coefficients)
    # a first pass reads and checks every window, so a damaged file is
    # refused before anything is written
    averaged = spectrogram(windows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_spectrogram_files(out, windows, averaged, pgm=args.pgm)
    peak = np.unravel_index(np.argmax(averaged), averaged.shape)
    print(f"argmax_vertex: {int(peak[0]) + 1}")
    print(f"argmax_frequency: {int(peak[1])}")
    print(f"outputs: {out}")
    return 0


def _cmd_frame_bounds(args) -> int:
    config, basis, family = _pipeline(args)
    same = family.synthesis is family.analysis
    for j, (g_hat, gamma_hat) in enumerate(zip(family.analysis, family.synthesis), start=1):
        bounds = frame_bounds(basis, g_hat, None if same else gamma_hat,
                              tolerance=config.nondegeneracy_tolerance)
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
    p.add_argument("--out", metavar="FILE", default=None, help="write the report here too")
    p.set_defaults(func=_cmd_windows_check)

    p = sub.add_parser("analyze", help="compute and store windowed-transform coefficients")
    _add_config_options(p)
    p.add_argument("--out", metavar="DIR", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synthesize", help="reconstruct a signal from stored coefficients "
                       "and the basis stored with them")
    _add_config_options(p)
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
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MwgftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # missing input, output path that is a file, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
