"""Command line front end.

``mwgft run`` executes a whole experiment from a YAML config or a shipped
preset; the other subcommands expose individual pipeline stages.  Exit codes:
0 success, 1 validation problem (bad input, bad config, mismatched
artifacts), 2 numerical failure (a :class:`~mwgft.errors.NumericalError`:
degenerate denominator, not a frame, disconnected spectrum).

Each subcommand is one entry of ``_COMMANDS``: its help, its handler, its
options and whether it reads a config and builds its signal, so a new
subcommand is one handler and one table entry.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import InvalidParameter, MwgftError, NumericalError, _os_message
from .experiment import (
    _SECTIONS, _bounded, _variant_keys, list_presets, load_config, load_preset, run_experiment,
)
from .graph import laplacian
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
from .windows import WindowFamily, check_nondegeneracy, format_condition_report, save_family_csv
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
    and, for a command that builds the signal, of the signal, wherever that
    field exists; an option with no such field to set, a seed of more than
    63 bits or a graph file holding a NUL byte raises :class:`InvalidParameter`."""
    config = load_preset(args.preset) if args.preset else load_config(args.config)
    builds_signal = _COMMANDS[args.command].builds_signal
    graph, signal = config.graph, config.signal
    if args.graph_file is not None:
        _bounded(args.graph_file, "--graph-file")
        if not _reads(graph, "file"):
            source = next(k for k, v in _SECTIONS["graph"][3].items() if isinstance(graph, v))
            raise InvalidParameter(
                f"--graph-file needs graph source 'file', the config's is {source!r}")
        graph = dataclasses.replace(graph, file=args.graph_file)
    if args.seed is not None:
        _bounded(args.seed, "--seed")
        if not (_reads(graph, "seed") or builds_signal and _reads(signal, "seed")):
            raise InvalidParameter(
                "--seed needs a random graph source or a random signal; "
                + ("this config has neither" if builds_signal else
                   f"`{args.command}` builds no signal and this config's graph has no seed"))
        graph, signal = (dataclasses.replace(part, seed=args.seed) if _reads(part, "seed")
                         else part for part in (graph, signal))
    return dataclasses.replace(config, graph=graph, signal=signal)


def _reads(variant, key: str) -> bool:
    """Whether a config variant reads ``key``, that is has a field of that name."""
    return key in _variant_keys(type(variant))


def _pipeline(args, basis=None):
    """config -> (config, basis, family).  A given ``basis`` (one stored with
    coefficients) replaces the eigendecomposition, once :func:`check_basis`
    has found it to decompose the config's Laplacian."""
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
    graph = _config(args).graph.build()
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
    if args.vectors and not args.out:
        raise InvalidParameter("--vectors needs --out")
    config = _config(args)
    basis = eigendecompose(laplacian(config.graph.build(), config.kind), config.kind)
    for ell, value in enumerate(basis.eigenvalues[:args.limit]):
        print(f"{ell}: {float(value)!r}")
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
    # coefficients first, so an analysis that the writer refuses leaves no file
    save_coefficients(out / "coefficients.npz", windows)
    save_signal_csv(out / "signal.csv", signal)
    save_family_csv(out / "windows.csv", basis, family)
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
    windows = [(WindowFamily.with_same_synthesis(g_hat) if same
                else WindowFamily(g_hat, family.synthesis[j:j + 1]), f"window={j + 1}")
               for j, g_hat in enumerate(family.analysis[:, None])]
    # each window's bounds, then those of the union frame of all of them
    for window, label in windows + [(family, "union")]:
        bounds = frame_bounds(basis, window, config.nondegeneracy_tolerance)
        line = f"{label} lower={bounds.lower!r} upper={bounds.upper!r}"
        if bounds.loose_lower is not None:
            line += f" loose_lower={bounds.loose_lower!r}"
        print(line)
    return 0


class _Command(NamedTuple):
    """A subcommand's help, handler and own options (flag: ``add_argument``
    keywords), whether it reads a config (the options of
    :func:`_add_config_options`) and whether it builds the config's signal."""

    help: str
    handler: Callable[[argparse.Namespace], int]
    options: dict[str, dict]
    reads_config: bool = True
    builds_signal: bool = False


_COMMANDS = {
    "run": _Command("run a full experiment from a config or preset", _cmd_run, {
        "--out": dict(metavar="DIR", default=None, help="output directory"),
        "--pgm": dict(action="store_true", help="also write a PGM spectrogram image"),
    }, builds_signal=True),
    "graph-info": _Command("summary statistics of a config's graph", _cmd_graph_info, {}),
    "eig": _Command("eigenvalues of a config's graph Laplacian", _cmd_eig, {
        "--limit": dict(type=int, default=None, help="print only the first L values"),
        "--out": dict(metavar="DIR", default=None, help="also write CSVs here"),
        "--vectors": dict(action="store_true", help="also write the eigenvector matrix"),
    }),
    "windows-check": _Command("evaluate the reconstruction denominator", _cmd_windows_check, {
        "--out": dict(metavar="FILE", default=None, help="write the report here too")}),
    "analyze": _Command("compute and store windowed-transform coefficients", _cmd_analyze, {
        "--out": dict(metavar="DIR", required=True)}, builds_signal=True),
    "synthesize": _Command("reconstruct a signal from stored coefficients "
                           "and the basis stored with them", _cmd_synthesize, {
        "--coefficients": dict(metavar="FILE", required=True),
        "--out": dict(metavar="DIR", required=True),
    }),
    "spectrogram": _Command("squared-magnitude maps from stored coefficients", _cmd_spectrogram, {
        "--coefficients": dict(metavar="FILE", required=True),
        "--out": dict(metavar="DIR", required=True),
        "--pgm": dict(action="store_true"),
    }, reads_config=False),
    "frame-bounds": _Command("tight frame bounds of each analysis window and of their union",
                             _cmd_frame_bounds, {}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``mwgft`` parser: every subcommand with its help and options,
    built once per process."""
    parser = argparse.ArgumentParser(
        prog="mwgft", description="Windowed / multi-window graph Fourier transform experiments")
    parser.add_argument("--version", action="version", version=f"mwgft {__version__}")
    parser.add_argument("--list-presets", action="store_true",
                        help="print available preset names and exit")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.reads_config:
            _add_config_options(p)
        for flag, options in command.options.items():
            p.add_argument(flag, **options)
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
        return _COMMANDS[args.command].handler(args)
    except MwgftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1
    except OSError as exc:  # missing input, output path that is a file, ...
        print(f"error: {_os_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
