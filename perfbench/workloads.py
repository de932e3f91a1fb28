"""The three workloads: fixed inputs built at set-up, one op, its checks.

Every workload drives mwgft through its public functions or its CLI entry
point only.  ``setup`` builds the fixed inputs from the workload seed;
``op`` is the timed unit of work; ``reference`` is the fixed kernel from
``reference.py`` that brackets each op (it does the same kind of work as the
op's dominant cost); ``inspect`` (untimed) turns the op's output
into the checks and counts the benchmark verifies and reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import mwgft
import mwgft.cli
import mwgft.experiment
from reference import csv_roundtrip, csv_write, dense_products


@dataclass
class Check:
    """One reconstruction to verify: ``got`` must match ``expected``."""

    label: str
    expected: object
    got: object
    nondegenerate: bool


@dataclass
class Inspected:
    checks: list
    counts: dict = field(default_factory=dict)


# The two path presets, pinned here so that editing a shipped preset does not
# change the workload.
PATH_IMPULSE = {
    "name": "path-impulse",
    "graph": {"source": "path", "size": 50},
    "laplacian": "normalized",
    "signal": {"type": "impulse", "center": 25},
    "windows": {"kernel": "rbf", "count": 3, "l_fac": 0.7, "pairing": "normalized-synthesis"},
}
PATH_CHIRP = {
    "name": "path-chirp",
    "graph": {"source": "path", "size": 50},
    "laplacian": "normalized",
    "signal": {"type": "chirp", "center": 25, "width": 6.0, "rate": 0.3},
    "windows": {"kernel": "rbf", "count": 6, "l_fac": 0.5, "pairing": "normalized-synthesis"},
}


def irregular_mapping(graph_seed: int) -> dict:
    """A config shaped like the random-irregular preset, on a seeded graph."""
    return {
        "name": "random-irregular",
        "graph": {"source": "random", "size": 300, "seed": graph_seed, "extra_edges": 600},
        "laplacian": "normalized",
        "signal": {"type": "heat"},
        "windows": {"kernel": "rbf", "count": 5, "l_fac": 0.7, "pairing": "same-as-analysis"},
    }


def reference_signal(mapping: dict):
    """The config's signal, generated independently of the experiment runner."""
    g = mapping["graph"]
    if g["source"] == "path":
        graph = mwgft.path_graph(g["size"])
    else:
        graph = mwgft.random_connected_graph(g["size"], g["seed"], extra_edges=g["extra_edges"])
    kind = mwgft.LaplacianKind.from_name(mapping["laplacian"])
    basis = mwgft.eigendecompose(mwgft.laplacian(graph, kind), kind)
    s = mapping["signal"]
    if s["type"] == "impulse":
        return mwgft.impulse(basis.size, s["center"])
    if s["type"] == "chirp":
        return mwgft.chirp_signal(basis.size, s["center"], s["width"], s["rate"])
    return mwgft.heat_signal(basis)


def artifact(paths, stem: str) -> Path:
    """The one artifact named ``stem.<ext>`` among ``paths`` (no sidecars)."""
    found = [Path(p) for p in paths
             if Path(p).name.split(".")[0] == stem and not Path(p).name.endswith(".json")]
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {stem!r} artifact, found {found}")
    return found[0]


class ExperimentRun:
    """``run_experiment`` on path-impulse, path-chirp and a random-irregular
    shaped config (N=300, J=5, heat signal), in that order.

    Why: this is what ``mwgft run`` users do.  Artifact writers dominate and
    the transform does little, so an I/O change shows here and a
    transform-kernel change should not move it.  minnesota-heat is left out
    because its edge list is not shipped.
    """

    reference = staticmethod(csv_write)

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        mappings = [PATH_IMPULSE, PATH_CHIRP, irregular_mapping(rng.randrange(2**31))]
        self.configs = [mwgft.experiment.config_from_mapping(m) for m in mappings]
        self.expected = [reference_signal(m) for m in mappings]

    def op(self, span, workdir: Path):
        return [mwgft.run_experiment(config, out_dir=workdir / config.name)
                for config in self.configs]

    def inspect(self, reports) -> Inspected:
        checks, artifact_bytes = [], 0
        for report, expected in zip(reports, self.expected):
            outputs = list(report.outputs.values())
            signal = mwgft.load_signal_csv(artifact(outputs, "signal"))
            reconstructed = mwgft.load_signal_csv(artifact(outputs, "reconstructed"))
            ok = bool(report.nondegeneracy_satisfied)
            checks.append(Check(f"{report.name} signal", expected, signal, ok))
            checks.append(Check(f"{report.name} reconstructed", expected, reconstructed, ok))
            artifact_bytes += sum(Path(p).stat().st_size for p in outputs)
        return Inspected(checks, {"experiment.artifact_bytes": float(artifact_bytes)})


class TransformLoop:
    """Analyze, spectrogram and synthesize one real and one complex signal
    on a fixed N=1000 graph with a J=5 normalized-synthesis family.

    Why: the dense GEMM kernels do more than 90% of the work and I/O does
    none.  Both dtypes are in each op, so a change that helps one and costs
    the other shows up.
    """

    reference = staticmethod(dense_products)

    size = 1000

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        kind = mwgft.LaplacianKind.SYMMETRIC_NORMALIZED
        graph = mwgft.random_connected_graph(self.size, rng.randrange(2**31),
                                             extra_edges=2 * self.size)
        self.basis = mwgft.eigendecompose(mwgft.laplacian(graph, kind), kind)
        self.family = mwgft.WindowFamily.with_normalized_synthesis(
            mwgft.shifted_family(
                mwgft.rbf_prototype(self.basis.lambda_max, 0.7),
                mwgft.uniform_shifts(self.basis.lambda_max, 5),
                self.basis,
            )
        )
        self.nondegenerate = bool(mwgft.check_nondegeneracy(self.basis, self.family).satisfied)
        self.signals = [
            mwgft.random_signal(self.size, rng.randrange(2**31), complex_values=False),
            mwgft.random_signal(self.size, rng.randrange(2**31), complex_values=True),
        ]

    def op(self, span, workdir: Path):
        reconstructed = []
        for signal in self.signals:
            coeffs = mwgft.mwgft_analyze(self.basis, self.family, signal)
            mwgft.spectrogram(coeffs)
            reconstructed.append(mwgft.mwgft_synthesize(self.basis, self.family, coeffs))
        return reconstructed

    def inspect(self, reconstructed) -> Inspected:
        return Inspected([
            Check(f"signal {i}", signal, got, self.nondegenerate)
            for i, (signal, got) in enumerate(zip(self.signals, reconstructed))
        ])


class StagedRoundtrip:
    """``mwgft analyze`` then ``mwgft synthesize --coefficients``, in-process
    through ``mwgft.cli.main``, on a random-irregular shaped config.

    Why: a coefficient write followed by a read-back parse.  A format change
    that speeds writing but slows reading, or the reverse, shows here and
    nowhere else.
    """

    reference = staticmethod(csv_roundtrip)

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        mapping = irregular_mapping(rng.randrange(2**31))
        self.config = workdir / "config.yaml"
        self.config.write_text(yaml.safe_dump(mapping), encoding="utf-8")
        self.expected = reference_signal(mapping)
        # exit code 0 means the denominator clears its tolerance
        self.nondegenerate = mwgft.cli.main(
            ["windows-check", "--config", str(self.config)]) == 0

    def op(self, span, workdir: Path):
        analyzed, synthesized = workdir / "analyze", workdir / "synthesize"
        with span("cli.analyze"):
            code = mwgft.cli.main(["analyze", "--config", str(self.config), "--out", str(analyzed)])
        coefficients = artifact(analyzed.iterdir(), "coefficients")
        with span("cli.synthesize"):
            code = code or mwgft.cli.main(
                ["synthesize", "--config", str(self.config),
                 "--coefficients", str(coefficients), "--out", str(synthesized)])
        return code, analyzed, synthesized

    def inspect(self, result) -> Inspected:
        code, analyzed, synthesized = result
        if code != 0:
            raise RuntimeError(f"mwgft cli exited with {code}")
        signal = mwgft.load_signal_csv(artifact(analyzed.iterdir(), "signal"))
        reconstructed = mwgft.load_signal_csv(artifact(synthesized.iterdir(), "reconstructed"))
        return Inspected([
            Check("signal.csv", self.expected, signal, self.nondegenerate),
            Check("reconstructed", self.expected, reconstructed, self.nondegenerate),
            Check("reconstructed vs signal.csv", signal, reconstructed, self.nondegenerate),
        ])


WORKLOADS = {
    "experiment-run": ExperimentRun,
    "transform-loop": TransformLoop,
    "staged-roundtrip": StagedRoundtrip,
}
