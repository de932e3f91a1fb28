import numpy as np
import pytest
import yaml

from mwgft import (
    InvalidParameter,
    LaplacianKind,
    ParseError,
    SpectralWindow,
    WindowFamily,
    load_signal_csv,
    save_family_csv,
)
from mwgft.cli import main
from mwgft.experiment import (
    ExperimentConfig,
    GraphSource,
    WindowDesign,
    config_from_mapping,
    list_presets,
    load_config,
    load_preset,
    run_experiment,
)
from mwgft.signals import ChirpSpec, HeatSpec, ImpulseSpec, RandomSpec
from helpers import basis_for
from mwgft.graph import path_graph


def minimal_mapping(**overrides):
    base = {
        "name": "t",
        "graph": {"source": "path", "size": 8},
        "signal": {"type": "impulse", "center": 4},
    }
    base.update(overrides)
    return base


def write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


def disjoint_family_csv(tmp_path, n=6):
    """A window file whose analysis/synthesis pair has zero overlap everywhere."""
    basis = basis_for(path_graph(n))
    e1, e2 = np.zeros(n), np.zeros(n)
    e1[1], e2[2] = 1.0, 1.0
    family = WindowFamily.paired([SpectralWindow(e1)], [SpectralWindow(e2)])
    target = tmp_path / "degenerate_windows.csv"
    save_family_csv(target, basis, family)
    return str(target)


class TestConfigMapping:
    def test_defaults(self):
        config = config_from_mapping(minimal_mapping())
        assert config.kind is LaplacianKind.UNNORMALIZED
        assert config.windows == WindowDesign()
        assert config.signal == ImpulseSpec(center=4)
        assert config.nondegeneracy_tolerance is None

    def test_full_mapping(self):
        config = config_from_mapping(
            {
                "name": "full",
                "graph": {"source": "random", "size": 12, "seed": 9, "extra_edges": 4},
                "laplacian": "normalized",
                "signal": {"type": "chirp", "center": 6, "width": 2.0, "rate": 0.1},
                "windows": {"kernel": "rbf", "count": 4, "l_fac": 0.5,
                            "shifts": [0.0, 1.0], "pairing": "same-as-analysis"},
                "tolerances": {"nondegeneracy": 1e-6},
            }
        )
        assert config.kind is LaplacianKind.SYMMETRIC_NORMALIZED
        assert config.graph.seed == 9
        assert config.signal == ChirpSpec(center=6, width=2.0, rate=0.1)
        assert config.windows.shifts == (0.0, 1.0)
        assert config.nondegeneracy_tolerance == 1e-6

    def test_not_a_mapping(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(["nope"])

    def test_missing_graph_section(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping({"signal": {"type": "heat"}})

    def test_unknown_signal_type(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(minimal_mapping(signal={"type": "sawtooth"}))

    def test_unknown_graph_source(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(minimal_mapping(graph={"source": "torus", "size": 4}))

    def test_unknown_pairing(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(minimal_mapping(windows={"pairing": "dualless"}))

    def test_unknown_laplacian(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(minimal_mapping(laplacian="combinatorialish"))

    def test_random_source_needs_seed(self):
        with pytest.raises(InvalidParameter):
            GraphSource(source="random", size=8)

    def test_file_kernel_needs_path(self):
        with pytest.raises(InvalidParameter):
            WindowDesign(kernel="file")


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = write_yaml(tmp_path / "cfg.yaml", minimal_mapping())
        config = load_config(path)
        assert isinstance(config, ExperimentConfig)
        assert config.name == "t"
        assert config.graph.size == 8

    def test_bad_yaml(self, tmp_path):
        target = tmp_path / "bad.yaml"
        target.write_text("graph: [unclosed\n  nope", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(target)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.yaml")


class TestPresets:
    def test_names(self):
        assert list_presets() == [
            "minnesota-heat",
            "path-chirp",
            "path-impulse",
            "random-irregular",
        ]

    def test_each_preset_loads(self):
        for name in list_presets():
            config = load_preset(name)
            assert config.name == name

    def test_unknown_preset(self):
        with pytest.raises(InvalidParameter):
            load_preset("no-such-thing")

    def test_impulse_preset_shape(self):
        config = load_preset("path-impulse")
        assert config.graph == GraphSource(source="path", size=50)
        assert config.kind is LaplacianKind.SYMMETRIC_NORMALIZED
        assert config.signal == ImpulseSpec(center=25)
        assert config.windows.count == 3 and config.windows.l_fac == 0.7

    def test_heat_presets_use_default_diffusion_time(self):
        assert load_preset("random-irregular").signal == HeatSpec(tau=None)
        assert load_preset("minnesota-heat").graph.largest_component is True


class TestRunExperiment:
    def test_impulse_preset_report(self, tmp_path):
        report = run_experiment(load_preset("path-impulse"), out_dir=tmp_path / "out")
        assert report.num_vertices == 50 and report.num_edges == 49
        assert report.nondegeneracy_satisfied is True
        assert report.relative_error <= 1e-10
        assert report.spectrogram_argmax_vertex == 25
        for key in ("eigenvalues", "windows", "condition_report", "signal",
                    "coefficients", "spectrogram_avg", "reconstructed", "error", "summary"):
            assert report.outputs[key].is_file(), key
        summary = report.outputs["summary"].read_text()
        assert "relative_l2_error" in summary and "nondegeneracy_satisfied: true" in summary

    def test_rerun_is_byte_identical(self, tmp_path):
        config = load_preset("path-impulse")
        a = run_experiment(config, out_dir=tmp_path / "a")
        b = run_experiment(config, out_dir=tmp_path / "b")
        assert a.outputs["summary"].read_bytes() == b.outputs["summary"].read_bytes()
        assert a.outputs["reconstructed"].read_bytes() == b.outputs["reconstructed"].read_bytes()

    def test_coefficient_dump_gate(self, tmp_path):
        mapping = minimal_mapping(
            graph={"source": "path", "size": 201},
            signal={"type": "impulse", "center": 100},
            windows={"kernel": "rbf", "count": 1},
        )
        config = config_from_mapping(mapping)
        skipped = run_experiment(config, out_dir=tmp_path / "skip")
        assert "coefficients" not in skipped.outputs
        forced = run_experiment(config, out_dir=tmp_path / "force", dump_coefficients=True)
        assert forced.outputs["coefficients"].is_file()

    def test_coordinates_written_for_path_graph(self, tmp_path):
        config = config_from_mapping(minimal_mapping())
        report = run_experiment(config, out_dir=tmp_path / "out")
        lines = report.outputs["coordinates"].read_text().strip().splitlines()
        assert lines[0] == "vertex,x,y"
        assert len(lines) == 9


class TestCliBasics:
    def test_list_presets(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["minnesota-heat", "path-chirp", "path-impulse", "random-irregular"]

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage: mwgft" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("mwgft ")

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_graph_info(self, capsys):
        assert main(["graph-info", "--path-size", "5"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 5" in out and "edges: 4" in out

    def test_eig_two_path(self, capsys):
        assert main(["eig", "--path-size", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split(": ")[1]) for line in lines]
        assert values == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_eig_limit_and_out(self, tmp_path, capsys):
        out = tmp_path / "eig"
        code = main(["eig", "--path-size", "10", "--kind", "normalized",
                     "--limit", "3", "--out", str(out), "--vectors"])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count(": ") >= 3
        assert (out / "eigenvalues.csv").is_file()
        assert (out / "eigenvectors.csv").is_file()


class TestCliRun:
    def test_preset_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--preset", "path-impulse", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "relative_l2_error" in printed
        assert "spectrogram_argmax_vertex: 25" in printed
        assert (out / "summary.txt").is_file()

    def test_pgm_flag(self, tmp_path):
        out = tmp_path / "out"
        args = ["run", "--preset", "path-impulse", "--out", str(out), "--pgm"]
        assert main(args) == 0
        assert (out / "spectrogram_avg.pgm").read_bytes().startswith(b"P5\n")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["run", "--preset", "nope"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_file_preset_without_graph_file(self, capsys):
        assert main(["run", "--preset", "minnesota-heat"]) == 1
        assert "--graph-file" in capsys.readouterr().err

    def test_degenerate_family_exits_2(self, tmp_path, capsys):
        mapping = minimal_mapping(
            graph={"source": "path", "size": 6},
            signal={"type": "impulse", "center": 3},
            windows={"kernel": "file", "file": disjoint_family_csv(tmp_path)},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        # the condition report is already on disk even though synthesis failed
        assert "satisfied: false" in (out / "condition_report.txt").read_text()
        assert not (out / "summary.txt").exists()

    def test_seed_override(self, tmp_path, capsys):
        mapping = minimal_mapping(
            graph={"source": "random", "size": 20, "seed": 1},
            signal={"type": "heat"},
            windows={"kernel": "rbf", "count": 2},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        assert main(["run", "--config", cfg, "--out", str(outs[0])]) == 0
        assert main(["run", "--config", cfg, "--out", str(outs[1]), "--seed", "7"]) == 0
        assert main(["run", "--config", cfg, "--out", str(outs[2]), "--seed", "7"]) == 0
        capsys.readouterr()
        default, seeded, repeated = [(p / "summary.txt").read_bytes() for p in outs]
        assert default != seeded
        assert seeded == repeated


class TestCliPipelines:
    def test_analyze_synthesize_round_trip(self, tmp_path, capsys):
        stage1, stage2 = tmp_path / "analysis", tmp_path / "synthesis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        code = main(["synthesize", "--preset", "path-impulse",
                     "--coefficients", str(stage1 / "coefficients.csv"),
                     "--out", str(stage2)])
        assert code == 0
        original = load_signal_csv(stage1 / "signal.csv")
        rebuilt = load_signal_csv(stage2 / "reconstructed.csv")
        assert np.linalg.norm(rebuilt - original) <= 1e-10 * np.linalg.norm(original)

    def test_synthesize_rejects_foreign_coefficients(self, tmp_path, capsys):
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        other = write_yaml(
            tmp_path / "other.yaml",
            minimal_mapping(graph={"source": "path", "size": 50},
                            signal={"type": "impulse", "center": 25},
                            laplacian="unnormalized"),
        )
        code = main(["synthesize", "--config", other,
                     "--coefficients", str(stage1 / "coefficients.csv"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_spectrogram_command(self, tmp_path, capsys):
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        out = tmp_path / "spec"
        code = main(["spectrogram", "--coefficients", str(stage1 / "coefficients.csv"),
                     "--out", str(out), "--pgm"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "argmax_vertex: 25" in printed
        assert (out / "spectrogram_avg.csv").is_file()
        assert (out / "spectrogram_w3.csv").is_file()
        assert (out / "spectrogram_avg.pgm").is_file()

    def test_windows_check_healthy(self, tmp_path, capsys):
        report_file = tmp_path / "report.txt"
        code = main(["windows-check", "--preset", "path-impulse", "--out", str(report_file)])
        assert code == 0
        assert "satisfied: true" in capsys.readouterr().out
        assert "satisfied: true" in report_file.read_text()

    def test_windows_check_degenerate(self, tmp_path, capsys):
        mapping = minimal_mapping(
            graph={"source": "path", "size": 6},
            signal={"type": "impulse", "center": 3},
            windows={"kernel": "file", "file": disjoint_family_csv(tmp_path)},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        assert main(["windows-check", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "satisfied: false" in out
        assert "failing_vertices: 1 2 3 4 5 6" in out

    def test_window_file_from_other_spectrum_rejected(self, tmp_path, capsys):
        mapping = minimal_mapping(
            graph={"source": "path", "size": 6},
            signal={"type": "impulse", "center": 3},
            laplacian="normalized",  # the file was sampled on unnormalized eigenvalues
            windows={"kernel": "file", "file": disjoint_family_csv(tmp_path)},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        assert main(["windows-check", "--config", cfg]) == 1
        assert "different eigenvalues" in capsys.readouterr().err

    def test_frame_bounds_flat_window_is_tight(self, tmp_path, capsys):
        n = 8
        basis = basis_for(path_graph(n))
        flat = SpectralWindow(np.ones(n) / np.sqrt(n))
        family = WindowFamily.paired([flat], [SpectralWindow(flat.samples.copy())])
        family_file = tmp_path / "flat.csv"
        save_family_csv(family_file, basis, family)
        mapping = minimal_mapping(
            graph={"source": "path", "size": n},
            signal={"type": "impulse", "center": 1},
            windows={"kernel": "file", "file": str(family_file)},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        assert main(["frame-bounds", "--config", cfg]) == 0
        line = capsys.readouterr().out.strip()
        fields = dict(part.split("=", 1) for part in line.split())
        assert fields["window"] == "1"
        assert float(fields["lower"]) == pytest.approx(n, rel=1e-10)
        assert float(fields["upper"]) == pytest.approx(n, rel=1e-10)
        assert float(fields["loose_lower"]) <= float(fields["lower"]) * (1 + 1e-12)

    def test_frame_bounds_preset_no_dual_when_same(self, capsys):
        assert main(["frame-bounds", "--preset", "random-irregular"]) != 1
        # same-as-analysis pairing: the loose pair is omitted
        out = capsys.readouterr().out
        assert "loose_lower" not in out
        assert out.count("window=") == 5
