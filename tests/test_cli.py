import dataclasses
import importlib.util
import os
import subprocess
import sys
import tracemalloc
import typing
import zipfile
from pathlib import Path

import numpy as np
import pytest
import yaml

from mwgft import (
    DegenerateCoverage,
    DegenerateDenominator,
    EigSolverFailure,
    InvalidParameter,
    LaplacianKind,
    MultipleZeroEigenvalues,
    NotAFrame,
    NumericalError,
    ParseError,
    WindowFamily,
    check_nondegeneracy,
    eigendecompose,
    igft,
    laplacian,
    load_coefficients,
    load_signal_csv,
    mwgft_analyze,
    mwgft_synthesize,
    random_connected_graph,
    rbf_prototype,
    save_coefficients,
    save_family_csv,
    save_graph,
    shifted_family,
    spectrogram,
    uniform_shifts,
)
from mwgft import experiment
from mwgft.cli import main
from mwgft.experiment import (
    ExperimentConfig,
    PathSource,
    RbfWindows,
    config_from_mapping,
    list_presets,
    load_config,
    load_preset,
    run_experiment,
)
from mwgft.signals import (
    ChirpSpec,
    HeatSpec,
    ImpulseSpec,
    RandomSpec,
    build_signal,
    save_signal_csv,
    save_spectrum_csv,
)
from mwgft.transform import save_spectrogram_pgm
from helpers import FORGED_MEMBERS, basis_for, forge_member
from oracles import save_spectrogram_csv_reference
from mwgft.graph import path_graph


def minimal_mapping(**overrides):
    base = {
        "name": "t",
        "graph": {"source": "path", "size": 8},
        "signal": {"type": "impulse", "center": 4},
    }
    base.update(overrides)
    return base


def _readme_block(heading, language):
    """The first ``language`` code block under README's ``## heading``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def write_yaml(path, mapping):
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


def disjoint_family_csv(tmp_path, n=6):
    """A window file whose analysis/synthesis pair has zero overlap everywhere."""
    basis = basis_for(path_graph(n))
    e1, e2 = np.zeros(n), np.zeros(n)
    e1[1], e2[2] = 1.0, 1.0
    family = WindowFamily([e1], [e2])
    target = tmp_path / "degenerate_windows.csv"
    save_family_csv(target, basis, family)
    return str(target)


# window keys that nothing reads, and the message that names each
UNREAD_WINDOW_KEYS = [
    pytest.param({"kernel": "file", "file": "w.csv", "count": 5, "pairing": "same-as-analysis"},
                 "window kernel 'file' does not use count, pairing", id="file-count"),
    pytest.param({"kernel": "rbf", "file": "w.csv"}, "window kernel 'rbf' does not use file",
                 id="rbf-file"),
    pytest.param({"count": 5, "shifts": [0.0, 1.0]},
                 "config key windows.count: windows.shifts sets the window count",
                 id="count-shifts"),
]


class TestConfigMapping:
    def test_defaults(self):
        config = config_from_mapping(minimal_mapping())
        assert config.kind is LaplacianKind.UNNORMALIZED
        assert config.windows == RbfWindows()
        assert config.signal == ImpulseSpec(center=4)
        assert config.nondegeneracy_tolerance is None

    def test_full_mapping(self):
        config = config_from_mapping(
            {
                "name": "full",
                "graph": {"source": "random", "size": 12, "seed": 9, "extra_edges": 4},
                "laplacian": "normalized",
                "signal": {"type": "chirp", "center": 6, "width": 2.0, "rate": 0.1},
                "windows": {"kernel": "rbf", "l_fac": 0.5,
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param({"laplacain": "normalized"}, "unknown config key laplacain",
                         id="top-level"),
            pytest.param({"output": "elsewhere"}, "unknown config key output",
                         id="removed-output"),
            pytest.param({"graph": {"source": "path", "size": 8, "sise": 9}},
                         "unknown config key graph.sise", id="graph"),
            pytest.param({"windows": {"cout": 5}}, "unknown config key windows.cout",
                         id="windows"),
            pytest.param({"tolerances": {"nondegenerate": 1.0}},
                         "unknown config key tolerances.nondegenerate", id="tolerances"),
            pytest.param({"signal": {"type": "impulse", "center": 4, "rate": 0.3}},
                         "signal type 'impulse' does not use rate", id="impulse"),
            pytest.param({"signal": {"type": "heat", "center": 4}},
                         "signal type 'heat' does not use center", id="heat"),
            pytest.param({"signal": {"type": "chirp", "center": 4, "seed": 1}},
                         "signal type 'chirp' does not use seed", id="chirp"),
            pytest.param({"signal": {"type": "spectral", "path": "s.csv", "values": [1]}},
                         "unknown config key signal.values", id="spectral"),
            pytest.param({"signal": {"type": "random", "seed": 1, "complex_values": False}},
                         "unknown config key signal.complex_values", id="random"),
        ],
    )
    def test_unknown_key_rejected(self, overrides, message):
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            config_from_mapping(minimal_mapping(**overrides))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"signal": {"type": "random", "seed": 1, "complex": "false"}},
                         "signal.complex", id="complex-string"),
            pytest.param({"signal": {"type": "random", "seed": 1, "complex": 0}},
                         "signal.complex", id="complex-number"),
            pytest.param({"graph": {"source": "file", "file": "g.txt", "largest_component": "no"}},
                         "graph.largest_component", id="largest-component-string"),
        ],
    )
    def test_boolean_keys_need_yaml_booleans(self, overrides, key):
        with pytest.raises(InvalidParameter, match=f"config key {key}: expected true or false"):
            config_from_mapping(minimal_mapping(**overrides))

    def test_boolean_keys(self):
        config = config_from_mapping(minimal_mapping(
            graph={"source": "file", "file": "g.txt", "largest_component": True},
            signal={"type": "random", "seed": 1, "complex": False},
        ))
        assert config.graph.largest_component is True
        assert config.signal == RandomSpec(seed=1, complex=False)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"windows": {"count": 2.5}}, "windows.count", id="count"),
            pytest.param({"windows": {"count": True}}, "windows.count", id="count-bool"),
            pytest.param({"graph": {"source": "path", "size": 50.9}}, "graph.size", id="size"),
            pytest.param({"signal": {"type": "impulse", "center": 25.7}}, "signal.center",
                         id="impulse-center"),
            pytest.param({"signal": {"type": "chirp", "center": 25.7}}, "signal.center",
                         id="chirp-center"),
            pytest.param({"graph": {"source": "random", "size": 12, "seed": True}}, "graph.seed",
                         id="graph-seed"),
            pytest.param({"graph": {"source": "random", "size": 12, "seed": 1,
                                    "extra_edges": 1.5}}, "graph.extra_edges", id="extra-edges"),
            pytest.param({"signal": {"type": "random", "seed": False}}, "signal.seed",
                         id="signal-seed"),
            pytest.param({"graph": {"source": "path", "size": float("inf")}}, "graph.size",
                         id="size-inf"),
        ],
    )
    def test_integer_keys_reject_fractions_and_booleans(self, overrides, key):
        with pytest.raises(InvalidParameter, match=f"config key {key}: expected an integer"):
            config_from_mapping(minimal_mapping(**overrides))

    def test_integer_keys_take_whole_numbers(self):
        config = config_from_mapping(minimal_mapping(
            graph={"source": "path", "size": 8.0}, windows={"count": 4}
        ))
        assert config.graph.size == 8 and config.windows.count == 4

    @pytest.mark.parametrize(
        "overrides, key, expected",
        [
            pytest.param({"graph": {"source": "path", "size": "8"}}, "graph.size",
                         "an integer", id="size-string"),
            pytest.param({"signal": {"type": "impulse", "center": "3"}}, "signal.center",
                         "an integer", id="center-string"),
            pytest.param({"windows": {"count": "4"}}, "windows.count", "an integer",
                         id="count-string"),
            pytest.param({"windows": {"l_fac": True}}, "windows.l_fac", "a number",
                         id="l-fac-bool"),
            pytest.param({"windows": {"l_fac": "0.7"}}, "windows.l_fac", "a number",
                         id="l-fac-string"),
            pytest.param({"tolerances": {"nondegeneracy": "1e-3"}}, "tolerances.nondegeneracy",
                         "a number", id="tolerance-string"),
            pytest.param({"tolerances": {"nondegeneracy": False}}, "tolerances.nondegeneracy",
                         "a number", id="tolerance-bool"),
            pytest.param({"signal": {"type": "heat", "tau": "2.0"}}, "signal.tau", "a number",
                         id="tau-string"),
            pytest.param({"signal": {"type": "chirp", "center": 4, "width": True}},
                         "signal.width", "a number", id="width-bool"),
            pytest.param({"signal": {"type": "chirp", "center": 4, "rate": "0.3"}},
                         "signal.rate", "a number", id="rate-string"),
            pytest.param({"windows": {"shifts": "12"}}, "windows.shifts", "a list of numbers",
                         id="shifts-string"),
            pytest.param({"windows": {"shifts": {"a": 1.0}}}, "windows.shifts",
                         "a list of numbers", id="shifts-mapping"),
            pytest.param({"windows": {"shifts": [0.0, "1.0"]}}, "windows.shifts", "a number",
                         id="shift-string"),
            pytest.param({"windows": {"shifts": [0.0, True]}}, "windows.shifts", "a number",
                         id="shift-bool"),
        ],
    )
    def test_strict_number_keys(self, overrides, key, expected):
        # each of these used to run: "8" as 8, true as 1.0, "1e-3" as 0.001
        # and shifts "12" as windows at 1.0 and 2.0
        with pytest.raises(InvalidParameter, match=f"^config key {key}: expected {expected}, got "):
            config_from_mapping(minimal_mapping(**overrides))

    def test_real_keys_take_yaml_ints_and_floats(self):
        config = config_from_mapping(minimal_mapping(
            signal={"type": "chirp", "center": 4, "width": 2, "rate": 0},
            windows={"l_fac": 1, "shifts": [0, 1.5]},
            tolerances={"nondegeneracy": 0},
        ))
        assert config.signal == ChirpSpec(center=4, width=2.0, rate=0.0)
        assert config.windows.l_fac == 1.0 and config.windows.shifts == (0.0, 1.5)
        assert config.nondegeneracy_tolerance == 0.0
        assert all(type(v) is float for v in (config.signal.width, config.signal.rate,
                                              config.windows.l_fac, *config.windows.shifts,
                                              config.nondegeneracy_tolerance))

    def test_unknown_graph_source(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(minimal_mapping(graph={"source": "torus", "size": 4}))

    def test_unknown_pairing(self):
        with pytest.raises(InvalidParameter, match=r"^pairing must be one of "
                           r"\('normalized-synthesis', 'same-as-analysis'\), got 'dualless'$"):
            config_from_mapping(minimal_mapping(windows={"pairing": "dualless"}))

    def test_unknown_laplacian(self):
        with pytest.raises(InvalidParameter):
            config_from_mapping(minimal_mapping(laplacian="combinatorialish"))

    def test_random_source_needs_seed(self):
        with pytest.raises(InvalidParameter, match="^config key graph.seed is required$"):
            config_from_mapping(minimal_mapping(graph={"source": "random", "size": 8}))

    @pytest.mark.parametrize(
        "graph, stray",
        [
            pytest.param({"source": "path", "size": 8, "file": "/nonexistent/edges.txt",
                          "coordinates": "xy.txt", "largest_component": True, "seed": 0,
                          "extra_edges": 3},
                         "file, coordinates, largest_component, seed, extra_edges", id="path"),
            pytest.param({"source": "random", "size": 8, "seed": 1, "file": "g.txt",
                          "largest_component": True},
                         "file, largest_component", id="random"),
            pytest.param({"source": "file", "file": "g.txt", "size": 8, "extra_edges": 2},
                         "size, extra_edges", id="file"),
        ],
    )
    def test_keys_of_another_graph_source_rejected(self, graph, stray):
        # such keys used to be ignored, so a config that named an edge list
        # on a path source ran on the path without a word
        with pytest.raises(InvalidParameter, match=f"does not use {stray}$"):
            config_from_mapping(minimal_mapping(graph=graph))

    @pytest.mark.parametrize("windows, message", UNREAD_WINDOW_KEYS)
    def test_window_keys_that_nothing_reads_rejected(self, windows, message):
        # each of these used to run without a word: the file kernel dropped
        # count and pairing, rbf dropped the file, and two shifts ran J=2
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            config_from_mapping(minimal_mapping(windows=windows))

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"graph": {"source": "file", "file": ["a"]}}, "graph.file", id="file-list"),
            pytest.param({"graph": {"source": "file", "file": 99}}, "graph.file", id="file-number"),
            pytest.param({"graph": {"source": "file", "file": "g.txt", "coordinates": 99}},
                         "graph.coordinates", id="coordinates"),
            pytest.param({"windows": {"kernel": "file", "file": 99}}, "windows.file",
                         id="window-file"),
            pytest.param({"signal": {"type": "spectral", "path": 99}}, "signal.path",
                         id="spectrum-path"),
            pytest.param({"windows": {"pairing": 5}}, "windows.pairing", id="pairing"),
            pytest.param({"name": ["a"]}, "name", id="name"),
            pytest.param({"laplacian": 5}, "laplacian", id="laplacian"),
        ],
    )
    def test_string_keys_need_strings(self, overrides, key):
        # a number used to be opened as a file descriptor, a list to escape
        # as a TypeError
        with pytest.raises(InvalidParameter, match=f"^config key {key}: expected a string, got "):
            config_from_mapping(minimal_mapping(**overrides))

    def test_empty_name_laplacian_and_pairing_mean_the_default(self):
        config = config_from_mapping(minimal_mapping(
            name=None, laplacian=None, windows={"kernel": None, "pairing": None}
        ))
        assert config.name == "experiment"
        assert config.kind is LaplacianKind.UNNORMALIZED
        assert config.windows == RbfWindows()

    def test_spectral_signal_needs_path(self):
        with pytest.raises(InvalidParameter, match="^config key signal.path is required$"):
            config_from_mapping(minimal_mapping(signal={"type": "spectral"}))

    def test_variant_types_hold_only_their_keys(self):
        # PathSource(size=8, file=...) used to be a GraphSource that built
        # the path and ignored the file without a word
        with pytest.raises(TypeError):
            PathSource(size=8, file="/nonexistent")
        with pytest.raises(InvalidParameter,
                           match="^config key windows.count: windows.shifts sets the window count$"):
            RbfWindows(count=5, shifts=(0.0, 1.0))
        with pytest.raises(InvalidParameter, match="^window count must be at least 1$"):
            RbfWindows(count=0)

    def test_every_key_has_one_converter(self):
        # a field whose annotated type has no converter would surface as an
        # uncaught KeyError, and a converter no field's type picks is dead
        # code; a key that several variants read converts alike in all of them
        picked = {}
        for _, _, _, variants in experiment._SECTIONS.values():
            for kind in variants.values():
                for key, hint in typing.get_type_hints(kind).items():
                    picked.setdefault(key, []).append(experiment._converter(hint))
        shared = {key for key, found in picked.items() if len(found) > 1}
        assert shared >= {"seed", "size", "file", "center"}
        assert all(len(set(found)) == 1 for found in picked.values()), picked
        assert {c for found in picked.values() for c in found} == set(
            experiment._CONVERTERS.values())

    def test_file_kernel_needs_path(self):
        with pytest.raises(InvalidParameter, match="^config key windows.file is required$"):
            config_from_mapping(minimal_mapping(windows={"kernel": "file"}))


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

    def test_readme_example_parses(self):
        # the documented config must stay one the key table accepts
        block = _readme_block("Config format", "yaml")
        config = config_from_mapping(yaml.safe_load(block))
        assert config.name == "my-experiment" and config.windows.count == 3

    def test_readme_library_example_runs(self):
        # the documented library calls must stay ones the package answers
        namespace = {}
        exec(_readme_block("Quick start (library)", "python"), namespace)
        assert namespace["averaged"].shape == (50, 50)
        assert np.allclose(namespace["f_rec"], namespace["f"], atol=1e-10)


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
        assert config.graph == PathSource(size=50)
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
                    "coefficients", "reconstructed", "error", "summary"):
            assert report.outputs[key].is_file(), key
        summary = report.outputs["summary"].read_text()
        assert "relative_l2_error" in summary and "nondegeneracy_satisfied: true" in summary

    def test_rerun_is_byte_identical(self, tmp_path):
        config = load_preset("path-impulse")
        a = run_experiment(config, out_dir=tmp_path / "a", write_pgm=True)
        b = run_experiment(config, out_dir=tmp_path / "b", write_pgm=True)
        assert list(a.outputs) == list(b.outputs)
        for key in a.outputs:
            assert a.outputs[key].read_bytes() == b.outputs[key].read_bytes(), key

    def test_large_graph_writes_coefficients(self, tmp_path):
        mapping = minimal_mapping(
            graph={"source": "path", "size": 201},
            signal={"type": "impulse", "center": 100},
            windows={"kernel": "rbf", "count": 1},
        )
        report = run_experiment(config_from_mapping(mapping), out_dir=tmp_path / "out")
        assert report.outputs["coefficients"] == tmp_path / "out" / "coefficients.npz"
        assert load_coefficients(report.outputs["coefficients"]).matrices.shape == (1, 201, 201)

    @pytest.mark.parametrize("signal, complex_synthesis", [
        ({"type": "heat"}, False),
        ({"type": "random", "seed": 3, "complex": True}, False),
        ({"type": "heat"}, True),
    ], ids=["heat", "complex", "real-windows-complex-duals"])
    def test_one_pass_matches_whole_array_functions(self, tmp_path, signal, complex_synthesis):
        # run_experiment streams each window through the file, the spectrogram
        # sum and the synthesis sum; the whole-array library path is the reference
        config = config_from_mapping(minimal_mapping(
            graph={"source": "random", "size": 40, "seed": 7, "extra_edges": 80},
            signal=signal,
            laplacian="normalized",
            windows={"kernel": "rbf", "count": 5},
        ))
        graph = config.graph.build()
        basis = eigendecompose(laplacian(graph, config.kind), config.kind)
        family = config.windows.build(basis)
        if complex_synthesis:  # real coefficients summed into a complex M
            family = WindowFamily(family.analysis, family.synthesis * np.exp(0.3j))
            save_family_csv(tmp_path / "windows.csv", basis, family)
            config = dataclasses.replace(
                config, windows=experiment.FileWindows(str(tmp_path / "windows.csv")))
        run, ref = tmp_path / "run", tmp_path / "ref"
        ref.mkdir()
        report = run_experiment(config, out_dir=run, write_pgm=True)
        assert report.relative_error < 1e-12

        original = build_signal(config.signal, basis)
        coeffs = mwgft_analyze(basis, family, original)
        save_coefficients(ref / "coefficients.npz", coeffs)
        save_signal_csv(ref / "reconstructed.csv", mwgft_synthesize(
            basis, family, coeffs, tolerance=config.nondegeneracy_tolerance))
        averaged = spectrogram(coeffs)
        save_spectrogram_pgm(ref / "spectrogram_avg.pgm", averaged)

        with zipfile.ZipFile(run / "coefficients.npz") as got, \
                zipfile.ZipFile(ref / "coefficients.npz") as expected:
            assert got.namelist() == expected.namelist()
            for name in expected.namelist():
                assert got.read(name) == expected.read(name), name
        for name in ("reconstructed.csv", "spectrogram_avg.pgm"):
            assert (run / name).read_bytes() == (ref / name).read_bytes(), name
        peak = np.unravel_index(np.argmax(averaged), averaged.shape)
        assert report.spectrogram_argmax_vertex == int(peak[0]) + 1

    def test_coordinates_written_for_path_graph(self, tmp_path):
        config = config_from_mapping(minimal_mapping())
        report = run_experiment(config, out_dir=tmp_path / "out")
        lines = report.outputs["coordinates"].read_text().strip().splitlines()
        assert lines[0] == "vertex,x,y"
        assert len(lines) == 9

    @pytest.mark.parametrize("write_pgm", [False, True])
    def test_run_writes_no_spectrogram_csv(self, tmp_path, write_pgm):
        out = tmp_path / "out"
        report = run_experiment(load_preset("path-chirp"), out_dir=out, write_pgm=write_pgm)
        assert sorted(out.glob("spectrogram_*.csv")) == []
        assert not [key for key in report.outputs
                    if key.startswith("spectrogram_w") or key == "spectrogram_avg"]
        assert ("spectrogram_pgm" in report.outputs) == write_pgm
        assert (out / "spectrogram_avg.pgm").is_file() == write_pgm


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

    @pytest.mark.parametrize(
        "argv, stray",
        [
            pytest.param(["--path-size", "10", "--extra-edges", "50", "--coordinates",
                          "/nonexistent", "--largest-component"],
                         "coordinates, largest_component, extra_edges", id="path"),
            pytest.param(["--path-size", "10", "--seed", "0"], "seed", id="path-seed"),
            pytest.param(["--random-size", "10", "--coordinates", "/nonexistent"],
                         "coordinates", id="random"),
        ],
    )
    def test_graph_options_of_another_source_rejected(self, capsys, argv, stray):
        # these options used to be dropped without a word
        assert main(["graph-info", *argv]) == 1
        assert capsys.readouterr().err.endswith(f"does not use {stray}\n")

    def test_graph_info_graph_file(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        save_graph(edges, path_graph(12))
        assert main(["graph-info", "--graph-file", str(edges)]) == 0
        out = capsys.readouterr().out
        assert "vertices: 12\n" in out and "edges: 11\n" in out

    def test_random_size_seed_defaults_to_zero(self, capsys):
        assert main(["graph-info", "--random-size", "30"]) == 0
        default = capsys.readouterr().out
        assert main(["graph-info", "--random-size", "30", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("option", ["--seed", "--extra-edges"])
    def test_graph_info_negative_random_option(self, capsys, option):
        assert main(["graph-info", "--random-size", "10", option, "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_eig_two_path(self, capsys):
        assert main(["eig", "--path-size", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split(": ")[1]) for line in lines]
        assert values == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_eig_negative_limit(self, capsys):
        # --limit -1 used to print no eigenvalue and exit 0
        assert main(["eig", "--path-size", "4", "--limit", "-1"]) == 1
        assert capsys.readouterr().err == "error: --limit must be at least 0, got -1\n"

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

    @pytest.mark.parametrize(
        "case, overrides",
        [
            pytest.param(case, overrides, id=case)
            for case, overrides in [
                ("empty-tolerances", {"tolerances": None}),
                ("count-not-a-number", {"windows": {"count": "three"}}),
                ("size-not-a-number", {"graph": {"source": "path", "size": "ten"}}),
                ("impulse-without-center", {"signal": {"type": "impulse"}}),
                ("misspelt-key", {"windows": {"cout": 5}}),
                ("out-is-a-file", {}),
            ]
        ],
    )
    def test_bad_input_is_a_typed_error(self, tmp_path, capsys, case, overrides):
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(**overrides))
        if case == "out-is-a-file":
            argv = ["analyze", "--config", config, "--out", config]
        else:
            argv = ["run", "--config", config, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        key = {"empty-tolerances": "tolerances", "count-not-a-number": "windows.count",
               "size-not-a-number": "graph.size", "impulse-without-center": "signal.center",
               "misspelt-key": "windows.cout", "out-is-a-file": "File exists"}[case]
        assert key in err

    @pytest.mark.parametrize("source", ["random", "file"])
    def test_graph_over_the_vertex_cap_exits_1_before_allocating(self, tmp_path, capsys, source):
        # a billion vertices used to reach a MemoryError that escaped as a traceback
        huge = 1_000_000_000
        if source == "random":
            graph = {"source": "random", "size": huge, "seed": 1}
        else:
            (tmp_path / "g.txt").write_text(f"{huge}\n1 2\n", encoding="utf-8")
            graph = {"source": "file", "file": str(tmp_path / "g.txt")}
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(graph=graph))
        tracemalloc.start()
        try:
            assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err == f"error: graph has {huge} vertices, more than the cap of 10000\n"
        assert peak < 2**22, peak
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("windows, count", [
        ({"count": 1_000_000_000}, 1_000_000_000),
        ({"shifts": [0.0] * 1001}, 1001),
    ], ids=["count", "shifts"])
    def test_window_count_over_the_cap_exits_1_before_allocating(
        self, tmp_path, capsys, windows, count
    ):
        # a billion windows used to ask np.linspace for 8 GB of shifts
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(windows=windows))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["run", "--config", config, "--out", str(out)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err == f"error: window family has {count} windows, more than the cap of 1000\n"
        assert peak < 2**22, peak
        assert not out.exists()

    def test_refused_signal_writes_nothing(self, tmp_path, capsys):
        # the eigenvalues, windows and condition report used to be written
        # before the signal was built
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(
            graph={"source": "path", "size": 10}, signal={"type": "impulse", "center": 99}))
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: vertex 99 outside 1..10\n"
        assert not out.exists()

    @pytest.mark.parametrize("windows, message", UNREAD_WINDOW_KEYS)
    def test_window_keys_that_nothing_reads_exit_1(self, tmp_path, capsys, windows, message):
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(windows=windows))
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["run", "--preset", "nope"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_file_preset_without_graph_file(self, capsys):
        assert main(["run", "--preset", "minnesota-heat"]) == 1
        assert "--graph-file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "windows-check", "analyze"])
    def test_graph_file_needs_file_source(self, tmp_path, capsys, command):
        argv = [command, "--preset", "path-impulse", "--graph-file", str(tmp_path / "edges.txt")]
        if command != "windows-check":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert "--graph-file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_graph_file_sets_file_source_path(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        save_graph(edges, path_graph(12))
        assert main(["windows-check", "--preset", "minnesota-heat", "--graph-file", str(edges)]) == 0
        assert "satisfied: true" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "error",
        [DegenerateDenominator, DegenerateCoverage, NotAFrame, MultipleZeroEigenvalues,
         EigSolverFailure],
    )
    def test_numerical_errors_exit_2(self, tmp_path, capsys, monkeypatch, error):
        assert issubclass(error, NumericalError)

        def fail(path):
            raise error("numerical trouble")

        monkeypatch.setattr("mwgft.cli._read_coefficients", fail)
        argv = ["spectrogram", "--coefficients", "c.npz", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: numerical trouble\n"

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"graph": {"source": "file", "file": ["a"]}}, "graph.file", id="graph"),
            pytest.param({"windows": {"kernel": "file", "file": 99}}, "windows.file",
                         id="windows"),
        ],
    )
    def test_non_string_path_exits_1(self, tmp_path, capsys, overrides, key):
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(**overrides))
        assert main(["windows-check", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key}: expected a string") and "Traceback" not in err

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")])
    def test_negative_or_nan_tolerance_exits_1(self, tmp_path, capsys, tolerance):
        # d is 0 at every vertex of this family: a tolerance of -1 used to
        # print "satisfied: true" and exit 0, and NaN exited 2 as degenerate
        mapping = minimal_mapping(
            graph={"source": "path", "size": 6},
            signal={"type": "impulse", "center": 3},
            windows={"kernel": "file", "file": disjoint_family_csv(tmp_path)},
            tolerances={"nondegeneracy": tolerance},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        assert main(["windows-check", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: nondegeneracy tolerance must be >= 0, got ")

    @pytest.mark.parametrize(
        "signal, message",
        [
            pytest.param({"type": "heat", "tau": float("inf")},
                         "diffusion time tau must be finite and positive, got inf", id="tau-inf"),
            pytest.param({"type": "heat", "tau": float("nan")},
                         "diffusion time tau must be finite and positive, got nan", id="tau-nan"),
            pytest.param({"type": "chirp", "center": 4, "rate": float("inf")},
                         "rate must be finite, got inf", id="rate-inf"),
            pytest.param({"type": "chirp", "center": 4, "rate": float("-inf")},
                         "rate must be finite, got -inf", id="rate-minus-inf"),
            # finite parameters whose signal is not: 0/0 at the chirp's centre,
            # a phase that overflows, an inverse transform that overflows
            pytest.param({"type": "chirp", "center": 4, "width": 1.0e-300},
                         "signal type 'chirp' gives non-finite values at vertices [4]",
                         id="width-tiny"),
            pytest.param({"type": "chirp", "center": 4, "rate": 1.7e308},
                         "signal type 'chirp' gives non-finite values at vertices "
                         "[1, 2, 6, 7, 8]", id="rate-huge"),
            pytest.param({"type": "spectral", "path": "huge.csv"},
                         "signal type 'spectral' gives non-finite values at vertices {}",
                         id="spectrum-huge"),
        ],
    )
    def test_non_finite_signal_parameter_exits_1_before_signal_csv(
        self, tmp_path, capsys, signal, message
    ):
        # tau: .inf used to write a NaN signal.csv and then fail with
        # "signal has non-finite values", which names no key; so did the
        # finite parameters until the built signal was checked
        if signal["type"] == "spectral":
            spectrum = np.full(8, 1.7e308)
            save_spectrum_csv(tmp_path / signal["path"], spectrum)
            signal = {**signal, "path": str(tmp_path / signal["path"])}
            with np.errstate(over="ignore"):  # which vertices overflow is up to the BLAS
                overflowed = ~np.isfinite(igft(basis_for(path_graph(8)), spectrum))
            assert overflowed.any()
            message = message.format((np.flatnonzero(overflowed) + 1).tolist())
        cfg = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(signal=signal))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "windows, message",
        [
            # built an all-zero second window and reported satisfied: true
            pytest.param({"shifts": [0.0, float("inf")]},
                         "shifts must be finite, got [0.0, inf]", id="shifts-0-inf"),
            # turned every window into the constant 1 (`not inf > 0` is false)
            pytest.param({"l_fac": float("inf")},
                         "l_fac must be finite and positive, got inf", id="l_fac-inf"),
            # failed on a zero energy response, naming no key
            pytest.param({"shifts": [float("inf")]},
                         "shifts must be finite, got [inf]", id="shifts-inf"),
        ],
    )
    def test_non_finite_window_parameter_exits_1(self, tmp_path, capsys, windows, message):
        cfg = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(windows=windows))
        assert main(["windows-check", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("l_fac", [1.0e-100, 1.0e-320])
    def test_tiny_rbf_scale_prints_only_the_error(self, tmp_path, l_fac):
        # (lambda / scale)**4 overflowed, and numpy printed an overflow warning
        # and its source line before the error; run as a process, so stderr
        # is what a user sees
        cfg = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(
            graph={"source": "path", "size": 12}, signal={"type": "impulse", "center": 3},
            windows={"kernel": "rbf", "count": 3, "l_fac": l_fac}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "mwgft.cli", "run", "--config", cfg,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 2
        assert done.stderr == ("error: energy response is 0.000e+00 at frequency 1; "
                               "family does not cover the spectrum\n")

    def test_degenerate_family_exits_2(self, tmp_path, capsys):
        mapping = minimal_mapping(
            graph={"source": "path", "size": 6},
            signal={"type": "impulse", "center": 3},
            windows={"kernel": "file", "file": disjoint_family_csv(tmp_path)},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: sum_j |<T_i gamma_j, T_i g_j>| <= 6.000e-10 (vertices: 1, 2, 3, 4, 5, 6)\n"
        )
        # the trail up to the coefficients is on disk, nothing after them
        assert sorted(path.name for path in out.iterdir()) == [
            "coefficients.npz", "condition_report.csv", "condition_report.txt",
            "coordinates.csv", "eigenvalues.csv", "signal.csv", "windows.csv",
        ]
        assert "satisfied: false" in (out / "condition_report.txt").read_text()
        for name in ("reconstructed.csv", "error.csv", "summary.txt"):
            assert not (out / name).exists(), name

    @pytest.mark.parametrize("command", ["windows-check", "frame-bounds"])
    def test_seed_without_anything_random(self, capsys, command):
        # --seed on a config with no random graph and no random signal used to
        # run unseeded, with output byte-identical to the run without it
        assert main([command, "--preset", "path-impulse", "--seed", "7"]) == 1
        assert "--seed needs a random graph source or a random signal" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "option"])
    def test_negative_random_signal_seed(self, tmp_path, capsys, where):
        # a negative signal seed used to escape as numpy's ValueError traceback
        mapping = minimal_mapping(signal={"type": "random", "seed": -1 if where == "config" else 1})
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        argv = ["analyze", "--config", cfg, "--out", str(tmp_path / "out")]
        if where == "option":
            argv += ["--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

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

    def test_new_graph_source_is_one_dataclass(self, tmp_path, capsys, monkeypatch):
        # a source in _SECTIONS takes its converters from its field annotations,
        # --seed through its seed field, and builds its own graph
        built = []

        @dataclasses.dataclass(frozen=True)
        class SeededPath:
            size: int
            seed: int

            def build(self):
                built.append(self)
                return path_graph(self.size)

        monkeypatch.setitem(experiment._SECTIONS["graph"][3], "seeded-path", SeededPath)
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(
            graph={"source": "seeded-path", "size": 8, "seed": 1}))
        assert main(["run", "--config", config, "--seed", "5", "--out", str(tmp_path / "out")]) == 0
        assert built == [SeededPath(size=8, seed=5)]
        assert "vertices: 8\n" in capsys.readouterr().out
        bad = write_yaml(tmp_path / "bad.yaml", minimal_mapping(
            graph={"source": "seeded-path", "size": 8, "seed": "1"}))
        assert main(["run", "--config", bad, "--out", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err == (
            "error: config key graph.seed: expected an integer, got '1'\n")

    def test_every_config_command_takes_seed(self, tmp_path, capsys):
        mapping = minimal_mapping(
            graph={"source": "random", "size": 20, "seed": 1},
            signal={"type": "random", "seed": 1},
            windows={"kernel": "rbf", "count": 2},
        )
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)

        def stdout(command, *options):
            assert main([command, "--config", cfg, *options]) == 0
            return capsys.readouterr().out

        for command in ("windows-check", "frame-bounds"):
            assert stdout(command, "--seed", "7") != stdout(command)
        run = stdout("run", "--seed", "7", "--out", str(tmp_path / "run"))
        assert run.startswith((tmp_path / "run" / "summary.txt").read_text())
        stdout("analyze", "--seed", "7", "--out", str(tmp_path / "analysis"))
        coefficients = str(tmp_path / "analysis" / "coefficients.npz")
        stdout("synthesize", "--seed", "7", "--coefficients", coefficients,
               "--out", str(tmp_path / "synthesis"))
        np.testing.assert_allclose(load_signal_csv(tmp_path / "synthesis" / "reconstructed.csv"),
                                   load_signal_csv(tmp_path / "analysis" / "signal.csv"),
                                   atol=1e-10)
        # without --seed the graph, and so its basis, is a different one
        assert main(["synthesize", "--config", cfg, "--coefficients", coefficients,
                     "--out", str(tmp_path / "other")]) == 1


# The hostile-config table: every field of every config variant, and the
# top-level keys, takes each of these values in turn through `mwgft run`.
# yaml.safe_dump writes each value as its id; PyYAML reads `1.0e308`, whose
# exponent has no sign, as a string, so the huge number is `1.0e+308`.
HOSTILE_VALUES = {
    ".inf": float("inf"), "-.inf": float("-inf"), ".nan": float("nan"), "-1": -1, "0": 0,
    "1.0e+308": 1.0e308, '"1"': "1", "true": True, "[]": [], "{}": {},
}

# names that would put `out/{name}` somewhere other than its own directory
# under `out/`: the working directory, `out/` itself, or a path below it
HOSTILE_NAMES = {'""': "", '"."': ".", '".."': "..", '"/tmp/x"': "/tmp/x", '"a/b"': "a/b"}

# a config section of each variant that runs; file names are relative to the
# case's working directory, where _hostile_inputs writes them
HOSTILE_BASES = {
    ("graph", "path"): {"source": "path", "size": 8},
    ("graph", "file"): {"source": "file", "file": "edges.txt"},
    ("graph", "random"): {"source": "random", "size": 8, "seed": 1},
    ("signal", "impulse"): {"type": "impulse", "center": 4},
    ("signal", "heat"): {"type": "heat"},
    ("signal", "chirp"): {"type": "chirp", "center": 4},
    ("signal", "spectral"): {"type": "spectral", "path": "spectrum.csv"},
    ("signal", "random"): {"type": "random", "seed": 1},
    ("windows", "rbf"): {"kernel": "rbf"},
    ("windows", "file"): {"kernel": "file", "file": "windows.csv"},
}

# the keys outside the variant sections, as (section, variant, key)
HOSTILE_TOP_LEVEL = [(None, None, "name"), (None, None, "laplacian"),
                     ("tolerances", None, "nondegeneracy")]

# names the config must refuse (exit 1)
HOSTILE_REFUSED = {f"name={value_id}" for value_id in HOSTILE_NAMES}

# cases that legitimately end in a numerical error (exit 2): a tolerance no
# denominator can clear stops the run after the coefficients are written
HOSTILE_EXIT_2 = {
    "tolerances.nondegeneracy=1.0e+308", "tolerances.nondegeneracy=.inf",
}

# refused cases whose error line names the refused value, not the key
HOSTILE_NAMED_BY_VALUE = {
    **{f"graph.{source}.size={value}": "needs at least two vertices"
       for source in ("path", "random") for value in ("-1", "0")},
    **{f"graph.{source}.size=1.0e+308": "vertices, more than the cap"
       for source in ("path", "random")},
    **{f"signal.{kind}.center={value}": "outside 1..8"
       for kind in ("impulse", "chirp") for value in ("-1", "0", "1.0e+308")},
    **{f"{key}=\"1\"": "No such file or directory: '1'"
       for key in ("graph.file.file", "graph.file.coordinates", "signal.spectral.path",
                   "windows.file.file")},
    "signal.chirp.rate=1.0e+308": "signal type 'chirp' gives non-finite values",
    "windows.rbf.count=1.0e+308": "windows, more than the cap",
}


def _hostile_cases():
    keys = [(section, variant, f.name)
            for section, (_, _, _, variants) in experiment._SECTIONS.items()
            for variant, kind in variants.items() for f in dataclasses.fields(kind)]
    keys += HOSTILE_TOP_LEVEL
    values = [(key, value_id, value) for key in keys for value_id, value in HOSTILE_VALUES.items()]
    values += [((None, None, "name"), value_id, value) for value_id, value in HOSTILE_NAMES.items()]
    return [pytest.param(key, value, id=f"{'.'.join(filter(None, key))}={value_id}")
            for key, value_id, value in values]


def _hostile_inputs(directory):
    """The edge list, spectrum and window files the file-reading variants
    read, all on the 8-vertex path."""
    graph = path_graph(8)
    save_graph(directory / "edges.txt", graph)
    basis = basis_for(graph)
    save_spectrum_csv(directory / "spectrum.csv", np.exp(-basis.eigenvalues))
    family = WindowFamily.with_normalized_synthesis(shifted_family(
        rbf_prototype(basis.lambda_max, 0.7), uniform_shifts(basis.lambda_max, 3), basis))
    save_family_csv(directory / "windows.csv", basis, family)


def _numbers_are_finite(path):
    """Every number of a CSV artifact or a `.npz` member is finite."""
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as archive:
            return all(np.isfinite(archive[name]).all() for name in archive.files
                       if archive[name].dtype.kind in "fc")
    if path.suffix != ".csv":
        return True
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return all(np.isfinite(float(cell)) for row in rows for cell in row.split(","))


class TestHostileConfig:
    def test_every_variant_has_a_base(self):
        # a new variant joins the table once it has a base config here
        assert set(HOSTILE_BASES) == {
            (section, variant) for section, (_, _, _, variants) in experiment._SECTIONS.items()
            for variant in variants}

    @pytest.mark.parametrize("key, value", _hostile_cases())
    def test_hostile_value(self, tmp_path, capsys, monkeypatch, request, key, value):
        section, variant, field = key
        case = request.node.callspec.id
        monkeypatch.chdir(tmp_path)
        _hostile_inputs(tmp_path)
        mapping = minimal_mapping()
        if variant is not None:
            mapping[section] = {**HOSTILE_BASES[section, variant], field: value}
        elif section is not None:
            mapping[section] = {field: value}
        else:
            mapping[field] = value
        config = write_yaml(tmp_path / "cfg.yaml", mapping)
        out = tmp_path / "out"

        code = main(["run", "--config", config, "--out", str(out)])

        captured = capsys.readouterr()
        if code == 0:
            assert case not in HOSTILE_EXIT_2 | HOSTILE_REFUSED and captured.err == ""
            summary = dict(line.split(": ", 1)
                           for line in (out / "summary.txt").read_text().splitlines())
            assert float(summary["relative_l2_error"]) <= 1e-12
            for path in out.iterdir():
                assert _numbers_are_finite(path), path.name
            return
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        if code == 2:
            assert case in HOSTILE_EXIT_2, captured.err
            assert sorted(path.name for path in out.iterdir()) == [
                "coefficients.npz", "condition_report.csv", "condition_report.txt",
                "coordinates.csv", "eigenvalues.csv", "signal.csv", "windows.csv"]
            return
        assert code == 1 and case not in HOSTILE_EXIT_2
        assert HOSTILE_NAMED_BY_VALUE.get(case, field) in captured.err, captured.err
        assert not out.exists()

    def test_name_without_out_stays_under_out(self, tmp_path, capsys, monkeypatch):
        # `name: ..` used to write every artifact into the working directory
        monkeypatch.chdir(tmp_path)
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(name=".."))
        assert main(["run", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error: config key name: ")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.yaml"]


class TestCliPipelines:
    def test_analyze_synthesize_round_trip(self, tmp_path, capsys):
        stage1, stage2 = tmp_path / "analysis", tmp_path / "synthesis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        code = main(["synthesize", "--preset", "path-impulse",
                     "--coefficients", str(stage1 / "coefficients.npz"),
                     "--out", str(stage2)])
        assert code == 0
        original = load_signal_csv(stage1 / "signal.csv")
        rebuilt = load_signal_csv(stage2 / "reconstructed.csv")
        assert np.linalg.norm(rebuilt - original) <= 1e-10 * np.linalg.norm(original)

    def test_synthesize_runs_no_eigendecomposition(self, tmp_path, capsys, monkeypatch):
        # synthesize takes its basis from the coefficient file: a second eigh
        # cost time and could return another basis of a repeated eigenvalue
        stage1, stage2 = tmp_path / "analysis", tmp_path / "synthesis"
        assert main(["analyze", "--preset", "random-irregular", "--out", str(stage1)]) == 0

        def fail(*args):
            raise AssertionError("synthesize must not eigendecompose")

        monkeypatch.setattr("mwgft.cli.eigendecompose", fail)
        assert main(["synthesize", "--preset", "random-irregular",
                     "--coefficients", str(stage1 / "coefficients.npz"),
                     "--out", str(stage2)]) == 0
        original = load_signal_csv(stage1 / "signal.csv")
        rebuilt = load_signal_csv(stage2 / "reconstructed.csv")
        assert np.linalg.norm(rebuilt - original) <= 1e-12 * np.linalg.norm(original)

    def test_synthesize_on_another_graph_names_the_residual(self, tmp_path, capsys):
        # same N, same kind, same windows: only the probe check of the stored
        # basis against this graph's Laplacian tells the graphs apart
        def config(seed):
            return write_yaml(tmp_path / f"g{seed}.yaml", minimal_mapping(
                graph={"source": "random", "size": 40, "seed": seed, "extra_edges": 40},
                signal={"type": "random", "seed": 1},
                laplacian="normalized",
            ))

        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--config", config(1), "--out", str(stage1)]) == 0
        capsys.readouterr()
        code = main(["synthesize", "--config", config(2),
                     "--coefficients", str(stage1 / "coefficients.npz"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "eigen-residual" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_synthesize_rejects_swapped_eigenvector_column(self, tmp_path, capsys):
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        with np.load(stage1 / "coefficients.npz") as archive:
            arrays = dict(archive)
        arrays["vectors"][:, [3, 7]] = arrays["vectors"][:, [7, 3]]
        damaged = tmp_path / "swapped.npz"
        np.savez(damaged, **arrays)
        capsys.readouterr()
        assert main(["synthesize", "--preset", "path-impulse", "--coefficients", str(damaged),
                     "--out", str(tmp_path / "s")]) == 1
        assert "eigen-residual" in capsys.readouterr().err

    def test_synthesize_at_another_blas_thread_count(self, tmp_path):
        # eigenvalue 1 of this normalized Laplacian is double (gap 6.7e-16);
        # eigh at 1 and at 2 BLAS threads returns other eigenvalue bits and
        # another basis of that eigenspace, so a synthesis that ran eigh again
        # refused the coefficients its own analysis had written
        config = write_yaml(tmp_path / "cfg.yaml", minimal_mapping(
            graph={"source": "random", "size": 800, "seed": 7},
            signal={"type": "random", "seed": 3},
            laplacian="normalized",
            windows={"kernel": "rbf", "count": 2},
        ))
        src = str(Path(__file__).resolve().parents[1] / "src")

        def mwgft(threads, *argv):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-m", "mwgft.cli", *argv, "--config", config],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr

        mwgft(1, "analyze", "--out", str(tmp_path / "a"))
        mwgft(2, "synthesize", "--coefficients", str(tmp_path / "a" / "coefficients.npz"),
              "--out", str(tmp_path / "s"))
        original = load_signal_csv(tmp_path / "a" / "signal.csv")
        rebuilt = load_signal_csv(tmp_path / "s" / "reconstructed.csv")
        assert np.linalg.norm(rebuilt - original) <= 1e-12 * np.linalg.norm(original)

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
                     "--coefficients", str(stage1 / "coefficients.npz"),
                     "--out", str(tmp_path / "s")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_spectrogram_command(self, tmp_path, capsys):
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        out = tmp_path / "spec"
        code = main(["spectrogram", "--coefficients", str(stage1 / "coefficients.npz"),
                     "--out", str(out), "--pgm"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "argmax_vertex: 25" in printed
        assert (out / "spectrogram_avg.csv").is_file()
        assert (out / "spectrogram_w3.csv").is_file()
        assert (out / "spectrogram_avg.pgm").is_file()
        # a coefficient file holding NaN is refused before anything is written
        with np.load(stage1 / "coefficients.npz") as archive:
            arrays = dict(archive)
        arrays["coefficients"][0, 0, 0] = np.nan
        damaged = tmp_path / "nan.npz"
        np.savez(damaged, **arrays)
        refused = tmp_path / "refused"
        code = main(["spectrogram", "--coefficients", str(damaged), "--out", str(refused)])
        assert code == 1
        assert "NaN or infinite" in capsys.readouterr().err
        assert not refused.exists()

    @pytest.mark.parametrize("command", ["synthesize", "spectrogram"])
    @pytest.mark.parametrize("damage, message", [
        ("flipped-byte", "Bad CRC-32"),
        ("nan", "NaN or infinite coefficients (window 3)"),
    ])
    def test_damage_in_last_window_refused(self, tmp_path, capsys, command, damage, message):
        # the windows stream in order, so this damage shows only after the
        # first two windows were used; nothing may be written all the same
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        coefficients = stage1 / "coefficients.npz"
        last = load_coefficients(coefficients).matrices[-1]
        assert last.shape == (50, 50)
        if damage == "flipped-byte":
            blob = coefficients.read_bytes()
            at = blob.index(last.tobytes()) + last.nbytes // 2
            coefficients.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:])
        else:
            with np.load(coefficients) as archive:
                arrays = dict(archive)
            arrays["coefficients"][-1, -1, -1] = np.nan
            np.savez(coefficients, **arrays)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--coefficients", str(coefficients), "--out", str(out)]
        if command == "synthesize":
            argv += ["--preset", "path-impulse"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synthesize", "spectrogram"])
    @pytest.mark.parametrize("case", FORGED_MEMBERS)
    def test_forged_member_header_refused(self, tmp_path, capsys, command, case):
        # every member header is checked before it sizes an allocation: a
        # basis member's shape used to be allocated as promised, so forged
        # headers ended in a MemoryError (74.5 GiB, 7.28 TiB) or, for
        # vectors-3000, in exit 1 after 68.7 MiB
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-impulse", "--out", str(stage1)]) == 0
        coefficients = stage1 / "coefficients.npz"
        forge_member(coefficients, case)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [command, "--coefficients", str(coefficients), "--out", str(out)]
        if command == "synthesize":
            argv += ["--preset", "path-impulse"]
        tracemalloc.start()
        try:
            assert main(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        message = "Python objects" if FORGED_MEMBERS[case][1] == "|O" else "data ends early"
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert peak < 2**20
        assert not out.exists()

    def test_fortran_ordered_foreign_file(self, tmp_path, capsys):
        # np.savez of a Fortran-ordered array stores it in Fortran order; its
        # windows are not contiguous in the file, so it is read whole
        stage1 = tmp_path / "analysis"
        assert main(["analyze", "--preset", "path-chirp", "--out", str(stage1)]) == 0
        with np.load(stage1 / "coefficients.npz") as archive:
            arrays = dict(archive)
        arrays["coefficients"] = np.asfortranarray(arrays["coefficients"])
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, **arrays)
        assert load_coefficients(foreign).matrices.tolist() == arrays["coefficients"].tolist()
        for name, target in (("own", stage1 / "coefficients.npz"), ("foreign", foreign)):
            assert main(["synthesize", "--preset", "path-chirp", "--coefficients", str(target),
                         "--out", str(tmp_path / name)]) == 0
            assert main(["spectrogram", "--coefficients", str(target),
                         "--out", str(tmp_path / name)]) == 0
        original = load_signal_csv(stage1 / "signal.csv")
        rebuilt = load_signal_csv(tmp_path / "foreign" / "reconstructed.csv")
        assert np.linalg.norm(rebuilt - original) <= 1e-12 * np.linalg.norm(original)
        for name in ("reconstructed.csv", "spectrogram_w6.csv", "spectrogram_avg.csv"):
            assert (tmp_path / "foreign" / name).read_bytes() == (tmp_path / "own" / name).read_bytes()

    def test_coefficient_stages_hold_one_window(self, tmp_path, capsys, monkeypatch):
        # analyze, synthesize, spectrogram and run hold one N x N window of the
        # (J, N, N) coefficients at a time: going from 4 to 24 windows must not
        # raise their traced peak by two windows (the whole array would add 20)
        n = 150
        # spectrogram still squares every window for its CSV, but the CSV is not
        # formatted: cell by cell under tracing, that took seconds per stage
        monkeypatch.setattr("mwgft.transform.save_spectrogram_csv", lambda path, matrix: None)
        signals = {"heat": ({"type": "heat"}, np.float64),
                   "complex": ({"type": "random", "seed": 1, "complex": True}, np.complex128)}

        def peaks(label, count):
            cfg = write_yaml(tmp_path / f"{label}{count}.yaml", minimal_mapping(
                graph={"source": "random", "size": n, "seed": 3, "extra_edges": n},
                signal=signals[label][0],
                laplacian="normalized",
                windows={"kernel": "rbf", "count": count},
            ))
            stage = tmp_path / f"{label}{count}"
            coefficients = str(stage / "a" / "coefficients.npz")
            peak = {}
            for command, argv in (
                ("analyze", ["--config", cfg, "--out", str(stage / "a")]),
                ("synthesize", ["--config", cfg, "--coefficients", coefficients,
                                "--out", str(stage / "s")]),
                ("spectrogram", ["--coefficients", coefficients, "--out", str(stage / "g")]),
                ("run", ["--config", cfg, "--out", str(stage / "r")]),
            ):
                tracemalloc.start()
                try:
                    assert main([command, *argv]) == 0
                    peak[command] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return peak

        peaks("heat", 4)  # first calls import and cache what later calls reuse
        for label, (_, dtype) in signals.items():
            few, many = peaks(label, 4), peaks(label, 24)
            window = n * n * np.dtype(dtype).itemsize
            for stage in ("a", "r"):
                stored = load_coefficients(tmp_path / f"{label}24" / stage / "coefficients.npz")
                assert stored.matrices.shape == (24, n, n) and stored.matrices.dtype == dtype
            for command in ("analyze", "synthesize", "spectrogram", "run"):
                assert many[command] - few[command] < 2 * window, (label, command, few, many)

    def test_spectrogram_command_rebuilds_run_spectrogram(self, tmp_path):
        run = tmp_path / "run"
        report = run_experiment(load_preset("path-chirp"), out_dir=run, write_pgm=True)
        out = tmp_path / "spec"
        code = main(["spectrogram", "--coefficients", str(run / "coefficients.npz"),
                     "--out", str(out), "--pgm"])
        assert code == 0
        assert (out / "spectrogram_avg.pgm").read_bytes() == (run / "spectrogram_avg.pgm").read_bytes()
        expected = tmp_path / "expected.csv"
        coeffs = load_coefficients(run / "coefficients.npz")
        save_spectrogram_csv_reference(expected, spectrogram(coeffs))
        assert (out / "spectrogram_avg.csv").read_bytes() == expected.read_bytes()
        for j, matrix in enumerate(coeffs.matrices, start=1):
            save_spectrogram_csv_reference(expected, np.abs(matrix) ** 2)
            assert (out / f"spectrogram_w{j}.csv").read_bytes() == expected.read_bytes()
        table = np.loadtxt(out / "spectrogram_avg.csv", delimiter=",", skiprows=1)
        peak_row = np.unravel_index(np.argmax(table[:, 1:]), table[:, 1:].shape)[0]
        assert int(table[peak_row, 0]) == report.spectrogram_argmax_vertex

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

    def test_window_file_of_other_size_rejected(self, tmp_path, capsys):
        # a 6-sample window file on the 8-vertex path of minimal_mapping
        mapping = minimal_mapping(windows={"kernel": "file", "file": disjoint_family_csv(tmp_path)})
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        assert main(["windows-check", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: family sampled on 6 eigenvalues, basis has 8\n"

    def test_frame_bounds_honours_nondegeneracy_tolerance(self, tmp_path, capsys):
        # frame-bounds used to print bounds and exit 0 where windows-check failed
        mapping = minimal_mapping(windows={"kernel": "rbf", "count": 3},
                                  tolerances={"nondegeneracy": 1.0e9})
        cfg = write_yaml(tmp_path / "cfg.yaml", mapping)
        assert main(["windows-check", "--config", cfg]) == 2
        assert "satisfied: false" in capsys.readouterr().out
        assert main(["frame-bounds", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ||T_i g||^2 <= 1.000e+09; atoms do not span "
                                "(vertices: 1, 2, 3, 4, 5, 6, 7, 8)\n")

    def test_frame_bounds_loose_upper_is_upper(self, capsys):
        # path-impulse used to print a loose_upper one ulp below upper
        assert main(["frame-bounds", "--preset", "path-impulse"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            fields = dict(part.split("=", 1) for part in line.split())
            assert fields["loose_upper"] == fields["upper"]

    def test_frame_bounds_flat_window_is_tight(self, tmp_path, capsys):
        n = 8
        basis = basis_for(path_graph(n))
        flat = np.ones(n) / np.sqrt(n)
        family = WindowFamily([flat], [flat.copy()])
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


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_scripts_run(tmp_path, capsys):
    run_presets = _load_script("run_presets")
    assert run_presets.main(["--out-root", str(tmp_path)]) == 0
    for name in run_presets.SELF_CONTAINED:
        assert (tmp_path / name / "coefficients.npz").is_file(), name
    sweep = _load_script("denominator_sweep")
    assert sweep.main(["--size", "40", "--counts", "1", "3"]) == 0
    out = capsys.readouterr().out
    assert "N = 40" in out
    header, *rows = [line.split() for line in out.splitlines()
                     if line[:3].strip() in ("J", "1", "3")]
    assert header[3] == "B/A" and [row[0] for row in rows] == ["1", "3"]
    # same-as-analysis pairing: B/A of the union frame is max d / min d
    basis = basis_for(random_connected_graph(40, seed=7), LaplacianKind.SYMMETRIC_NORMALIZED)
    for row in rows:
        analysis = shifted_family(rbf_prototype(basis.lambda_max, 0.7),
                                  uniform_shifts(basis.lambda_max, int(row[0])), basis)
        d = check_nondegeneracy(basis, WindowFamily.with_same_synthesis(analysis)).denominators
        assert float(row[2]) == pytest.approx(d.max() / d.min(), abs=1e-4)
        assert float(row[2]) >= 1.0


def test_run_presets_script_writes_no_spectrogram_csv(tmp_path, capsys):
    run_presets = _load_script("run_presets")
    assert run_presets.main(["--out-root", str(tmp_path)]) == 0
    assert sorted(tmp_path.rglob("spectrogram_*.csv")) == []
    assert "random-irregular" in capsys.readouterr().out
