import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwgft import (
    Disconnected,
    DuplicateEdgeConflict,
    Graph,
    IndexOutOfRange,
    InvalidParameter,
    InvalidSize,
    LaplacianKind,
    NegativeWeight,
    ParseError,
    SelfLoop,
    ZeroDegree,
    build_graph,
    laplacian,
    load_graph,
    path_graph,
    random_connected_graph,
    save_graph,
)
from mwgft import graph as graph_module
from mwgft.graph import MAX_VERTICES, _Draws
from helpers import NORM, UNNORM
from oracles import bfs_component_count, laplacian_reference, random_connected_weights_reference


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(1, 2, 1.0)])
        assert g.weights.dtype == np.float64
        assert np.array_equal(g.weights, [[0, 1], [1, 0]])
        assert np.array_equal(g.degrees, [1, 1])
        assert g.num_edges == 1

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_graph(3, [(1, 2, 1.0)])

    def test_weighted_degrees(self):
        # hand sum of incident weights: 2 | 2+3 | 3
        g = build_graph(3, [(1, 2, 2.0), (2, 3, 3.0)])
        assert np.array_equal(g.degrees, [2.0, 5.0, 3.0])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_graph(2, [(1, 1, 1.0), (1, 2, 1.0)])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_graph(2, [(1, 2, -0.5)])

    def test_duplicate_same_weight_tolerated(self):
        g = build_graph(2, [(1, 2, 1.0), (2, 1, 1.0)])
        assert g.num_edges == 1

    def test_duplicate_conflict(self):
        with pytest.raises(DuplicateEdgeConflict):
            build_graph(2, [(1, 2, 1.0), (2, 1, 2.0)])

    def test_zero_weight_edges_dropped(self):
        with pytest.raises(Disconnected):
            build_graph(2, [(1, 2, 0.0)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_graph(2, [(1, 3, 1.0)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(InvalidParameter, match="non-finite"):
            build_graph(3, [(1, 2, 1.0), (2, 3, weight)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_matrix_rejected(self, weight):
        w = np.array([[0.0, weight], [weight, 0.0]])
        with pytest.raises(InvalidParameter, match="weight matrix has non-finite entries"):
            Graph(2, w)

    @pytest.mark.parametrize(
        "weights, coordinates, error, message",
        [
            pytest.param(np.zeros((2, 3)), None, InvalidSize,
                         r"weight matrix shape \(2, 3\) does not match 2 vertices", id="non-square"),
            pytest.param([[0.0, 1.0], [2.0, 0.0]], None, InvalidParameter,
                         "weight matrix must be exactly symmetric", id="asymmetric"),
            pytest.param([[1.0, 1.0], [1.0, 0.0]], None, SelfLoop,
                         "weight matrix has nonzero diagonal entries", id="diagonal"),
            pytest.param([[0.0, -1.0], [-1.0, 0.0]], None, NegativeWeight,
                         "weight matrix has negative entries", id="negative"),
            pytest.param([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 3)), InvalidSize,
                         r"coordinates shape \(2, 3\), expected \(2, 2\)", id="coordinates"),
            pytest.param([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [np.inf, 0.0]], InvalidParameter,
                         "coordinates have non-finite entries", id="non-finite-coordinates"),
        ],
    )
    def test_graph_checks_its_arrays(self, weights, coordinates, error, message):
        with pytest.raises(error, match=message):
            Graph(2, np.asarray(weights), coordinates)

    @pytest.mark.parametrize("build", [lambda: Graph(0, np.zeros((0, 0))),
                                       lambda: build_graph(0, [])], ids=["graph", "build-graph"])
    def test_no_vertices_rejected(self, build):
        with pytest.raises(InvalidSize, match="^graph needs at least one vertex, got 0$"):
            build()

    def test_neighbors(self):
        g = build_graph(3, [(1, 2, 2.0), (2, 3, 3.0)])
        assert g.neighbors(2) == [1, 3]


class TestPathGraph:
    def test_two_vertices(self):
        g = path_graph(2)
        assert np.array_equal(g.weights, [[0, 1], [1, 0]])

    def test_fifty_vertices(self):
        g = path_graph(50)
        assert g.num_edges == 49
        assert np.array_equal(g.degrees, [1] + [2] * 48 + [1])

    def test_too_small(self):
        with pytest.raises(InvalidSize):
            path_graph(1)


class TestRandomConnectedGraph:
    def test_reproducible(self):
        a = random_connected_graph(20, seed=7)
        b = random_connected_graph(20, seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_connected_by_independent_traversal(self):
        g = random_connected_graph(40, seed=3)
        assert bfs_component_count(g.weights) == 1

    def test_irregular_degrees(self):
        g = random_connected_graph(60, seed=11)
        assert np.std(g.degrees) > 0.1

    def test_extra_edges_respected(self):
        g = random_connected_graph(30, seed=5, extra_edges=0)
        assert g.num_edges == 29  # spanning tree only

    # "all" asks for more edges than fit, which gives the complete graph; it
    # stops at 40 vertices, as filling 300 by rejection takes a million draws
    @pytest.mark.parametrize(
        "size, extra",
        [(size, extra) for size in (2, 3, 12, 40, 300)
         for extra in ("default", "none", "three", "twice", "all")
         if not (size == 300 and extra == "all")],
    )
    def test_weights_match_reference(self, size, extra):
        tree_capacity = size * (size - 1) // 2 - (size - 1)
        extra_edges = {"default": None, "none": 0, "three": 3, "twice": 2 * size,
                       "all": tree_capacity + 5}[extra]
        for seed in (0, 1, 7, 2**31 - 1):
            g = random_connected_graph(size, seed, extra_edges)
            reference = random_connected_weights_reference(size, seed, extra_edges)
            assert np.array_equal(g.weights, reference), seed
        if extra == "all":
            assert g.num_edges == size * (size - 1) // 2

    @pytest.mark.parametrize("weight_range", [(0.5, 1.5), (1, 2), (0.1, 0.1)])
    def test_preset_graph_matches_reference(self, weight_range):
        g = random_connected_graph(300, 20240917, 600, weight_range)
        reference = random_connected_weights_reference(300, 20240917, 600, weight_range)
        assert np.array_equal(g.weights, reference)
        assert g.num_edges == 899

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 3, "extra_edges": -1}])
    def test_negative_seed_or_extra_edges_rejected(self, kwargs):
        with pytest.raises(InvalidParameter):
            random_connected_graph(10, **kwargs)

    @pytest.mark.parametrize("weight_range", [(2, 1), (0, 1), (-1, 1)])
    def test_weight_range_must_be_ordered_and_positive(self, weight_range):
        # (2, 1) used to be refused as "must be positive", which both ends are
        with pytest.raises(InvalidParameter, match=r"must satisfy 0 < low <= high$"):
            random_connected_graph(5, 1, weight_range=weight_range)


class TestDraws:
    """The raw-word draws against numpy's own ``Generator`` methods."""

    SEEDS = (0, 1, 7, 20240917, 2**31 - 1)
    BIG = 2**31 + 1  # rejects about half its 32-bit draws, so the retry runs
    # rejects a quarter (threshold 2**30); a threshold of the bound itself
    # would reject three quarters
    THIRDS = 3 * 2**30

    @pytest.mark.parametrize("n", [2, 3, 300, 1000])
    def test_permutation(self, n):
        for seed in self.SEEDS:
            draws, rng = _Draws(seed), np.random.default_rng(seed)
            assert draws.permutation(n) == rng.permutation(n).tolist(), seed
            # the permutation leaves the stream, pending high half too, where numpy does
            assert [draws.below(self.BIG) for _ in range(5)] == [
                int(rng.integers(0, self.BIG)) for _ in range(5)
            ], seed
            assert draws.random() == rng.random(), seed

    @pytest.mark.parametrize("pending", [False, True], ids=["fresh-word", "pending-high-half"])
    def test_interleaved_integers_and_doubles(self, pending):
        # None is a random() draw, any other entry an integers(0, k) draw; k = 1
        # takes no draw, and a double takes a fresh word past a pending half
        pattern = [1, 7, None, 7, 1, self.BIG, None, None, 300, 1, 1, 2, self.BIG, 7,
                   None, 1, self.BIG, self.THIRDS, self.BIG, 10_000, None, self.THIRDS]
        for seed in self.SEEDS:
            draws, rng = _Draws(seed), np.random.default_rng(seed)
            if pending:
                assert draws.below(5) == rng.integers(0, 5)
            for step, bound in enumerate(pattern * 20):
                if bound is None:
                    mine, theirs = draws.random(), rng.random()
                else:
                    mine, theirs = draws.below(bound), int(rng.integers(0, bound))
                assert mine == theirs, (seed, step, bound)


class TestVertexCap:
    HUGE = 1_000_000_000

    @staticmethod
    def _refused_without_allocating(build, *args):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidSize) as err:
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        return str(err.value)

    @pytest.mark.parametrize("build, args", [
        (path_graph, ()), (random_connected_graph, (1,)), (build_graph, ([(1, 2, 1.0)],)),
    ], ids=["path", "random", "edges"])
    def test_constructors_refuse_before_allocating(self, build, args):
        message = self._refused_without_allocating(build, self.HUGE, *args)
        assert message == f"graph has {self.HUGE} vertices, more than the cap of {MAX_VERTICES}"

    @pytest.mark.parametrize("text", [f"{HUGE}\n1 2\n", f"1 2\n2 {HUGE}\n"],
                             ids=["declared", "largest-index"])
    def test_edge_list_refused_before_allocating(self, tmp_path, text):
        target = tmp_path / "g.txt"
        target.write_text(text, encoding="utf-8")
        message = self._refused_without_allocating(load_graph, target)
        assert f"{self.HUGE} vertices" in message and str(MAX_VERTICES) in message

    def test_cap_is_inclusive(self, monkeypatch, tmp_path):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 6)
        target = tmp_path / "g.txt"
        for n, fits in ((6, True), (7, False)):
            target.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)),
                              encoding="utf-8")
            for build in (path_graph, lambda n: random_connected_graph(n, 3),
                          lambda n: build_graph(n, [(i, i + 1, 1.0) for i in range(1, n)]),
                          lambda n: load_graph(target)):
                if fits:
                    assert build(n).num_vertices == n
                else:
                    with pytest.raises(InvalidSize, match="more than the cap of 6$"):
                        build(n)


class TestLoadGraph:
    def _write(self, tmp_path, text, name="g.txt"):
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        return target

    def test_header_file(self, tmp_path):
        g = load_graph(self._write(tmp_path, "2\n1 2 1\n"))
        assert g.num_vertices == 2 and g.num_edges == 1

    def test_inferred_size_and_default_weight(self, tmp_path):
        g = load_graph(self._write(tmp_path, "# comment\n1 2\n2 3 0.5\n\n"))
        assert g.num_vertices == 3
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 2] == 0.5

    def test_self_loop_in_file(self, tmp_path):
        with pytest.raises(SelfLoop):
            load_graph(self._write(tmp_path, "1 1 1\n"))

    def test_parse_error_carries_line(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_graph(self._write(tmp_path, "1 2 1\n1 two 1\n"))
        assert err.value.line == 2

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError):
            load_graph(self._write(tmp_path, "1 2 3 4\n"))

    def test_disconnected_without_flag(self, tmp_path):
        with pytest.raises(Disconnected):
            load_graph(self._write(tmp_path, "1 2\n3 4\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        with pytest.raises(InvalidParameter, match="non-finite"):
            load_graph(self._write(tmp_path, f"3\n1 2 1\n2 3 {weight}\n"))

    @pytest.mark.parametrize("text, message", [
        ("abc\n1 2\n", "^line 1: expected a vertex count, got 'abc'$"),
        ("0\n", "^line 1: vertex count must be positive, got 0$"),
        ("# comments\n\n# only\n", "^file contains no vertices$"),
    ], ids=["count-not-a-number", "count-zero", "comments-only"])
    def test_bad_vertex_count_or_no_vertices(self, tmp_path, text, message):
        with pytest.raises(ParseError, match=message):
            load_graph(self._write(tmp_path, text))

    def test_largest_component_tie_keeps_smallest_vertex(self, tmp_path):
        gfile = self._write(tmp_path, "4\n1 4\n2 3\n")
        cfile = self._write(tmp_path, "1 1 0\n2 2 0\n3 3 0\n4 4 0\n", "c.txt")
        g = load_graph(gfile, coordinates_path=cfile, largest_component=True)
        assert np.array_equal(g.weights, [[0, 1], [1, 0]])
        assert np.array_equal(g.coordinates[:, 0], [1, 4])  # vertices 1 and 4, relabeled 1, 2

    def test_largest_component_extraction(self, tmp_path):
        text = "7\n1 2\n2 3\n3 4\n5 6\n"  # sizes 4, 2 and an isolated vertex
        g = load_graph(self._write(tmp_path, text), largest_component=True)
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert bfs_component_count(g.weights) == 1

    def test_coordinates_sidecar(self, tmp_path):
        gfile = self._write(tmp_path, "2\n1 2 1\n")
        cfile = self._write(tmp_path, "1 0.0 0.0\n2 1.5 -2.0\n", "c.txt")
        g = load_graph(gfile, coordinates_path=cfile)
        assert np.array_equal(g.coordinates, [[0.0, 0.0], [1.5, -2.0]])

    def test_coordinates_subset_on_extraction(self, tmp_path):
        gfile = self._write(tmp_path, "4\n1 2\n2 3\n", "g2.txt")
        cfile = self._write(tmp_path, "1 0 0\n2 1 0\n3 2 0\n4 9 9\n", "c2.txt")
        g = load_graph(gfile, coordinates_path=cfile, largest_component=True)
        assert g.num_vertices == 3
        assert np.array_equal(g.coordinates[:, 0], [0, 1, 2])

    def test_missing_coordinates(self, tmp_path):
        gfile = self._write(tmp_path, "2\n1 2 1\n")
        cfile = self._write(tmp_path, "1 0.0 0.0\n", "c.txt")
        with pytest.raises(ParseError):
            load_graph(gfile, coordinates_path=cfile)

    def test_missing_coordinates_are_capped(self, tmp_path):
        # every missing vertex used to be named: 28 923 characters here
        gfile = self._write(tmp_path, "".join(f"{i} {i + 1}\n" for i in range(1, 5000)))
        cfile = self._write(tmp_path, "1 0.0 0.0\n", "c.txt")
        with pytest.raises(ParseError) as err:
            load_graph(gfile, coordinates_path=cfile)
        assert str(err.value) == ("missing coordinates for vertices "
                                  "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 4989 more")

    @pytest.mark.parametrize("text, message", [
        ("1 0 0\n2 inf 0\n3 1 1\n", r"line 2: NaN or infinite coordinate in '2 inf 0'"),
        ("1 0 0\n2 nan 0\n3 1 1\n", r"line 2: NaN or infinite coordinate in '2 nan 0'"),
        ("1 0 0\n2 1 0\n1 5 5\n3 1 1\n", r"line 3: vertex 1 repeats line 1"),
        ("1 0.0\n2 1 0\n3 1 1\n", r"line 1: expected 'i x y', got '1 0.0'"),
        ("1 x 0\n2 1 0\n3 1 1\n", r"line 1: could not parse coordinate line '1 x 0'"),
    ], ids=["infinite", "nan", "repeated-vertex", "two-fields", "not-a-number"])
    def test_bad_coordinate_line_names_its_line(self, tmp_path, text, message):
        # an infinite x used to reach coordinates.csv, a NaN one was reported
        # as a missing vertex, and a repeated vertex replaced the earlier line
        gfile = self._write(tmp_path, "3\n1 2\n2 3\n")
        cfile = self._write(tmp_path, text, "c.txt")
        with pytest.raises(ParseError, match=f"^{message}$"):
            load_graph(gfile, coordinates_path=cfile)

    def test_save_round_trip(self, tmp_path):
        g = random_connected_graph(12, seed=2)
        out = tmp_path / "saved.txt"
        save_graph(out, g)
        loaded = load_graph(out)
        assert np.array_equal(g.weights, loaded.weights)

    def test_save_round_trip_with_coordinates(self, tmp_path):
        coordinates = np.array([[0.0, -0.0], [1e-300, 2.5], [-3.0, 0.1]])
        g = build_graph(3, [(1, 2, 0.5), (2, 3, 2.0)], coordinates)
        save_graph(tmp_path / "g.txt", g, tmp_path / "c.txt")
        loaded = load_graph(tmp_path / "g.txt", coordinates_path=tmp_path / "c.txt")
        assert np.array_equal(loaded.weights, g.weights)
        assert loaded.coordinates.tobytes() == coordinates.tobytes()


class TestLaplacian:
    def test_two_path_both_kinds(self):
        g = path_graph(2)
        expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(laplacian(g, UNNORM), expected)
        assert np.array_equal(laplacian(g, NORM), expected)

    def test_three_path_assembly(self):
        g = path_graph(3)
        w = g.weights
        assert np.array_equal(laplacian(g, UNNORM), np.diag([1.0, 2.0, 1.0]) - w)

    def test_row_sums_vanish(self):
        g = random_connected_graph(25, seed=9)
        lap = laplacian(g, UNNORM)
        assert np.all(np.abs(lap.sum(axis=1)) <= 1e-12 * np.abs(lap).max())

    def test_bitwise_symmetric(self):
        g = random_connected_graph(25, seed=10)
        for kind in (UNNORM, NORM):
            lap = laplacian(g, kind)
            assert np.array_equal(lap, lap.T)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_bits_as_the_textbook_expression(self, data):
        # bit for bit, so the sign of every zero counts; weights run from
        # subnormal to where degrees and the symmetrizing sum overflow
        n = data.draw(st.integers(1, 8))
        weight = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1.7e308))
        w = np.zeros((n, n))
        for i in range(n):
            w[i, i] = data.draw(st.sampled_from([0.0, -0.0]))
            for j in range(i + 1, n):
                # a path backbone keeps the graph connected
                w[i, j] = data.draw(st.floats(5e-324, 1.7e308) if j == i + 1 else weight)
                # the graph's symmetry check takes -0.0 and +0.0 as equal
                w[j, i] = data.draw(st.sampled_from([0.0, -0.0])) if w[i, j] == 0 else w[i, j]
        graph = Graph(n, w)
        for kind in (UNNORM, NORM) if n > 1 else (UNNORM,):
            with np.errstate(over="ignore"):
                expected = laplacian_reference(graph, kind)
                got = laplacian(graph, kind)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (kind, w)

    @pytest.mark.parametrize("kind", [UNNORM, NORM])
    def test_peak_allocation(self, kind):
        # L and its symmetrized copy, 2 N^2 float64; the textbook expression
        # peaks one N^2 higher for the normalized kind, and as high for the
        # unnormalized one, whose division numpy does in place of the sum
        n = 300
        graph = random_connected_graph(n, seed=7, extra_edges=600)
        peaks = {}
        for build in (laplacian_reference, laplacian):
            build(graph, kind)  # numpy sets up its lazy state on a first call
            tracemalloc.start()
            try:
                build(graph, kind)
                peaks[build] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        square = n * n * 8
        assert peaks[laplacian] <= 2 * square + 80_000, peaks
        assert peaks[laplacian] <= peaks[laplacian_reference] - (square if kind is NORM else 0), peaks

    def test_zero_degree_normalized(self):
        lonely = Graph(1, np.zeros((1, 1)))
        with pytest.raises(ZeroDegree):
            laplacian(lonely, NORM)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_quadratic_form_matches_edge_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        g = random_connected_graph(n, seed=int(rng.integers(0, 2**31)))
        lap = laplacian(g, UNNORM)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        quad = np.real(np.conj(f) @ lap @ f)
        w = g.weights
        by_edges = 0.5 * np.sum(w * np.abs(f[:, None] - f[None, :]) ** 2)
        assert quad >= -1e-10 * max(1.0, by_edges)
        assert np.isclose(quad, by_edges, rtol=1e-10, atol=1e-12)


class TestComponentSearch:
    """Component counts of build_graph / load_graph against a hand-rolled BFS."""

    @staticmethod
    def _random_edges(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 16))
        m = int(rng.integers(0, 2 * n))
        pairs = rng.integers(1, n + 1, size=(m, 2))
        edges = {(min(i, j), max(i, j)): float(rng.uniform(0.5, 1.5))
                 for i, j in pairs.tolist() if i != j}
        dense = np.zeros((n, n))
        for (i, j), w in edges.items():
            dense[i - 1, j - 1] = dense[j - 1, i - 1] = w
        return n, [(i, j, w) for (i, j), w in edges.items()], dense

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_build_graph_matches_oracle(self, seed):
        n, edges, dense = self._random_edges(seed)
        expected = bfs_component_count(dense)
        if expected == 1:
            assert build_graph(n, edges).num_edges == len(edges)
        else:
            with pytest.raises(Disconnected, match=f"graph has {expected} connected"):
                build_graph(n, edges)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_load_graph_matches_oracle(self, seed, tmp_path_factory):
        n, edges, dense = self._random_edges(seed)
        expected = bfs_component_count(dense)
        path = tmp_path_factory.mktemp("components") / "g.txt"
        path.write_text(f"{n}\n" + "".join(f"{i} {j} {w!r}\n" for i, j, w in edges))
        if expected == 1:
            assert load_graph(path).num_vertices == n
        else:
            with pytest.raises(Disconnected, match=f"graph has {expected} connected"):
                load_graph(path)
        largest = load_graph(path, largest_component=True)
        assert bfs_component_count(largest.weights) == 1
        assert (largest.num_vertices == n) == (expected == 1)


class TestImmutability:
    def test_weights_are_read_only(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="read-only"):
            g.weights[0, 1] = -5.0
        assert np.array_equal(g.degrees, [1, 2, 1])

    def test_coordinates_are_read_only(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="read-only"):
            g.coordinates[0, 0] = 7.0

    def test_caller_array_is_viewed_not_copied(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        coords = np.zeros((2, 2))
        g = Graph(2, w, coords)
        assert np.shares_memory(g.weights, w) and np.shares_memory(g.coordinates, coords)
        assert w.flags.writeable and coords.flags.writeable

    def test_equality_is_identity(self):
        a, b = path_graph(3), path_graph(3)
        assert a == a and a != b
        assert len({a, b}) == 2


class TestDependencies:
    @staticmethod
    def _printed(code: str) -> str:
        """What ``code`` prints in a new interpreter that imports this package."""
        import mwgft

        src = str(Path(mwgft.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    def test_import_loads_no_scipy(self):
        assert self._printed(
            "import sys, mwgft; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        ) == "[]"

    def test_import_loads_no_hashlib(self):
        # bases compare by value, so nothing in the package hashes; hashlib
        # maps OpenSSL, which costs about 3.6 MB of resident memory
        before, after = self._printed(
            "import sys, numpy; before = 'hashlib' in sys.modules; "
            "import mwgft; print(before, 'hashlib' in sys.modules)"
        ).split()
        assert after == before
