"""Weighted undirected graphs and their Laplacians.

Graphs here are simple (no self loops, no multi-edges), undirected, have
non-negative finite edge weights and must be connected.  The weights are one
dense ``(N, N)`` array from the edge list to the Laplacian: the spectral
methods need the full dense eigenbasis anyway.  Vertices are numbered 1..N in
every public interface and file format; internally arrays are 0-based.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    Disconnected,
    DuplicateEdgeConflict,
    IndexOutOfRange,
    InvalidParameter,
    InvalidSize,
    NegativeWeight,
    ParseError,
    SelfLoop,
    ZeroDegree,
    _listed,
    _shown,
)

MAX_VERTICES = 10_000
"""Most vertices a graph may have.  One dense N x N float64 matrix is then
800 MB, and the spectral methods hold several; every constructor checks the
count against this cap before it allocates anything."""


def _check_size(num_vertices: int) -> None:
    if num_vertices > MAX_VERTICES:
        raise InvalidSize(
            f"graph has {num_vertices} vertices, more than the cap of {MAX_VERTICES}"
        )


class LaplacianKind(Enum):
    """Which Laplacian to build from the weight matrix."""

    UNNORMALIZED = "unnormalized"
    SYMMETRIC_NORMALIZED = "normalized"

    @classmethod
    def from_name(cls, name: str) -> "LaplacianKind":
        for kind in cls:
            if kind.value == name:
                return kind
        valid = ", ".join(k.value for k in cls)
        raise InvalidParameter(f"unknown laplacian kind {_shown(name)} (expected one of: {valid})")


def read_only(array: np.ndarray) -> np.ndarray:
    """A non-writeable view of ``array``; the caller's array keeps its flag."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Graph:
    """A connected weighted undirected graph.

    Validated once, so the stored arrays are read-only views, and two graphs
    compare equal only when they are the same object.

    Parameters
    ----------
    num_vertices:
        Number of vertices N.
    weights:
        Dense symmetric ``(N, N)`` float64 weight matrix with zero diagonal
        and finite non-negative entries.
    coordinates:
        Optional ``(N, 2)`` array of plotting coordinates.
    """

    num_vertices: int
    weights: np.ndarray
    coordinates: np.ndarray | None = None

    def __post_init__(self):
        n = self.num_vertices
        if n < 1:
            raise InvalidSize(f"graph needs at least one vertex, got {n}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n, n):
            raise InvalidSize(f"weight matrix shape {w.shape} does not match {n} vertices")
        if not np.isfinite(w).all():
            raise InvalidParameter("weight matrix has non-finite entries")
        if not np.array_equal(w, w.T):
            raise InvalidParameter("weight matrix must be exactly symmetric")
        if w.diagonal().any():
            raise SelfLoop("weight matrix has nonzero diagonal entries")
        if (w < 0).any():
            raise NegativeWeight("weight matrix has negative entries")
        ncomp = _component_labels(w).max() + 1
        if ncomp != 1:
            raise Disconnected(f"graph has {ncomp} connected components, expected 1")
        object.__setattr__(self, "weights", read_only(w))
        if self.coordinates is not None:
            coords = np.asarray(self.coordinates, dtype=float)
            if coords.shape != (n, 2):
                raise InvalidSize(f"coordinates shape {coords.shape}, expected ({n}, 2)")
            if not np.isfinite(coords).all():
                raise InvalidParameter("coordinates have non-finite entries")
            object.__setattr__(self, "coordinates", read_only(coords))

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each vertex (row sums of the weight matrix)."""
        return self.weights.sum(axis=1)

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.weights)) // 2

    def neighbors(self, vertex: int) -> list[int]:
        """1-based neighbors of a 1-based vertex."""
        _check_vertex(vertex, self.num_vertices)
        return [int(j) + 1 for j in np.flatnonzero(self.weights[vertex - 1])]


def _check_vertex(vertex: int, num_vertices: int) -> None:
    if not 1 <= vertex <= num_vertices:
        raise IndexOutOfRange(f"vertex {vertex} outside 1..{num_vertices}")


def _component_labels(weights: np.ndarray) -> np.ndarray:
    """Connected-component label of each vertex, by breadth-first search.

    Components are numbered 0, 1, ... in the order of their smallest vertex.
    """
    labels = np.full(weights.shape[0], -1)
    count = 0
    while (labels < 0).any():
        frontier = np.array([np.argmax(labels < 0)])
        while frontier.size:
            labels[frontier] = count
            frontier = np.flatnonzero(weights[frontier].any(axis=0) & (labels < 0))
        count += 1
    return labels


def _vertex_index(value, edge: tuple) -> int:
    """``value`` as a vertex index: a number whose value is an integer (a
    ``np.loadtxt`` edge array holds ``2.0``), else :class:`InvalidParameter`
    naming ``edge``, so ``2.5`` or ``"2"`` is never truncated or parsed."""
    if isinstance(value, numbers.Real):
        try:
            if value == int(value):
                return int(value)
        except (ValueError, OverflowError):  # NaN, infinity
            pass
    raise InvalidParameter(f"edge ({_shown(edge[0])}, {_shown(edge[1])}) has vertex index "
                           f"{_shown(value)}, which is not an integer")


def _collect_edges(num_vertices: int, edges: Iterable[tuple[int, int, float]]) -> dict:
    """Validate and deduplicate an edge iterable into {(i<j): weight}.

    Vertex indices must be integers in value.  Zero-weight edges are
    dropped.  Repeating a pair with the same weight is tolerated; repeating
    it with a different weight raises :class:`DuplicateEdgeConflict`.
    """
    out: dict[tuple[int, int], float] = {}
    for edge in edges:
        i, j, w = edge
        i, j, w = _vertex_index(i, edge), _vertex_index(j, edge), float(w)
        _check_vertex(i, num_vertices)
        _check_vertex(j, num_vertices)
        if i == j:
            raise SelfLoop(f"self loop at vertex {i}")
        if not np.isfinite(w):
            raise InvalidParameter(f"edge ({i}, {j}) has non-finite weight {w}")
        if w < 0:
            raise NegativeWeight(f"edge ({i}, {j}) has negative weight {w}")
        key = (min(i, j), max(i, j))
        if key in out and out[key] != w:
            raise DuplicateEdgeConflict(
                f"edge {key} listed with weights {out[key]} and {w}"
            )
        out[key] = w
    return {k: w for k, w in out.items() if w != 0.0}


def _assemble(num_vertices: int, edge_dict: dict) -> np.ndarray:
    """Dense symmetric weight matrix of a {(i<j): weight} edge dictionary."""
    weights = np.zeros((num_vertices, num_vertices))
    if edge_dict:
        i, j = (np.array(side) - 1 for side in zip(*edge_dict))
        weights[i, j] = weights[j, i] = list(edge_dict.values())
    return weights


def build_graph(
    num_vertices: int,
    edges: Iterable[tuple[int, int, float]],
    coordinates: np.ndarray | None = None,
) -> Graph:
    """Build a graph from an edge list of (i, j, weight) with 1-based vertices."""
    if num_vertices < 1:
        raise InvalidSize(f"graph needs at least one vertex, got {num_vertices}")
    _check_size(num_vertices)
    weights = _assemble(num_vertices, _collect_edges(num_vertices, edges))
    return Graph(num_vertices, weights, coordinates)


def path_graph(num_vertices: int) -> Graph:
    """Unweighted path on ``num_vertices`` vertices, 1 - 2 - ... - N."""
    if num_vertices < 2:
        raise InvalidSize("path graph needs at least two vertices")
    _check_size(num_vertices)
    edges = [(i, i + 1, 1.0) for i in range(1, num_vertices)]
    coords = np.column_stack([np.arange(num_vertices, dtype=float), np.zeros(num_vertices)])
    return build_graph(num_vertices, edges, coords)


class _Draws:
    """The draws of ``np.random.default_rng(seed)`` that
    :func:`random_connected_graph` makes, computed from the generator's raw
    64-bit PCG64 words, bit for bit as numpy's ``Generator`` computes them.

    A 32-bit draw takes the low half of a fresh word and the next 32-bit draw
    its high half; a double always takes a fresh word and leaves a pending
    high half for the next 32-bit draw.  Every bound stays below 2**32 (the
    vertex cap sees to it), so only numpy's 32-bit branches are needed.
    """

    _CHUNK = 1024  # raw words fetched per call into numpy

    def __init__(self, seed: int):
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._words: list[int] = []
        self._next = 0
        self._high: int | None = None  # high half of the last word split

    def _word(self) -> int:
        if self._next == len(self._words):
            self._words = self._raw(self._CHUNK).tolist()
            self._next = 0
        self._next += 1
        return self._words[self._next - 1]

    def _uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        word = self._word()
        self._high = word >> 32
        return word & 0xFFFFFFFF

    def below(self, bound: int) -> int:
        """``integers(0, bound)``: Lemire's multiply-and-reject, and no draw
        at all when ``bound`` is 1."""
        if bound == 1:
            return 0
        m = self._uint32() * bound
        if m & 0xFFFFFFFF < bound:
            threshold = (2**32 - bound) % bound
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * bound
        return m >> 32

    def random(self) -> float:
        """``random()``: the top 53 bits of a fresh word, scaled to [0, 1)."""
        return (self._word() >> 11) * 2.0**-53

    def permutation(self, n: int) -> list[int]:
        """``permutation(n).tolist()``: Fisher-Yates from index n - 1 down to
        1, each swap index drawn by masked rejection."""
        order = list(range(n))
        uint32 = self._uint32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = uint32() & mask
            while j > i:
                j = uint32() & mask
            order[i], order[j] = order[j], order[i]
        return order


def random_connected_graph(
    num_vertices: int,
    seed: int,
    extra_edges: int | None = None,
    weight_range: tuple[float, float] = (0.5, 1.5),
) -> Graph:
    """Random connected graph with irregular degrees (seeded, reproducible).

    A random spanning tree guarantees connectivity, then ``extra_edges``
    additional random edges (default: ``num_vertices``, capped at the number
    of vertex pairs still unconnected) are thrown in.  Weights are drawn
    uniformly from ``weight_range``.

    ``seed`` and ``extra_edges`` must be non-negative.  The edges come only
    from the raw PCG64 words of ``np.random.default_rng(seed)``, which numpy's
    random compatibility policy (NEP 19) keeps fixed across releases, where
    it lets ``Generator`` method streams change; the draws reproduce
    ``permutation``, ``integers`` and ``random`` bit for bit.  So a given
    ``(num_vertices, seed, extra_edges, weight_range)`` yields the same edges
    across releases.  The weight bits match too wherever numpy computes
    ``uniform`` without a fused multiply-add (the x86-64 wheels do);
    ``tests/test_graph.py`` checks both against the first implementation.
    """
    if num_vertices < 2:
        raise InvalidSize("random graph needs at least two vertices")
    if seed < 0:
        raise InvalidParameter(f"seed must be non-negative, got {seed}")
    if extra_edges is None:
        extra_edges = num_vertices
    if extra_edges < 0:
        raise InvalidParameter(f"extra_edges must be non-negative, got {extra_edges}")
    lo, hi = map(float, weight_range)
    if not (0 < lo <= hi):
        raise InvalidParameter(f"weight range {weight_range} must satisfy 0 < low <= high")
    _check_size(num_vertices)
    # The draws of rng.permutation(n), rng.integers(0, idx),
    # rng.integers(0, n, size=2) and rng.uniform(lo, hi), in the same order;
    # uniform computes lo + span * u itself.
    draws = _Draws(seed)
    below, uniform01 = draws.below, draws.random
    span = hi - lo
    order = [v + 1 for v in draws.permutation(num_vertices)]
    edge_dict: dict[tuple[int, int], float] = {}
    for idx in range(1, num_vertices):
        a, b = order[idx], order[below(idx)]
        edge_dict[(a, b) if a < b else (b, a)] = lo + span * uniform01()
    capacity = num_vertices * (num_vertices - 1) // 2 - len(edge_dict)
    remaining = min(int(extra_edges), capacity)
    while remaining:
        a, b = below(num_vertices) + 1, below(num_vertices) + 1
        key = (a, b) if a < b else (b, a)
        if a == b or key in edge_dict:
            continue
        edge_dict[key] = lo + span * uniform01()
        remaining -= 1
    return Graph(num_vertices, _assemble(num_vertices, edge_dict))


def laplacian(graph: Graph, kind: LaplacianKind = LaplacianKind.UNNORMALIZED) -> np.ndarray:
    """Dense graph Laplacian of the requested kind.

    ``UNNORMALIZED`` gives ``L = D - W``; ``SYMMETRIC_NORMALIZED`` gives
    ``I - D^{-1/2} W D^{-1/2}`` and requires every degree to be positive.
    The returned matrix is exactly symmetric (it is symmetrized bitwise).

    It holds the bits of ``(L + L.T) / 2`` for ``L = np.diag(d) - W`` or
    ``np.eye(N) - s[:, None] * W * s``, but builds L in one N x N working
    array: off-diagonal entries are ``0.0 - x``, so a zero stays +0.0, and
    the diagonal is set exactly.
    """
    d = graph.degrees
    w = graph.weights
    if kind is LaplacianKind.UNNORMALIZED:
        lap = np.subtract(0.0, w)
        np.fill_diagonal(lap, d - w.diagonal())
    elif kind is LaplacianKind.SYMMETRIC_NORMALIZED:
        if np.any(d == 0):
            zero = [str(i + 1) for i in np.flatnonzero(d == 0)]
            raise ZeroDegree(f"vertices with zero degree: {', '.join(zero)}")
        s = 1.0 / np.sqrt(d)
        lap = s[:, None] * w
        lap *= s
        np.subtract(0.0, lap, out=lap)
        # 1 - s_i w_ii s_i is 1.0: w_ii is zero and s_i finite
        np.fill_diagonal(lap, 1.0)
    else:  # pragma: no cover - enum is closed
        raise InvalidParameter(f"unknown laplacian kind {kind!r}")
    symmetric = lap + lap.T
    symmetric /= 2.0
    return symmetric


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#
# Edge lists are plain text.  Blank lines and lines starting with '#' are
# ignored.  An optional first data line holding a single integer gives the
# vertex count; otherwise N is inferred as the largest vertex index seen.
# Every other data line is "i j" or "i j w" with 1-based vertex indices
# (weight defaults to 1.0).  A coordinate sidecar has lines "i x y".


def _data_lines(path) -> Iterable[tuple[int, list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield lineno, text.split()


def load_graph(
    path,
    coordinates_path=None,
    largest_component: bool = False,
) -> Graph:
    """Read a graph from an edge-list file.

    With ``largest_component=True`` a disconnected input is reduced to its
    largest connected component (ties broken toward the component containing
    the smallest vertex index); vertices are then relabeled 1..N' preserving
    their original order.  Otherwise a disconnected input raises
    :class:`Disconnected`.
    """
    edges: list[tuple[int, int, float]] = []
    declared: int | None = None
    max_seen = 0
    first = True
    for lineno, tokens in _data_lines(path):
        if first and len(tokens) == 1:
            first = False
            try:
                declared = int(tokens[0])
            except ValueError:
                raise ParseError(f"expected a vertex count, got {_shown(tokens[0])}", lineno)
            if declared < 1:
                raise ParseError(f"vertex count must be positive, got {declared}", lineno)
            continue
        first = False
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 'i j' or 'i j w', got {_shown(' '.join(tokens))}", lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError:
            raise ParseError(f"could not parse edge {_shown(' '.join(tokens))}", lineno)
        edges.append((i, j, w))
        max_seen = max(max_seen, i, j)

    n = declared if declared is not None else max_seen
    if n < 1:
        raise ParseError("file contains no vertices")
    _check_size(n)
    edge_dict = _collect_edges(n, edges)
    weights = _assemble(n, edge_dict)

    coords = None
    if coordinates_path is not None:
        coords = _load_coordinates(coordinates_path, n)

    if largest_component:
        labels = _component_labels(weights)
        sizes = np.bincount(labels)
        if len(sizes) > 1:
            keep_label = int(np.argmax(sizes))  # first maximal component wins ties
            keep = np.flatnonzero(labels == keep_label)
            weights = weights[np.ix_(keep, keep)]
            if coords is not None:
                coords = coords[keep]
            n = len(keep)
    return Graph(n, weights, coords)


def _load_coordinates(path, num_vertices: int) -> np.ndarray:
    """The ``i x y`` lines of a coordinate file as an (N, 2) array.  A
    malformed line, a NaN or infinite x or y, and a vertex given twice raise
    :class:`ParseError` with the line number; vertices given no line raise
    it naming the first of them and the count of the rest."""
    coords = np.full((num_vertices, 2), np.nan)
    placed: dict[int, int] = {}  # vertex -> line
    for lineno, tokens in _data_lines(path):
        if len(tokens) != 3:
            raise ParseError(f"expected 'i x y', got {_shown(' '.join(tokens))}", lineno)
        try:
            i = int(tokens[0])
            x, y = float(tokens[1]), float(tokens[2])
        except ValueError:
            raise ParseError(f"could not parse coordinate line {_shown(' '.join(tokens))}", lineno)
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ParseError(f"NaN or infinite coordinate in {_shown(' '.join(tokens))}", lineno)
        _check_vertex(i, num_vertices)
        if i in placed:
            raise ParseError(f"vertex {i} repeats line {placed[i]}", lineno)
        placed[i] = lineno
        coords[i - 1] = (x, y)
    if len(placed) < num_vertices:
        missing = np.flatnonzero(np.isnan(coords).any(axis=1)) + 1
        raise ParseError(f"missing coordinates for vertices {_listed(missing, '[{}]')}")
    return coords


def save_graph(path, graph: Graph, coordinates_path=None) -> None:
    """Write a graph back out in the edge-list format (with an N header)."""
    w = graph.weights
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.num_vertices}\n")
        for i, j in zip(*np.nonzero(np.triu(w, 1))):  # row-major order
            fh.write(f"{i + 1} {j + 1} {float(w[i, j])!r}\n")
    if coordinates_path is not None and graph.coordinates is not None:
        with open(coordinates_path, "w", encoding="utf-8") as fh:
            for i, (x, y) in enumerate(graph.coordinates, start=1):
                fh.write(f"{i} {float(x)!r} {float(y)!r}\n")
