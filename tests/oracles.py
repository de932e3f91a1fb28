"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, closed forms, hand BFS) so the
fast linear-algebra paths in the package are verified against genuinely
separate code.  Only atom/translate/modulate compositions from the package
are reused where the contract explicitly defines one operation in terms of
the others.
"""

from __future__ import annotations

import csv

import numpy as np

from mwgft.graph import Graph, LaplacianKind
from mwgft.operators import atom, convolve, translate
from mwgft.spectral import PIVOT_TIE_RTOL, SpectralBasis
from mwgft.windows import WindowFamily


def inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product linear in the first slot: <a, b> = sum a * conj(b)."""
    return complex(np.sum(np.asarray(a) * np.conj(b)))


def bfs_component_count(weights_dense: np.ndarray) -> int:
    """Count connected components by hand-rolled breadth-first search."""
    w = np.asarray(weights_dense)
    n = w.shape[0]
    seen = np.zeros(n, dtype=bool)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop()
            for u in np.flatnonzero(w[v] != 0):
                if not seen[u]:
                    seen[u] = True
                    queue.append(int(u))
    return count


def laplacian_reference(graph: Graph, kind: LaplacianKind) -> np.ndarray:
    """The Laplacian as its textbook expression, symmetrized as ``(L + L.T) / 2``
    (several N x N temporaries; ``mwgft.laplacian`` must give the same bits)."""
    d = graph.degrees
    if kind is LaplacianKind.UNNORMALIZED:
        lap = np.diag(d) - graph.weights
    else:
        s = 1.0 / np.sqrt(d)
        lap = np.eye(graph.num_vertices) - s[:, None] * graph.weights * s
    return (lap + lap.T) / 2.0


def fix_signs_reference(vectors: np.ndarray) -> np.ndarray:
    """A sign-pinned copy of ``vectors``: each column times the sign that makes
    its first entry within ``PIVOT_TIE_RTOL`` of the column's largest
    magnitude positive."""
    mags = np.abs(vectors)
    near_max = mags >= mags.max(axis=0) * (1.0 - PIVOT_TIE_RTOL)
    pivot = vectors[near_max.argmax(axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(pivot < 0, -1.0, 1.0)


def random_connected_weights_reference(
    num_vertices: int,
    seed: int,
    extra_edges: int | None = None,
    weight_range: tuple[float, float] = (0.5, 1.5),
) -> np.ndarray:
    """Weight matrix of ``random_connected_graph`` the plain numpy way: a
    spanning tree over a random vertex order, then extra edges drawn two
    endpoints per ``rng.integers`` call, each weight from ``rng.uniform``,
    filled in one edge at a time."""
    if extra_edges is None:
        extra_edges = num_vertices
    lo, hi = weight_range
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_vertices) + 1
    edge_dict: dict[tuple[int, int], float] = {}
    for idx in range(1, num_vertices):
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        edge_dict[(min(a, b), max(a, b))] = float(rng.uniform(lo, hi))
    capacity = num_vertices * (num_vertices - 1) // 2 - len(edge_dict)
    added = 0
    while added < min(int(extra_edges), capacity):
        a, b = (int(v) + 1 for v in rng.integers(0, num_vertices, size=2))
        key = (min(a, b), max(a, b))
        if a == b or key in edge_dict:
            continue
        edge_dict[key] = float(rng.uniform(lo, hi))
        added += 1
    weights = np.zeros((num_vertices, num_vertices))
    for (a, b), w in edge_dict.items():
        weights[a - 1, b - 1] = weights[b - 1, a - 1] = w
    return weights


def path_eigenvalues(n: int) -> np.ndarray:
    """Closed-form unnormalized path-Laplacian spectrum 2 - 2 cos(pi l / N)."""
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


def path_eigenvectors(n: int) -> np.ndarray:
    """Closed-form path eigenvectors with the package's sign convention.

    chi_0 = 1/sqrt(N); chi_l(i) = sqrt(2/N) cos(pi l (i - 1/2) / N) for l >= 1,
    then each column's largest-magnitude entry (first on ties) is made
    positive.
    """
    i = np.arange(1, n + 1)[:, None]
    ell = np.arange(n)[None, :]
    vecs = np.sqrt(2.0 / n) * np.cos(np.pi * ell * (i - 0.5) / n)
    vecs[:, 0] = 1.0 / np.sqrt(n)
    mags = np.abs(vecs)
    idx = (mags >= mags.max(axis=0) * (1.0 - 1e-6)).argmax(axis=0)
    pivot = vecs[idx, np.arange(n)]
    return vecs * np.where(pivot < 0, -1.0, 1.0)


def translate_via_convolution(basis: SpectralBasis, n: int, signal: np.ndarray) -> np.ndarray:
    """Translation through its convolution characterization sqrt(N) (f * delta_n)."""
    delta = np.zeros(basis.size)
    delta[n - 1] = 1.0
    return np.sqrt(basis.size) * convolve(basis, signal, delta)


def tip_direct(basis: SpectralBasis, g: np.ndarray, gamma: np.ndarray, n: int) -> complex:
    """<T_n gamma, T_n g> by actually forming both translates."""
    return inner(translate(basis, n, gamma), translate(basis, n, g))


def wgft_direct(basis: SpectralBasis, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Coefficient matrix assembled atom by atom: S[n-1, k] = <f, g_{n,k}>."""
    size = basis.size
    out = np.zeros((size, size), dtype=complex)
    for n in range(1, size + 1):
        for k in range(size):
            out[n - 1, k] = inner(f, atom(basis, g, n, k))
    return out


def synthesize_direct(basis: SpectralBasis, family: WindowFamily, matrices) -> np.ndarray:
    """Multi-window reconstruction with explicit atom sums (small N only)."""
    size = basis.size
    numerator = np.zeros(size, dtype=complex)
    denominator = np.zeros(size, dtype=complex)
    for g_hat, gamma_hat, coeffs in zip(family.analysis, family.synthesis, matrices):
        g = basis.vectors @ g_hat
        gamma = basis.vectors @ gamma_hat
        for n in range(1, size + 1):
            for k in range(size):
                numerator += coeffs[n - 1, k] * atom(basis, gamma, n, k)
        for i in range(1, size + 1):
            denominator[i - 1] += tip_direct(basis, g, gamma, i)
    return numerator / (size * denominator)


def denominator_reference(basis: SpectralBasis, family: WindowFamily) -> np.ndarray:
    """d(n) from the pair spectra folded left, one pair at a time:
    ``N (U * U) @ (gammahat_1 conj(ghat_1) + gammahat_2 conj(ghat_2) + ...)``."""
    spectrum = family.synthesis[0] * np.conj(family.analysis[0])
    for g_hat, gamma_hat in zip(family.analysis[1:], family.synthesis[1:]):
        spectrum = spectrum + gamma_hat * np.conj(g_hat)
    return basis.size * (np.square(basis.vectors) @ spectrum)


def default_tolerance_reference(family: WindowFamily) -> float:
    """The default nondegeneracy tolerance from one norm per window pair:
    ``1e-10 N max_j ||ghat_j|| ||gammahat_j||`` (at least the smallest
    normal float)."""
    worst = max(
        float(np.linalg.norm(g_hat) * np.linalg.norm(gamma_hat))
        for g_hat, gamma_hat in zip(family.analysis, family.synthesis)
    )
    return 1e-10 * family.size * max(worst, np.finfo(float).tiny)


def spectrogram_reference(matrices) -> np.ndarray:
    """Averaged spectrogram as one stacked reduction: ``|S_j|^2`` for all J
    windows in a (J, N, N) array, summed over axis 0 and divided by J."""
    matrices = np.asarray(matrices)
    return np.square(np.abs(matrices)).sum(axis=0) / len(matrices)


def rotate_degenerate_eigenspaces(basis: SpectralBasis, rng: np.random.Generator):
    """Apply a random orthogonal rotation inside each repeated eigenspace.

    Returns (rotated basis, True) when at least one eigenvalue had
    multiplicity > 1; the eigenvalues themselves are untouched.
    """
    vals = basis.eigenvalues
    vecs = basis.vectors.copy()
    tol = 1e-8 * max(1.0, float(vals[-1]))
    rotated = False
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[stop] - vals[start] <= tol:
            stop += 1
        if stop - start > 1:
            block = rng.standard_normal((stop - start, stop - start))
            q, r = np.linalg.qr(block)
            q *= np.sign(np.diag(r))
            vecs[:, start:stop] = vecs[:, start:stop] @ q
            rotated = True
        start = stop
    return SpectralBasis(vals.copy(), vecs, basis.kind), rotated


def save_spectrogram_csv_reference(path, matrix) -> None:
    """Spectrogram CSV cell by cell: ``csv.writer`` rows of ``repr(float(v))``."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex"] + [f"k{k}" for k in range(matrix.shape[1])])
        for n in range(matrix.shape[0]):
            writer.writerow([n + 1] + [repr(float(v)) for v in matrix[n]])


def save_vectors_csv_reference(path, basis: SpectralBasis) -> None:
    """Eigenvector CSV cell by cell: ``repr(float(v))`` joined per row, ``\n`` endings."""
    n = basis.size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex," + ",".join(f"chi_{ell}" for ell in range(n)) + "\n")
        for i in range(n):
            row = ",".join(repr(float(v)) for v in basis.vectors[i])
            fh.write(f"{i + 1},{row}\n")


def _save_indexed_csv_reference(path, index_name, start, values) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([index_name, "re", "im"])
        for i, v in enumerate(np.asarray(values), start=start):
            c = complex(v)
            writer.writerow([i, repr(c.real), repr(c.imag)])


def save_signal_csv_reference(path, values) -> None:
    """Signal CSV cell by cell: ``csv.writer`` rows (vertex, re, im) from 1."""
    _save_indexed_csv_reference(path, "vertex", 1, values)


def save_spectrum_csv_reference(path, values) -> None:
    """Spectrum CSV cell by cell: ``csv.writer`` rows (ell, re, im) from 0."""
    _save_indexed_csv_reference(path, "ell", 0, values)


def save_eigenvalues_csv_reference(path, basis: SpectralBasis) -> None:
    """Eigenvalue CSV line by line: ``ell,repr(float(lambda))`` with ``\n`` endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("ell,eigenvalue\n")
        for ell, lam in enumerate(basis.eigenvalues):
            fh.write(f"{ell},{float(lam)!r}\n")


def save_family_csv_reference(path, basis: SpectralBasis, family: WindowFamily) -> None:
    """Window family CSV cell by cell: per window the real and imaginary parts
    of ghat and gammahat, ``csv.writer`` rows from ell = 0."""
    header = ["ell", "eigenvalue"]
    for j in range(1, family.num_windows + 1):
        header += [f"g{j}_re", f"g{j}_im", f"gamma{j}_re", f"gamma{j}_im"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for ell in range(basis.size):
            row = [ell, repr(float(basis.eigenvalues[ell]))]
            for g, gam in zip(family.analysis, family.synthesis):
                gs, cs = complex(g[ell]), complex(gam[ell])
                row += [repr(gs.real), repr(gs.imag), repr(cs.real), repr(cs.imag)]
            writer.writerow(row)


def save_condition_report_csv_reference(path, report) -> None:
    """Condition report CSV cell by cell, ``abs`` being Python's ``abs(complex)``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "denominator_re", "denominator_im", "abs", "ok"])
        for i, d in enumerate(report.denominators, start=1):
            c = complex(d)
            ok = abs(c) > report.tolerance
            writer.writerow([i, repr(c.real), repr(c.imag), repr(abs(c)), int(ok)])
