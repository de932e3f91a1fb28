#!/usr/bin/env python
"""How the reconstruction denominator behaves as windows are added.

For a seeded irregular graph, sweep the number of shifted RBF windows and
print min_n |d(n)| for both pairing modes.  With energy-normalized synthesis
the denominator is pinned at N by construction; with synthesis == analysis it
grows as more of the spectrum gets covered.

With synthesis == analysis, d(n) = sum_j ||T_n g_j||^2, so the union family
{M_k T_n g_j} has the frame bounds A = N min_n d(n) and B = N max_n d(n); the
B/A column prints their ratio, from ``frame_bounds`` (1 is a tight frame).

The last two columns measure stability under noise instead, for both
pairings: white complex Gaussian noise at 1e-6 of ||S|| is added to the
coefficients S and the signal is reconstructed.  The noise gain is the
median, over seeded complex signals, of the relative signal error over the
relative coefficient noise; a tight frame has gain 1/sqrt(JN), so the
columns print the gain times sqrt(JN), and 1 reads "as good as a tight
frame".

    python scripts/denominator_sweep.py --size 120 --seed 7
"""

import argparse
import sys

import numpy as np

from mwgft import (
    LaplacianKind,
    WgftCoefficients,
    WindowFamily,
    check_nondegeneracy,
    eigendecompose,
    frame_bounds,
    laplacian,
    mwgft_analyze,
    mwgft_synthesize,
    random_connected_graph,
    rbf_prototype,
    shifted_family,
    uniform_shifts,
)


def noise_gains(basis, analysis, signals: int = 5) -> list[float]:
    """The noise gain times sqrt(JN) of the ``analysis`` windows paired with
    themselves and with their energy-normalized duals, in that order, as the
    median over ``signals`` seeded complex signals (see the module docstring).
    Both pairings analyze alike, so they share each signal's noisy
    coefficients."""
    families = (WindowFamily.with_same_synthesis(analysis),
                WindowFamily.with_normalized_synthesis(analysis))
    ratios = ([], [])
    for seed in range(signals):
        rng = np.random.default_rng(11000 + seed)
        f = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        s = mwgft_analyze(basis, families[0], f).matrices
        noise = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        noise *= 1e-6 * np.linalg.norm(s) / np.linalg.norm(noise)
        noisy = WgftCoefficients(s + noise, basis, families[0].analysis)
        for ratio, family in zip(ratios, families):
            error = np.linalg.norm(mwgft_synthesize(basis, family, noisy) - f) / np.linalg.norm(f)
            ratio.append(error / (np.linalg.norm(noise) / np.linalg.norm(s)))
    return [float(np.median(ratio) * np.sqrt(len(analysis) * basis.size)) for ratio in ratios]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--l-fac", type=float, default=0.7)
    parser.add_argument("--kind", choices=[k.value for k in LaplacianKind],
                        default=LaplacianKind.SYMMETRIC_NORMALIZED.value)
    parser.add_argument("--counts", type=int, nargs="+", default=[1, 2, 3, 5, 8])
    args = parser.parse_args(argv)

    kind = LaplacianKind.from_name(args.kind)
    graph = random_connected_graph(args.size, seed=args.seed)
    basis = eigendecompose(laplacian(graph, kind), kind)
    print(f"graph: N={graph.num_vertices} edges={graph.num_edges} laplacian={kind.value}")
    print(f"{'J':>3} {'min|d| same-as-analysis':>24} {'B/A':>8} "
          f"{'min|d| normalized-synthesis':>28} {'gain-same':>10} {'gain-normalized':>16}")
    for count in args.counts:
        analysis = shifted_family(
            rbf_prototype(basis.lambda_max, args.l_fac),
            uniform_shifts(basis.lambda_max, count),
            basis,
        )
        family = WindowFamily.with_same_synthesis(analysis)
        same = check_nondegeneracy(basis, family)
        normalized = check_nondegeneracy(
            basis, WindowFamily.with_normalized_synthesis(analysis)
        )
        ratio, gains = float("nan"), [float("nan")] * 2
        if same.satisfied:  # else frame_bounds raises NotAFrame, and synthesis too
            bounds = frame_bounds(basis, family)
            ratio = bounds.upper / bounds.lower
            gains = noise_gains(basis, analysis)
        print(f"{count:>3} {same.min_abs:>24.6e} {ratio:>8.4f} {normalized.min_abs:>28.6e} "
              f"{gains[0]:>10.3f} {gains[1]:>16.3f}")
        if not same.min_abs > 0:
            print(f"    (J={count}: denominator vanished somewhere)")
    # sanity: the normalized pairing should sit at N up to rounding
    print(f"\nN = {basis.size}; normalized-synthesis column should equal it to ~1e-12")
    return 0


if __name__ == "__main__":
    sys.exit(main())
