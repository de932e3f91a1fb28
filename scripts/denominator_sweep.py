#!/usr/bin/env python
"""How the reconstruction denominator behaves as windows are added.

For a seeded irregular graph, sweep the number of shifted RBF windows and
print min_n |d(n)| for both pairing modes.  With energy-normalized synthesis
the denominator is pinned at N by construction; with synthesis == analysis it
grows as more of the spectrum gets covered.

With synthesis == analysis, d(n) = sum_j ||T_n g_j||^2, so the union family
{M_k T_n g_j} has the frame bounds A = N min_n d(n) and B = N max_n d(n); the
B/A column prints their ratio, from ``frame_bounds`` (1 is a tight frame).

    python scripts/denominator_sweep.py --size 120 --seed 7
"""

import argparse
import sys

from mwgft import (
    LaplacianKind,
    WindowFamily,
    check_nondegeneracy,
    eigendecompose,
    frame_bounds,
    laplacian,
    random_connected_graph,
    rbf_prototype,
    shifted_family,
    uniform_shifts,
)


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
          f"{'min|d| normalized-synthesis':>28}")
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
        ratio = float("nan")
        if same.satisfied:  # else frame_bounds raises NotAFrame
            bounds = frame_bounds(basis, family)
            ratio = bounds.upper / bounds.lower
        print(f"{count:>3} {same.min_abs:>24.6e} {ratio:>8.4f} {normalized.min_abs:>28.6e}")
        if not same.min_abs > 0:
            print(f"    (J={count}: denominator vanished somewhere)")
    # sanity: the normalized pairing should sit at N up to rounding
    print(f"\nN = {basis.size}; normalized-synthesis column should equal it to ~1e-12")
    return 0


if __name__ == "__main__":
    sys.exit(main())
