#!/usr/bin/env python
"""Run the self-contained shipped presets and print a one-line-per-run table.

Useful as a smoke check after installing:

    python scripts/run_presets.py --out-root out/presets
"""

import argparse
import sys
from pathlib import Path

from mwgft import load_preset, run_experiment

SELF_CONTAINED = ("path-impulse", "path-chirp", "random-irregular")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="out/presets", help="artifact directory root")
    args = parser.parse_args(argv)

    header = f"{'preset':<18} {'N':>4} {'J':>2} {'min|d|':>12} {'rel error':>12} {'secs':>6}"
    print(header)
    print("-" * len(header))
    worst = 0.0
    for name in SELF_CONTAINED:
        report = run_experiment(load_preset(name), out_dir=Path(args.out_root) / name)
        worst = max(worst, report.relative_error)
        print(
            f"{name:<18} {report.num_vertices:>4} {report.num_windows:>2} "
            f"{report.min_abs_denominator:>12.4e} {report.relative_error:>12.4e} "
            f"{report.elapsed_seconds:>6.2f}"
        )
    print(f"\nartifacts under {args.out_root}/<preset>/")
    return 0 if worst <= 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
