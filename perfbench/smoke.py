"""Smoke test of the benchmark itself (not part of the pytest suite).

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit; runs one
workload with a deliberately corrupted op and checks that it is counted as
failed and turns the exit code non-zero; checks that a directory holding
only the benchmark (no mwgft sources) exits non-zero without a result; and
checks that no run leaves a file behind in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def files_in_checkout() -> set:
    return {p for p in ROOT.rglob("*")
            if ".git" not in p.parts and "__pycache__" not in p.parts}


def run(*extra, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "7", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = files_in_checkout()
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run("--workload", workload, "--trace", trace)
            result = json.loads(lines[-1]) if lines else {}
            printed = "\n".join(lines[:-1])
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if code != 0 or result.get("failed") != 0 or got != wanted:
                problems.append(f"{workload} --trace {trace}: exit {code}, result {result}")
            missing = [name for name in wanted if name not in printed]
            if trace == "0":
                missing += [name for name in ("failed_frac", "n=") if name not in printed]
            if missing:
                problems.append(f"{workload} --trace {trace}: not printed: {missing}")
            print(f"{workload} --trace {trace}: exit {code}, "
                  f"{result.get('attempted')} ops, {result.get('failed')} failed")

    code, lines = run("--workload", "experiment-run", "--trace", "0", "--inject-failure")
    result = json.loads(lines[-1])
    if code == 0 or result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted op not counted: exit {code}, result {result}")
    print(f"corrupted op: exit {code}, {result['failed']} of {result['attempted']} failed")

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("--workload", "transform-loop", "--trace", "0",
                          cwd=bare, script=bare / BENCH.name / "run.py")
    finally:
        shutil.rmtree(bare)
        scratch.rmdir()
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"benchmark without sources: exit {code}, output {lines}")
    print(f"without mwgft sources: exit {code}")

    left = sorted(str(p.relative_to(ROOT)) for p in files_in_checkout() ^ before)
    if left:
        problems.append(f"files changed in the checkout: {left}")

    for problem in problems:
        print("FAIL " + problem)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
