"""mwgft benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload transform-loop --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mwgft is imported from ``src/``.
Each run starts the workload in its own child process (one closed-loop
client) with the BLAS thread count fixed before numpy is imported.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit code is 0 only
when every op was verified.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # nothing of a run stays in the checkout
from tracing import PER_LAYER_UNITS  # noqa: E402  (stdlib-only module)

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("experiment-run", "transform-loop", "staged-roundtrip")
SETUP_RUNS = 5      # set-ups per run; setup_s is their median
DEADLINE_S = 170    # the whole command ends within this


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(threads: int, workdir: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(workdir)
    return env


def run_child(args, workdir: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    """Start one workload process, wait for it, and return its result."""
    rundir = Path(tempfile.mkdtemp(dir=workdir))
    result = rundir / "result.json"
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(rundir), "--result", str(result)]
    if setup_only:
        command.append("--setup-only")
    if args.inject_failure:
        command.append("--inject-failure")
    command += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(command, cwd=rundir, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args.workload} did not finish within {DEADLINE_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result.is_file():
        raise RuntimeError(f"{args.workload} process exited with code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(outcome: dict, setups: list) -> dict:
    """The JSON metrics: set-up, op time in reference-kernel units, RSS."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ref.p50": (outcome["op_ref_p50"], "ref"),
        "ops_per_ref": (outcome["ops_per_ref"], "1/ref"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
    }


def wall_clock(outcome: dict) -> dict:
    """Printed beside the JSON metrics: raw wall times, which move with the host."""
    return {
        "op_s.p50": (outcome["op_s_p50"], "s"),
        "ops_per_s": (outcome["ops_per_s"], "1/s"),
        "ref_s.p50": (outcome["ref_s_p50"], "s"),
    }


def print_traced(outcome: dict) -> None:
    trace = outcome["trace"]
    layers = outcome["per_layer"]
    for name, unit in PER_LAYER_UNITS.items():
        note = f"  absent: {trace['absent'][name]}" if name in trace["absent"] else ""
        print(f"  {name:32s} {layers[name]:14.6g} {unit}{note}")
    print(f"  traced ops {trace['traced_ops']}, plain ops {trace['untraced_ops']}; "
          f"layer self times sum to {trace['layer_self_sum_s']:.6f} s of a traced op's "
          f"{layers['trace.op_s.p50']:.6f} s (unattributed {layers['trace.unattributed_s']:.6f} s); "
          f"tracing overhead {layers['trace.overhead_s']:+.6f} s per op")
    if trace["missing_functions"]:
        print(f"  not found in mwgft: {', '.join(trace['missing_functions'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="corrupt the first measured op's output (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mwgft" / "__init__.py").is_file():
        print(f"perfbench: no mwgft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    threads = min(2, len(os.sched_getaffinity(0)))
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        env = child_env(threads, workdir)
        runs = 1 if args.trace else SETUP_RUNS
        setups = [run_child(args, workdir, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(runs - 1)]
        outcome = run_child(args, workdir, env, deadline, setup_only=False)
        setups.append(outcome["setup_s"])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    env_record = dict(outcome["env"], git_commit=git_commit(), seed=args.seed,
                      workload=args.workload, seconds=args.seconds)
    print("env " + json.dumps(env_record, sort_keys=True))
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"{args.workload} (seed {args.seed}, {threads} BLAS threads, {args.seconds} s)")
    if args.trace:
        print_traced(outcome)
        metrics = {name: {"value": outcome["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        e2e = end_to_end(outcome, setups)
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "op_ref.p50": f"n={outcome['ops_timed']} ops",
                 "op_s.p50": f"n={outcome['ops_timed']} ops, wall clock",
                 "ops_per_s": "wall clock",
                 "ref_s.p50": "the reference kernel's own time"}
        for name, (value, unit) in {**e2e, **wall_clock(outcome)}.items():
            print(f"  {name:12s} {value:12.6f} {unit:4s} {notes.get(name, '')}")
        print(f"  {'failed_frac':12s} {failed / attempted:12.6f} ratio ({failed} of {attempted} ops)")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
