"""One workload process: set up, warm up, then a closed loop of ops.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment, so it holds before numpy is first imported.  Writes one JSON
result file and exits.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

TOLERANCE = 1e-9


def relative_error(expected, got) -> float:
    import numpy as np

    expected, got = np.asarray(expected), np.asarray(got)
    if expected.shape != got.shape:
        return float("inf")
    scale = float(np.linalg.norm(expected))
    return float(np.linalg.norm(got - expected)) / (scale if scale else 1.0)


def verified(inspected, corrupt: bool) -> bool:
    """Every check within tolerance and certified non-degenerate."""
    ok = True
    for i, check in enumerate(inspected.checks):
        got = check.got * (1 + 1e-6) if corrupt and i == 0 else check.got
        error = relative_error(check.expected, got)
        if not (check.nondegenerate and error <= TOLERANCE):
            print(f"perfbench: check {check.label!r} failed: relative error {error:.3e}, "
                  f"non-degenerate {check.nondegenerate}", file=sys.stderr)
            ok = False
    return ok


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # show_config's layout is not a stable API
        blas_version = "unknown"
    return {
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
    }


def per_layer(tracer, setup_trace, import_s, inputs_s, times, traced):
    """Median per op of every layer metric over the traced ops."""
    from tracing import IO_METRICS, LAYER_FUNCTIONS, PER_LAYER_UNITS

    ops = tracer.ops
    for op in ops:
        run_s = op.get("experiment.run_s", 0.0)
        op["experiment.io_share"] = sum(op.get(m, 0.0) for m in IO_METRICS) / run_s if run_s else 0.0
    metrics = {name: statistics.median([op.get(name, 0.0) for op in ops]) if ops else 0.0
               for name in PER_LAYER_UNITS}
    plain = [t for t, was_traced in zip(times, traced) if not was_traced]
    metrics["trace.op_s.p50"] = statistics.median(op["trace.op_s"] for op in ops)
    metrics["trace.overhead_s"] = metrics["trace.op_s.p50"] - statistics.median(plain)
    metrics["setup.import_s"] = import_s
    metrics["setup.inputs_s"] = inputs_s
    metrics["setup.eigendecompose_s"] = setup_trace.get("spectral.eigendecompose_s", 0.0)

    absent = {}
    for name, functions in LAYER_FUNCTIONS.items():
        if all(fn in tracer.missing for fn in functions):
            absent[name] = "function no longer in mwgft"
    for name in PER_LAYER_UNITS:
        if name not in absent and not name.startswith(("setup.", "trace.")) \
                and all(op.get(name, 0.0) == 0.0 for op in ops):
            absent[name] = "not on this workload's path"
    layer_sum = statistics.median(op["trace.op_s"] - op["trace.unattributed_s"] for op in ops)
    return metrics, {
        "absent": absent,
        "traced_ops": len(ops),
        "untraced_ops": len(plain),
        "layer_self_sum_s": layer_sum,
        "missing_functions": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)

    started = time.perf_counter()
    import workloads  # imports mwgft, so this is the library's import time
    import tracing
    import_s = time.perf_counter() - started

    tracer = tracing.Tracer(tracing.mwgft_modules()) if args.trace else None
    workload = workloads.WORKLOADS[args.workload]()
    started = time.perf_counter()
    with tracer.op() if tracer else contextlib.nullcontext():
        workload.setup(args.seed, workdir)
    inputs_s = time.perf_counter() - started
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    setup_trace = tracer.ops.pop() if tracer else {}
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    def no_span(name):
        return contextlib.nullcontext()

    def run_op(index: int, traced: bool, corrupt: bool):
        opdir = workdir / f"op{index}"
        opdir.mkdir()
        began = time.perf_counter()
        try:
            try:
                with tracer.op() if traced else contextlib.nullcontext():
                    output = workload.op(tracer.span if traced else no_span, opdir)
            finally:
                elapsed = time.perf_counter() - began
            inspected = workload.inspect(output)
            if traced:
                tracer.ops[-1].update(inspected.counts)
            return verified(inspected, corrupt), elapsed
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc()
            return False, elapsed
        finally:
            shutil.rmtree(opdir, ignore_errors=True)

    def timed_reference() -> float:
        began = time.perf_counter()
        workload.reference(workdir)
        return time.perf_counter() - began

    warm_ok, _ = run_op(0, False, False)  # untimed warm-up
    timed_reference()  # untimed warm-up
    times, traced, oks = [], [], []
    refs = [timed_reference()]  # refs[i] and refs[i + 1] bracket op i
    began = time.perf_counter()
    index = 0
    minimum = 2 if tracer else 1  # a traced run needs a plain and a traced op
    while len(oks) < minimum or time.perf_counter() - began < args.seconds:
        index += 1
        was_traced = bool(tracer) and index % 2 == 0
        ok, elapsed = run_op(index, was_traced, args.inject_failure and index == 1)
        oks.append(ok)
        times.append(elapsed)
        traced.append(was_traced)
        refs.append(timed_reference())

    # each plain op in units of the mean of the two reference runs around it
    plain = [(t / ((before + after) / 2), ok)
             for t, ok, was_traced, before, after in zip(times, oks, traced, refs, refs[1:])
             if not was_traced]
    ratios = [ratio for ratio, _ in plain]
    result.update({
        "attempted": len(oks) + 1,
        "failed": oks.count(False) + (not warm_ok),
        "ops_timed": len(times),
        "op_s_p50": statistics.median(times),
        "ops_per_s": oks.count(True) / sum(times),
        "ref_s_p50": statistics.median(refs),
        "op_ref_p50": statistics.median(ratios),
        "ops_per_ref": sum(ok for _, ok in plain) / sum(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    })
    if tracer:
        result["per_layer"], result["trace"] = per_layer(
            tracer, setup_trace, import_s, inputs_s, times, traced)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
