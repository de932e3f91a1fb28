"""Per-layer spans recorded from outside the library.

The tracer wraps mwgft's public functions under every module name a caller
looks them up by (``mwgft.experiment.save_spectrogram_csv``,
``mwgft.cli.mwgft_analyze``, ``mwgft.mwgft_analyze`` ...) and restores the
originals afterwards.  Each call becomes a span; a span's self time is its
duration minus the durations of the spans it encloses, so the self times of
one op add up to the op's wall time exactly.  A function that no longer
exists is skipped and its metric reported absent.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc
from collections import defaultdict

# layer metric -> public functions whose calls it times.  Leaf metrics take
# the self time of these spans; see INCLUSIVE for the enclosing layers.
LAYER_FUNCTIONS = {
    "graph.build_s": ("path_graph", "random_connected_graph", "build_graph"),
    "graph.laplacian_s": ("laplacian",),
    "spectral.eigendecompose_s": ("eigendecompose",),
    "spectral.write_s": ("save_eigenvalues_csv",),
    "windows.family_s": ("rbf_prototype", "uniform_shifts", "shifted_family", "synthesis_family"),
    "windows.nondegeneracy_s": ("check_nondegeneracy",),
    "windows.write_s": ("save_family_csv", "save_condition_report_csv", "format_condition_report"),
    "signals.build_s": ("build_signal", "impulse", "heat_signal", "chirp_signal", "random_signal"),
    "signals.write_s": ("save_signal_csv",),
    "transform.analyze_s": ("mwgft_analyze",),
    "transform.synthesize_s": ("mwgft_synthesize",),
    "transform.spectrogram_s": ("spectrogram",),
    "transform.coeff_write_s": ("save_coefficients",),
    "transform.coeff_read_s": ("load_coefficients",),
    "transform.spectrogram_write_s": ("save_spectrogram_csv", "save_spectrogram_pgm"),
    "experiment.self_s": ("run_experiment",),
}

# spans that also report their whole (inclusive) duration: run_experiment,
# and the spans the benchmark opens around its calls into mwgft.cli.main
INCLUSIVE = {
    "run_experiment": "experiment.run_s",
    "cli.analyze": "cli.analyze_s",
    "cli.synthesize": "cli.synthesize_s",
}

IO_METRICS = ("spectral.write_s", "windows.write_s", "signals.write_s",
              "transform.coeff_write_s", "transform.coeff_read_s",
              "transform.spectrogram_write_s")

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.laplacian_s": "s",
    "spectral.eigendecompose_s": "s",
    "spectral.write_s": "s",
    "windows.family_s": "s",
    "windows.nondegeneracy_s": "s",
    "windows.write_s": "s",
    "signals.build_s": "s",
    "signals.write_s": "s",
    "transform.analyze_s": "s",
    "transform.synthesize_s": "s",
    "transform.spectrogram_s": "s",
    "transform.peak_alloc_mb": "MB",
    "transform.flops": "flop",
    "transform.coeff_bytes": "B",
    "transform.coeff_write_s": "s",
    "transform.coeff_read_s": "s",
    "transform.spectrogram_write_s": "s",
    "experiment.run_s": "s",
    "experiment.self_s": "s",
    "experiment.io_share": "ratio",
    "experiment.artifact_bytes": "B",
    "cli.analyze_s": "s",
    "cli.synthesize_s": "s",
    "cli.self_s": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.eigendecompose_s": "s",
    "trace.op_s.p50": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# transform calls whose peak allocation is measured with tracemalloc
ALLOC_FUNCTIONS = ("mwgft_analyze", "mwgft_synthesize", "spectrogram")


def _arrays(obj):
    """numpy arrays held by a result: itself, a sequence, or dataclass fields."""
    if hasattr(obj, "nbytes") and hasattr(obj, "shape"):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dataclass_fields__"):
        return [a for name in obj.__dataclass_fields__ for a in _arrays(getattr(obj, name))]
    return []


def coefficient_shape(coeffs):
    """(windows, vertices) of a coefficient set, whatever its container."""
    mats = [a for a in _arrays(coeffs) if a.ndim >= 2]
    if len(mats) == 1 and mats[0].ndim == 3:
        return mats[0].shape[0], mats[0].shape[1]
    return len(mats), (mats[0].shape[0] if mats else 0)


def _is_complex(obj) -> bool:
    return obj is not None and getattr(getattr(obj, "dtype", None), "kind", "") == "c"


def reference_flops(name, args, kwargs, result) -> float:
    """Floating-point operations of the seed's dense algorithm for one call.

    Analysis does two N x N x N products per window (translates, then the
    transform); synthesis does two complex ones per window.  A real product
    counts 2 N^3, a complex one 8 N^3.  This is a problem-size count, not a
    measurement: an algorithm that needs fewer products keeps the same count.
    """
    if name == "mwgft_analyze":
        j, n = coefficient_shape(result)
        signal = args[2] if len(args) > 2 else kwargs.get("signal")
        return j * (2 + (8 if _is_complex(signal) else 2)) * float(n) ** 3
    if name == "mwgft_synthesize":
        coeffs = args[2] if len(args) > 2 else kwargs.get("coeffs")
        j, n = coefficient_shape(coeffs)
        return j * 16 * float(n) ** 3
    return 0.0


class Tracer:
    """Spans and counts of one op at a time; per-op totals kept in ``ops``."""

    def __init__(self, modules):
        self._modules = modules
        self._originals = {}          # (module, name) -> original function
        self._stack = []              # [name, start, child_time]
        self._op = None
        self.ops = []                 # per-op metric dicts
        self.missing = []             # functions not found in mwgft
        self._functions = [name for names in LAYER_FUNCTIONS.values() for name in names]
        # span name -> the metric that takes its self time
        self._metric = {name: metric for metric, names in LAYER_FUNCTIONS.items()
                        for name in names}
        self._metric.update({"cli.analyze": "cli.self_s", "cli.synthesize": "cli.self_s"})

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Wrap every traced name in every mwgft module that exposes it."""
        for name in self._functions:
            original = self._find(name)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in self._modules:
                if module.__dict__.get(name) is original:
                    self._originals[(module, name)] = original
                    setattr(module, name, wrapper)

    def uninstall(self):
        for (module, name), original in self._originals.items():
            setattr(module, name, original)
        self._originals.clear()

    def _find(self, name):
        for module in self._modules:
            fn = module.__dict__.get(name)
            if callable(fn) and getattr(fn, "__module__", "").startswith("mwgft"):
                return fn
        return None

    def _wrap(self, name, original):
        tracer = self

        def wrapper(*args, **kwargs):
            alloc = name in ALLOC_FUNCTIONS and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak("transform.peak_alloc_mb", peak / 2**20)
            tracer.add("transform.flops", reference_flops(name, args, kwargs, result))
            if name == "mwgft_analyze":
                tracer.add("transform.coeff_bytes",
                           float(sum(a.nbytes for a in _arrays(result))))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = name
        return wrapper

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Root span of one op; everything recorded inside lands in one dict."""
        self._op = defaultdict(float)
        self.install()
        start = time.perf_counter()
        self._stack.append(["op", start, 0.0])
        try:
            yield
        finally:
            _, _, child = self._stack.pop()
            wall = time.perf_counter() - start
            self.uninstall()
            self._op["trace.op_s"] = wall
            self._op["trace.unattributed_s"] = wall - child
            self.ops.append(dict(self._op))
            self._op = None

    @contextlib.contextmanager
    def span(self, name):
        """A span inside the current op; its self time goes to its layer."""
        entry = [name, time.perf_counter(), 0.0]
        self._stack.append(entry)
        try:
            yield
        finally:
            self._stack.pop()
            duration = time.perf_counter() - entry[1]
            self._stack[-1][2] += duration
            self.add(self._metric[name], duration - entry[2])
            if name in INCLUSIVE:
                self.add(INCLUSIVE[name], duration)

    def add(self, metric, value):
        self._op[metric] += value

    def peak(self, metric, value):
        self._op[metric] = max(self._op[metric], value)


def mwgft_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "mwgft" or n.startswith("mwgft.")) and m is not None]
