"""Reference kernels: fixed work, built from the standard library and numpy
only, that never touches mwgft.

On a shared host the speed of a core drifts by 20% or more within seconds
and between minutes, for CPU time as much as for wall time, so raw op times
of the same code spread across runs by more than any useful bound.  Each
measured op is therefore bracketed by two runs of its workload's reference
kernel, and the op's time is also reported divided by the mean of the two.
The kernel does the same kind of work as the op's dominant cost, so the host
drift cancels in the ratio while a change to mwgft moves only the op.  No
change to mwgft can move a reference kernel, since none of them calls it.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

_RNG = np.random.default_rng(20160101)  # fixed: the yardstick is the same for every seed
SPECTROGRAM = _RNG.random((750, 150))
COEFFICIENTS = _RNG.standard_normal((160, 250)) + 1j * _RNG.standard_normal((160, 250))
REAL = _RNG.standard_normal((900, 900))
COMPLEX = REAL[:500, :500] + 1j * _RNG.standard_normal((500, 500))


def csv_write(workdir: Path) -> None:
    """Rows of ``repr(float)`` of numpy values through ``csv.writer``, like
    the artifact writers that dominate ``run_experiment``."""
    with open(workdir / "reference.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for n in range(SPECTROGRAM.shape[0]):
            writer.writerow([n + 1] + [repr(float(v)) for v in SPECTROGRAM[n]])


def csv_roundtrip(workdir: Path) -> None:
    """A complex matrix written element by element as ``n, k, re, im`` rows
    and parsed back into a matrix, like a coefficient file's write and read."""
    path = workdir / "reference.csv"
    rows, cols = COEFFICIENTS.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for n in range(rows):
            for k in range(cols):
                v = complex(COEFFICIENTS[n, k])
                writer.writerow([1, n + 1, k, repr(v.real), repr(v.imag)])
    parsed = np.zeros_like(COEFFICIENTS)
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            parsed[int(row[1]) - 1, int(row[2])] = complex(float(row[3]), float(row[4]))
    if not np.array_equal(parsed, COEFFICIENTS):
        raise RuntimeError("reference kernel read back different values")


def dense_products(workdir: Path) -> None:
    """Real and complex dense matrix products, like the transform's GEMMs."""
    for _ in range(5):
        REAL @ REAL
        REAL @ REAL.T
        COMPLEX @ COMPLEX
