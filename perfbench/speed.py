"""Machine-speed probe: a fixed piece of pure-Python integer work.

The benchmark's machine changes speed by itself: one pass on the same
inputs took from 0.41 to 0.65 s within two minutes, in phases that last
from seconds to tens of minutes (see README.md).  So every pass is timed
next to this probe, and each reported time is scaled by

    REF_PROBE_S / median(times of the probes around that pass)

(for the latency of one operation, of the probes nearest it) to read in
seconds at a machine speed at which the probe takes REF_PROBE_S.  The probe uses no cellkit code: a change to cellkit cannot
move it, only the machine can.  It is fraction-free (Bareiss)
elimination of a fixed integer matrix, which like cellkit's own work is
interpreted Python on small and medium big integers.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

DIM = 24
REPEATS = 24
# A typical probe time, in seconds, on the reference machine (2-vCPU
# x86-64 virtual machine, Python 3.11.7), where the median probe time of
# a pass ranged from about 20 to 32 ms.
REF_PROBE_S = 0.025
# The determinant of MATRIX: a probe that computes anything else is broken.
DETERMINANT = 29636448216450664778458806920


def _matrix() -> list[list[int]]:
    # Entries in [-9, 9] from a fixed linear congruential sequence.
    x, rows = 12345, []
    for _ in range(DIM):
        row = []
        for _ in range(DIM):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


MATRIX = _matrix()


def determinant(m: list[list[int]]) -> int:
    """Bareiss elimination; every division is exact."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def probe() -> float:
    """Seconds for REPEATS determinants of MATRIX."""
    start = perf_counter()
    for _ in range(REPEATS):
        d = determinant(MATRIX)
    elapsed = perf_counter() - start
    if d != DETERMINANT:
        raise RuntimeError(f"speed probe computed {d}, want {DETERMINANT}")
    return elapsed


def factor(probes: list[float]) -> float:
    """Scale from this machine's seconds to reference seconds."""
    return REF_PROBE_S / median(probes)


# Probes on each side of an operation that set its scale.
LOCAL_PROBES = 4


def local_factors(probes: list[float], marks: list[int]) -> list[float]:
    """The scale of each operation of a pass, from the probes nearest in
    time: ``marks[i]`` probes were taken before operation i started."""
    return [factor(probes[max(0, m - LOCAL_PROBES):m + LOCAL_PROBES])
            for m in marks]


if __name__ == "__main__":
    # One probe in a fresh process, for work that itself runs in fresh
    # processes (the CLI queries).
    print(probe())
