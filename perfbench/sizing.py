"""Per-input cost of the large complexes at given ranks: where the SNF
cliff is.

    PYTHONPATH=src python3 perfbench/sizing.py --ranks 16,22,14,6 --seeds 0-2

For each input, prints the seconds of homology and of the nullification
fibre at the middle cut (each on a cold object), and, over the SNFs
computed for them, the largest matrix dimension and the largest entry of
a change-of-basis matrix in bits.  An input that runs past --limit
seconds is reported as such and the size is abandoned.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
from time import perf_counter

from cellkit import truncation
from cellkit.complexes import ChainComplex

import workloads as wl
from tracer import Tracer


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def measure(payload: dict) -> dict:
    tracer = Tracer("sizing")
    tracer.install()
    try:
        x = ChainComplex.from_json(payload)
        start = perf_counter()
        x.homology
        hom_s = perf_counter() - start
        x = ChainComplex.from_json(payload)
        start = perf_counter()
        truncation.nullification_fiber(x, wl.cut(payload))
        fib_s = perf_counter() - start
    finally:
        tracer.uninstall()
    return {"homology_s": hom_s, "fibre_s": fib_s, **tracer.snf}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ranks", required=True, help="e.g. 16,22,14,6")
    ap.add_argument("--seeds", default="0-2", help="first-last, inclusive")
    ap.add_argument("--inputs", type=int, default=10, help="per seed")
    ap.add_argument("--limit", type=int, default=60,
                    help="seconds allowed for one input")
    args = ap.parse_args(argv)
    ranks = tuple(int(r) for r in args.ranks.split(","))
    first, last = (int(s) for s in args.seeds.split("-"))
    signal.signal(signal.SIGALRM, _alarm)
    for seed in range(first, last + 1):
        rng = random.Random(f"sizing:{ranks}:{seed}")
        for i in range(args.inputs):
            signal.alarm(args.limit)
            try:
                row = measure(wl.large_complex(rng, ranks))
            except Timeout:
                print(f"ranks {ranks} seed {seed} input {i}: over {args.limit} s")
                return 1
            finally:
                signal.alarm(0)
            print(f"ranks {ranks} seed {seed} input {i}: "
                  + " ".join(f"{k} {v:.4g}" if isinstance(v, float)
                             else f"{k} {v}" for k, v in row.items()),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
