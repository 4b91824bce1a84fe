"""Record the reference outputs that the benchmark compares against.

    PYTHONPATH=src python3 perfbench/record_refs.py --workload W [--seeds 0-19]

Run from the root of a checkout, on the commit whose outputs are the
reference.  For the large workloads it records every pass that a run at
the ``run_seconds`` of BENCHMARK.json makes.  Updates
perfbench/refs/<workload>.json in place:

  acceptance        seed -> digest of `cellkit acceptance --seed N` stdout
  cli_queries       seed -> [exit code, stdout digest] per query of the mix
  large_homology    seed -> round -> per-input digest of (homology,
                    derived_hom) outputs
  large_truncation  seed -> round -> per-input digest of the homology
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import cli_mix
import references
import run
import workloads as wl

WORKDIR = ".perfbench_work"


def record(workload: str, seed: int, rounds: int):
    if workload == "acceptance":
        results, _, _ = wl.run_acceptance(seed)
        return cli_mix.digest(wl.acceptance_report(seed, results))
    if workload == "cli_queries":
        out = []
        for argv in cli_mix.write_queries(seed, WORKDIR):
            proc = subprocess.run([sys.executable, "-m", "cellkit.cli", *argv],
                                  capture_output=True, text=True, check=False)
            out.append([proc.returncode, cli_mix.digest(proc.stdout)])
        return out
    gen, refs = {"large_homology": (wl.gen_large_homology,
                                    wl.refs_large_homology),
                 "large_truncation": (wl.gen_large_truncation,
                                      wl.refs_large_truncation)}[workload]
    return {str(r): refs(gen(seed, r)) for r in range(rounds)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-19", help="first-last, inclusive")
    args = ap.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        rounds = run.pass_count(args.workload, json.load(fh)["run_seconds"])
    found = {str(s): record(args.workload, s, rounds)
             for s in range(first, last + 1)}
    path = references.path(args.workload)
    with open(path, encoding="utf-8") as fh:
        refs = json.load(fh)
    refs.update(found)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
