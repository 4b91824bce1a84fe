"""cellkit benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: acceptance, large_homology,
large_truncation, cli_queries (see BENCHMARK.json and perfbench/README.md).

Every pass of a workload runs in a fresh process (``worker.py``), so it
starts with the cold caches of a real ``cellkit`` invocation.  The loop is
closed, one client: passes run back to back, as many as fit in
``--seconds`` at their nominal length, and at least one.

The machine's own speed drifts, so each pass is timed next to a fixed
speed probe that uses no cellkit code, and every reported time is in
reference seconds: scaled by the probe's reference time over its median
time around that pass (``speed.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` traced passes give the
per-layer metrics instead.  Exit status 0 means the benchmark ran; the
``correct`` field says whether every output checked out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("acceptance", "large_homology", "large_truncation", "cli_queries")
CHILD_TIMEOUT_S = 150
MIN_SETUPS = 3
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
PROBE_REPEATS = 3
# A run may take 180 s; no pass starts after this many seconds.
RUN_BUDGET_S = 100
# Nominal length of one pass, set-up, checks and speed probes included,
# on the reference machine (see README.md).  A run makes
# round(seconds / NOMINAL_PASS_S) passes, at least one, so the number of
# samples, and with it the tail percentile, does not depend on the speed
# of the machine or of the code.
NOMINAL_PASS_S = {"acceptance": 14.0, "large_homology": 1.5,
                  "large_truncation": 2.2, "cli_queries": 6.25}

sys.path.insert(0, HERE)
import cli_mix  # noqa: E402  (plain Python: no cellkit import)
import references  # noqa: E402
import speed  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str]) -> tuple[int, str, str, float, float]:
    """Run ``cmd`` to completion in the checkout root.

    Returns (exit code, stdout, stderr, wall seconds from just before the
    spawn, peak RSS in MB).  Killed and reaped after CHILD_TIMEOUT_S.
    """
    with tempfile.TemporaryFile(dir=WORKDIR) as out, \
            tempfile.TemporaryFile(dir=WORKDIR) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                wall, usage.ru_maxrss / 1024.0)


def worker(workload: str, seed: int, mode: str, rnd: int = 0):
    """(report, seconds from spawn to end of set-up, peak RSS MB)."""
    start = perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--round", str(rnd), "--mode", mode,
           "--workdir", os.path.relpath(WORKDIR, ROOT)]
    code, out, err, _, rss = spawn(cmd)
    if code:
        raise RuntimeError(f"{' '.join(cmd)} exited {code}:\n{err[-3000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    return report, report["setup_done"] - start, rss


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    TAIL_LADDER with at least 10 samples beyond it, by nearest rank.  With
    fewer than 20 samples no percentile qualifies and the maximum is
    returned as percentile 100."""
    xs = sorted(samples)
    best = (100.0, xs[-1], 0)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * len(xs)))
        if len(xs) - rank >= 10:
            best = (p, xs[rank - 1], len(xs) - rank)
    return best


def child_probe() -> float:
    """A speed probe in a fresh process of its own, the way each CLI query
    runs: a probe in this long-lived, mostly waiting process reads the
    machine differently."""
    code, out, err, _, _ = spawn([sys.executable, os.path.join(HERE, "speed.py")])
    if code:
        raise RuntimeError(f"speed probe exited {code}:\n{err[-3000:]}")
    return float(out)


def pass_count(workload: str, seconds: float) -> int:
    """Passes of a run: as many as fit in ``seconds`` at their nominal
    length, at least one."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of the passes that fit in ``seconds`` at their
    nominal length, run back to back.

    Every time is scaled to reference seconds by the speed probes run
    around its own pass or set-up (speed.py); the unscaled median pass
    and the scale factors are kept for the human-readable report.
    """
    count = pass_count(workload, seconds)
    began = perf_counter()
    passes, raw_passes, setups, ops, rss, factors = [], [], [], [], [], []
    attempted = failed = 0
    failures: list[str] = []

    def setup_only():
        report, setup_s, _ = worker(workload, seed, "setup")
        setups.append(setup_s * speed.factor(report["probes"]))
        return report

    if workload == "cli_queries":
        queries = setup_only()["queries"]
        refs = references.load(workload, seed)
    while len(passes) < count:
        if workload == "cli_queries":
            probes, marks, walls, outputs = [], [], [], []
            for argv in queries:
                probes.append(child_probe())
                marks.append(len(probes))
                code, out, _, wall, peak = spawn(
                    [sys.executable, "-m", "cellkit.cli", *argv])
                outputs.append((code, out))
                walls.append(wall)
                rss.append(peak)
            pass_s = sum(walls)
            found = cli_mix.check(queries, outputs, refs)
            n = len(queries)
        else:
            report, setup_s, peak = worker(workload, seed, "round",
                                           len(passes))
            probes, walls = report["probes"], report["ops_s"]
            marks = report["op_marks"]
            pass_s = report["round_s"]
            setups.append(setup_s * speed.factor(probes))
            rss.append(peak)
            found = report["failures"]
            n = report["attempted"]
        f = speed.factor(probes)
        factors.append(f)
        raw_passes.append(pass_s)
        passes.append(pass_s * f)
        ops.extend(w * g for w, g in
                   zip(walls, speed.local_factors(probes, marks)))
        attempted += n
        failed += min(len(found), n)
        failures.extend(found)
        # A rare input whose SNF coefficients explode can hold one pass
        # for minutes; start no further pass then, to end in bounded time.
        if perf_counter() - began > RUN_BUDGET_S:
            break
    while len(setups) < MIN_SETUPS:
        setup_only()
    p, tail_s, beyond = tail(ops)
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "passes": len(passes), "ops": len(ops), "tail_pct": p,
        "tail_beyond": beyond, "raw_run_s": median(raw_passes),
        "factors": (min(factors), median(factors), max(factors)),
        "metrics": {
            "setup_s": median(setups),
            "run_s": median(passes),
            "op_p50_ms": median(ops) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            # The largest child for the CLI; the median pass otherwise.
            "peak_rss_mb": max(rss) if workload == "cli_queries" else median(rss),
            "ok_frac": 1 - failed / attempted,
        },
    }


def startup_probe(handler_ms: float) -> dict:
    """Start-up cost of a `cellkit` process, from outside."""
    def wall(cmd):
        return median(spawn(cmd)[3] for _ in range(PROBE_REPEATS))
    bare = wall([sys.executable, "-c", "pass"])
    started = wall([sys.executable, "-c", "import cellkit.cli"])
    return {"cli.interpreter_s": bare, "cli.import_s": started - bare,
            # Interpreter start plus import, over that plus the median
            # handler time of the query mix.
            "cli.startup_share": started / (started + handler_ms / 1e3)}


def traced(workload: str, seed: int) -> dict:
    report, _, _ = worker(workload, seed, "trace")
    layers = report["layers"]
    layers.update(startup_probe(layers["cli.handler_ms"]))
    return {"attempted": report["attempted"], "failed": report["failed"],
            "failures": report["failures"], "metrics": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cellkit", "__init__.py")):
        print("error: no cellkit sources under src/cellkit; run from the "
              "root of a cellkit checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORKDIR, exist_ok=True)
    # Compile the sources once, so no timed start-up pays for bytecode.
    code, _, err, _, _ = spawn([sys.executable, "-c", "import cellkit.cli"])
    if code:
        print(f"error: cannot import cellkit:\n{err}", file=sys.stderr)
        return 2

    if args.trace:
        result = traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        result = measure(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]
        print(f"passes {result['passes']}, operations {result['ops']}; "
              f"op_tail_ms is p{result['tail_pct']:g} with "
              f"{result['tail_beyond']} samples beyond it")
        lo, mid, hi = result["factors"]
        print(f"times in reference seconds: speed factor median {mid:.4g} "
              f"(range {lo:.4g}-{hi:.4g}); unscaled run_s "
              f"{result['raw_run_s']:.6g} s")
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for msg in result["failures"][:20]:
        print(f"FAILED {msg}")
    metrics = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<40} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not result["failures"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
