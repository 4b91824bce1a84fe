"""The `cellkit` query mix of the cli_queries workload, and its checks.

Generation needs cellkit (small random complexes come from
``cellkit.sampling``); the checks are plain Python so that the parent
process, which never imports cellkit, can run them on subprocess output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from math import gcd

PRIMES = (2, 3, 5, 7, 11, 13)


def write_queries(seed: int, workdir: str) -> list[list[str]]:
    """Write the payload files for ``seed`` and return one argv per query.

    Payload paths are relative to the checkout root, the working
    directory of every query.
    """
    from cellkit.sampling import random_complex, random_matrix

    rng = random.Random(f"cli_queries:{seed}")
    os.makedirs(workdir, exist_ok=True)
    snf_path = os.path.join(workdir, f"snf-{seed}.json")
    cx_path = os.path.join(workdir, f"complex-{seed}.json")
    m = random_matrix(rng, 5, 6, 9)
    x = random_complex(rng, max_degrees=5, max_rank=5)
    while x.is_zero:
        x = random_complex(rng, max_degrees=5, max_rank=5)
    with open(snf_path, "w", encoding="utf-8") as fh:
        json.dump({"matrix": m.to_json()}, fh)
    with open(cx_path, "w", encoding="utf-8") as fh:
        json.dump(x.to_json(), fh)
    a, b, c = (rng.randint(2, 60) for _ in range(3))
    p, q = rng.sample(PRIMES, 2)
    k = rng.randint(x.lo, x.hi)
    return [
        ["hom", "--a", f"Z/{a}", "--b", f"Z/{b}"],
        ["ext", "--a", f"Z/{b}+Z", "--b", f"Z/{c}"],
        ["snf", "--input", snf_path],
        ["homology", "--input", cx_path],
        ["cover", "--k", str(k), "--input", cx_path],
        ["acyclization", "--target", "HZ", "--outcome", "HZ_P",
         "--primes", f"{p},{q}"],
        ["em-cellularize", "--mode", "primary", "--m", str(rng.randint(-3, 3)),
         "--k", str(rng.randint(1, 5)), "--n", str(rng.randint(1, 5)),
         "--p", str(p)],
        ["ring-obstruction", f"--wedge=-1:Psum_(!{p},{q});0:Z_({p},{q})"],
        ["constraint-check", "--b", f"Z/{p}", "--c", f"Z/{p * q}",
         "--g", f"Z/{a}"],
        ["semiexact-demo", "--p", str(q)],
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _rows(m):
    c = m["cols"]
    return [m["data"][i * c:(i + 1) * c] for i in range(m["rows"])]


def _cyclic_text(n: int) -> str:
    return "0" if n == 1 else f"Z/{n}"


def check(queries, outputs, refs: list | None) -> list[str]:
    """Failures of one pass over the mix.

    ``outputs`` holds (exit code, stdout) per query.  ``refs`` holds the
    (exit code, stdout digest) pairs recorded for this seed, if any.
    Without them only invariants that need no reference are checked.
    """
    failures = []
    reports = []
    for argv, (code, out) in zip(queries, outputs):
        name = argv[0]
        try:
            report = json.loads(out) if code == 0 else None
        except json.JSONDecodeError:
            report = None
        if report is None or report.get("subcommand") != name:
            failures.append(f"{name}: exit {code}, no report")
        reports.append(report)
    if failures:
        return failures
    by_name = dict(zip((q[0] for q in queries), reports))
    hom, ext = by_name["hom"], by_name["ext"]
    a, b = hom["a"]["torsion"][0], hom["b"]["torsion"][0]
    if hom["text"] != _cyclic_text(gcd(a, b)):
        failures.append("hom: Hom(Z/a, Z/b) is not Z/gcd(a, b)")
    b2, c2 = ext["a"]["torsion"][0], ext["b"]["torsion"][0]
    if ext["text"] != _cyclic_text(gcd(b2, c2)):
        failures.append("ext: Ext(Z/b + Z, Z/c) is not Z/gcd(b, c)")
    snf = by_name["snf"]
    with open(queries[2][2], encoding="utf-8") as fh:
        m = json.load(fh)["matrix"]
    s = _rows(snf["s"])
    if _matmul(_matmul(_rows(snf["u"]), _rows(m)), _rows(snf["v"])) != s:
        failures.append("snf: u m v != s")
    diag = [d for d in snf["diagonal"] if d]
    if any(y % x for x, y in zip(diag, diag[1:])):
        failures.append("snf: diagonal is not a divisibility chain")
    with open(queries[3][2], encoding="utf-8") as fh:
        cx = json.load(fh)
    homology = by_name["homology"]["homology"]
    euler = sum((-1) ** int(n) * r for n, r in cx["ranks"].items())
    if sum((-1) ** int(n) * g["rank"] for n, g in homology.items()) != euler:
        failures.append("homology: Euler characteristic mismatch")
    k = int(queries[4][2])
    want = {n: g for n, g in homology.items() if int(n) >= k}
    if by_name["cover"]["homology"] != want:
        failures.append("cover: homology is not H_{>=k} of the input")
    if not by_name["semiexact-demo"]["verdict"]:
        failures.append("semiexact-demo: verdict false")
    if refs is not None:
        for argv, (code, out), (ref_code, ref_digest) in zip(
                queries, outputs, refs):
            if code != ref_code or digest(out) != ref_digest:
                failures.append(f"{argv[0]}: stdout differs from reference")
    return failures
