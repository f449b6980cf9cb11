"""Steadiness self-check and result comparison for the benchmark.

``python3 perfbench/steady.py check --workload W [--runs K] [--seed S]
[--sets M]`` runs ``run.py`` K times on one workload, seeds S..S+K-1, and
prints for each end-to-end metric (``setup_s`` included) its median and
quartile spread (q3 - q1, as a share of the median) against the bound in
BENCHMARK.json, then a per-op-kind latency table showing which kind p50
and p90 land in on each run.  With M > 1 it repeats that M times and prints
how far each later set's medians drift, in the worse direction, from the
first set's.  It exits 1 when a run is incorrect, a spread exceeds its
bound or a median drifts past it.  Run it from the checkout root.

``python3 perfbench/steady.py compare A.json B.json`` compares two results
saved under ``.perfbench/results`` and refuses when their workload
parameters differ (seed and the hashes of the trees excepted).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import IDENTITY, comparable

HERE = Path(__file__).resolve().parent


def bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    kinds = json.loads(next(line[6:] for line in lines if line.startswith("kinds ")))
    return json.loads(lines[-1]), kinds


def quartile_spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def spread_table(spec: dict, results: list) -> tuple:
    """Print each end-to-end metric's median and quartile spread against
    its bound; return the medians and whether every spread is within its
    bound."""
    ok = True
    medians = {}
    print(f"\n{'metric':<14}{'median':>12}{'q-spread':>10}{'bound':>8}"
          f"{'bound/3':>9}  verdict")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median, spread = quartile_spread(values)
        medians[metric["name"]] = median
        bound = metric["bound"]
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "TOO NOISY")
        ok = ok and spread <= bound
        print(f"{metric['name']:<14}{median:>12.4g}{spread:>10.1%}"
              f"{bound:>8.0%}{bound / 3:>9.1%}  {verdict}")
    return medians, ok


def kind_summary(tables: list) -> None:
    """Per-op-kind latencies (medians over the runs) and the kinds the
    overall p50 and p90 land in."""
    print(f"\n{'op kind':<16}{'ops/run':>8}{'p10 ms':>10}{'p50 ms':>10}"
          f"{'p90 ms':>10}")
    for kind in sorted(tables[0]["kinds"]):
        rows = [t["kinds"][kind] for t in tables if kind in t["kinds"]]
        med = lambda key: statistics.median(r[key] for r in rows)  # noqa: E731
        print(f"{kind:<16}{med('n'):>8.0f}{med('p10_ms'):>10.2f}"
              f"{med('p50_ms'):>10.2f}{med('p90_ms'):>10.2f}")
    for q in ("p50", "p90"):
        landing = [t["landing"][q] for t in tables]
        counts = {k: landing.count(k) for k in sorted(set(landing))}
        print(f"{q} lands in: {counts}")


def check(args) -> int:
    spec = bench_spec()
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    set_medians = []
    for n in range(args.sets):
        print(f"== set {n + 1} of {args.sets}", flush=True)
        results, tables = [], []
        for seed in range(args.seed, args.seed + args.runs):
            result, kinds = run_once(args.workload, seed, seconds)
            results.append(result)
            tables.append(kinds)
            print(f"seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        ok = ok and all(r["correct"] for r in results)
        medians, within = spread_table(spec, results)
        ok = ok and within
        set_medians.append(medians)
        kind_summary(tables)
    if len(set_medians) > 1:
        # how much worse each later set's median is than the first's
        print(f"\n{'metric':<14}{'worst drift':>12}{'bound':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = set_medians[0][name]
            drift = max((m[name] - first) / first if metric["better"] == "lower"
                        else (first - m[name]) / first
                        for m in set_medians[1:])
            ok = ok and drift <= bound
            print(f"{name:<14}{drift:>12.1%}{bound:>8.0%}  "
                  + ("ok" if drift <= bound else "DRIFTS PAST BOUND"))
    return 0 if ok else 1


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    # the two sides may be different trees
    ignore = IDENTITY + ("git_commit", "src_sha256", "bench_sha256")
    pa, pb = comparable(a["params"], ignore), comparable(b["params"], ignore)
    if pa != pb:
        diff = sorted(k for k in set(pa) | set(pb) if pa.get(k) != pb.get(k))
        print(f"refusing to compare: workload parameters differ in {diff}",
              file=sys.stderr)
        return 2
    print(f"{'metric':<28}{'A':>12}{'B':>12}{'B/A':>8}")
    for name, value in a["metrics"].items():
        va, vb = value["value"], b["metrics"][name]["value"]
        ratio = vb / va if va else float("nan")
        print(f"{name:<28}{va:>12.4g}{vb:>12.4g}{ratio:>8.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("check", help="run one workload K times")
    c.add_argument("--workload", required=True)
    c.add_argument("--runs", type=int, default=5)
    c.add_argument("--sets", type=int, default=1,
                   help="repeat the K runs this many times and compare "
                        "each set's medians with the first's")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    c.set_defaults(func=check)
    p = sub.add_parser("compare", help="compare two saved results")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
