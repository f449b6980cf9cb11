"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Each measurement runs in a fresh process (``child.py``) with a fresh
``REPRO_ARTIFACTS`` under ``.perfbench/work``, BLAS pinned to one thread.
The work trees are kept after the run (see ``KEPT_RUNS``).

* ``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
  three processes' set-up: one that stops at the first timed op, the
  measured one, then another that stops there.  The other metrics come
  from the measured process.
* ``--trace 1`` runs the workload traced and prints its per-layer metrics,
  with the tracing overhead (traced minus untraced ``ops_per_s``) and the
  ``serve.<kind>.p50_ms`` latencies taken from the untraced reference: the
  untraced results of the same code and workload saved in this checkout,
  any seed (median), or, when there are none, an untraced process run
  after the traced one if it surely fits the deadline.  Without either the
  overhead reads 0 and ``params.trace_reference`` says it is unmeasured.

The last line of stdout is the result JSON.  The two lines before it hold
the per-op-kind latency table and the workload parameters, which are also
saved with the result under ``.perfbench/results``.  The program under test
is built from ``src/``; without it the script exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("vgg_sweep", "queue_mirror", "serve_rw")
#: BLAS thread pools pinned for every measured process (2-core boxes)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
#: every process of one run must end within this many seconds
RUN_DEADLINE_S = 175
#: a percentile is reported only with at least this many ops beyond it
OPS_BEYOND_PERCENTILE = 10
#: a traced run starts an untraced reference process only when at least
#: this many times the traced process's wall time is left
UNTRACED_MARGIN = 1.25
UNMEASURED = ("no untraced reference saved and no time left for one: "
              "trace.overhead_ops_per_s reads 0 (unmeasured)")


#: work trees of finished runs kept under .perfbench/work.  Deleting a
#: run's many files right after it slows the file I/O of the next runs by
#: 20-30% on a disk mounted with ``discard``, so trees are deleted only
#: when more than this many have piled up.
KEPT_RUNS = 100


class ChildFailed(RuntimeError):
    pass


def spawn(root: Path, work: Path, digests: Path, tag: str, args, mode: str,
          trace: int, deadline: float) -> dict:
    """Run one child process to completion and return its JSON output."""
    run_dir = work / tag
    (run_dir / "tmp").mkdir(parents=True)
    env = dict(os.environ, **BLAS_ENV,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
               REPRO_ARTIFACTS=str(run_dir / "artifacts"),
               TMPDIR=str(run_dir / "tmp"))
    out = run_dir / "result.json"
    log = run_dir / "log.txt"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--trace", str(trace), "--workdir", str(run_dir / "data"),
           "--statedir", str(root / ".perfbench"),
           "--digestdir", str(digests), "--out", str(out)]
    # the previous process's file writes must not be written back while
    # this one sets up
    os.sync()
    with open(log, "w") as log_file:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=env,
                                cwd=root, stdout=log_file,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0:
        tail = log.read_text()[-4000:]
        raise ChildFailed(f"{tag} ({mode}) exited with {code}:\n{tail}")
    return json.loads(out.read_text())


def prune_work(work_root: Path) -> None:
    """Delete the oldest run trees once more than ``KEPT_RUNS`` are kept."""
    if not work_root.is_dir():
        return
    runs = sorted(work_root.iterdir(), key=lambda p: p.stat().st_mtime)
    for old in runs[:max(0, len(runs) + 1 - KEPT_RUNS)]:
        shutil.rmtree(old, ignore_errors=True)


def percentile_ms(seconds: list, q: int) -> float:
    """The ``q``-th percentile of ``seconds``, in ms (0 for no values)."""
    if not seconds:
        return 0.0
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def kind_table(child: dict) -> dict:
    """Per op kind: count and p10/p50/p90 latency; plus the kind each
    overall percentile lands in (the op at that rank)."""
    kinds = {}
    for kind, sec in zip(child["kinds"], child["seconds"]):
        kinds.setdefault(kind, []).append(sec)
    table = {kind: {"n": len(values), **{f"p{q}_ms": percentile_ms(values, q)
                                         for q in (10, 50, 90)}}
             for kind, values in sorted(kinds.items())}
    ranked = sorted(zip(child["seconds"], child["kinds"]))
    landing = {f"p{q}": ranked[min(len(ranked) - 1, q * len(ranked) // 100)][1]
               for q in (50, 90)}
    return {"kinds": table, "landing": landing}


def end_to_end(child: dict, setup_s: float) -> tuple:
    seconds = child["seconds"]
    problems = list(child["problems"])
    p50 = percentile_ms(seconds, 50)
    p90 = percentile_ms(seconds, 90)
    beyond = sum(1 for s in seconds if s * 1e3 > p90)
    if beyond < OPS_BEYOND_PERCENTILE:
        problems.append(f"only {beyond} ops beyond p90 "
                        f"(need {OPS_BEYOND_PERCENTILE})")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(seconds) / child["timed_s"],
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return metrics, problems


def per_layer(traced: dict, reference: list) -> tuple:
    """Per-layer metrics of the traced process; ``reference`` holds
    ``(ops_per_s, kind table)`` of untraced runs of the same workload
    (none: the overhead and the ``serve.*`` latencies read 0)."""
    layers = dict(traced["layers"])
    for kind in ("write", "report_cold", "report_304", "query_pushdown",
                 "query_agg", "curves", "summary"):
        values = [table[kind]["p50_ms"] for _, table in reference
                  if kind in table]
        layers[f"serve.{kind}.p50_ms"] = (
            statistics.median(values) if values else 0.0)
    conditional = traced["kinds"].count("report_304")
    not_modified = sum(1 for k, ok in zip(traced["kinds"], traced["ok"])
                       if k == "report_304" and ok)
    layers["serve.not_modified_ratio"] = (
        not_modified / conditional if conditional else 0.0)
    layers["trace.overhead_ops_per_s"] = (
        len(traced["seconds"]) / traced["timed_s"]
        - statistics.median(rate for rate, _ in reference)
        if reference else 0.0)
    return layers, list(traced["problems"])


#: parameters that identify a run rather than its workload
IDENTITY = ("seed", "passes", "ops", "trace", "trace_reference")
#: fields of a sweep grid that the workloads derive from the seed
SEEDED_GRID = ("seeds", "pretrain_seed")


def comparable(params: dict, ignore=IDENTITY) -> dict:
    """``params`` without the fields that differ between runs of the same
    workload: those in ``ignore`` and the seed-derived grid fields."""
    out = {k: v for k, v in params.items() if k not in ignore}
    if isinstance(out.get("grid"), dict):
        grid = {k: v for k, v in out["grid"].items() if k not in SEEDED_GRID}
        grid["dataset_kwargs"] = {
            k: v for k, v in grid.get("dataset_kwargs", {}).items()
            if k != "seed"}
        out["grid"] = grid
    return out


def saved_untraced(results: Path, params: dict) -> list:
    """``(ops_per_s, kind table)`` of the correct untraced results saved
    here, of any seed, whose other parameters (source hash included) match
    ``params``."""
    out = []
    for path in sorted(results.glob(f"{params['workload']}-seed*-trace0-*.json")):
        saved = json.loads(path.read_text())
        if saved["correct"] and comparable(saved["params"]) == comparable(params):
            out.append((saved["metrics"]["ops_per_s"]["value"], saved["kinds"]))
    return out


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    """Parameters of the machine and of the trees under test."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(),
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "git_commit": commit,
            "src_sha256": tree_hash(root / "src"),
            "bench_sha256": tree_hash(HERE)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    state = root / ".perfbench"
    results = state / "results"
    prune_work(state / "work")
    work = state / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = environment(root)
    # the same-seed row check compares runs of the same code only
    digests = state / "digests" / env["src_sha256"][:16]

    def run_params(child: dict) -> dict:
        return {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "passes": child["passes"], "ops": len(child["ok"]),
                **child["params"], **env}

    try:
        if args.trace:
            started = time.monotonic()
            main_child = spawn(root, work, digests, "traced", args, "run", 1,
                               deadline)
            traced_wall = time.monotonic() - started
            params = run_params(main_child)
            reference = saved_untraced(results, params)
            params["trace_reference"] = f"{len(reference)} saved untraced runs"
            # an untraced process takes less than the traced one; start it
            # only when it surely ends before the deadline
            if not reference and (deadline - time.monotonic()
                                  > UNTRACED_MARGIN * traced_wall):
                base = spawn(root, work, digests, "untraced", args, "run", 0,
                             deadline)
                reference = [(len(base["seconds"]) / base["timed_s"],
                              kind_table(base)["kinds"])]
                params["trace_reference"] = "1 untraced run after this one"
            elif not reference:
                params["trace_reference"] = UNMEASURED
                print(f"run.py: {UNMEASURED}", file=sys.stderr)
            metrics, problems = per_layer(main_child, reference)
        else:
            # set-up samples on both sides of the measured process, so
            # that they see more than one state of a shared machine
            def setup_sample(i):
                return spawn(root, work, digests, f"setup-{i}", args, "setup",
                             0, deadline)["setup_s"]

            before = SETUP_SAMPLES // 2
            setup_samples = [setup_sample(i) for i in range(before)]
            main_child = spawn(root, work, digests, "run", args, "run", 0,
                               deadline)
            setup_samples.append(main_child["setup_s"])
            setup_samples += [setup_sample(i)
                              for i in range(before, SETUP_SAMPLES - 1)]
            params = run_params(main_child)
            metrics, problems = end_to_end(
                main_child, statistics.median(setup_samples))
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    kinds = kind_table(main_child)
    failed = sum(1 for ok in main_child["ok"] if not ok) + main_child["not_run"]
    attempted = len(main_child["ok"]) + main_child["not_run"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        # every metric BENCHMARK.json lists for this mode, in its units
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps({**result, "params": params, "problems": problems,
                              **kinds}, indent=1))
    for problem in problems:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print("kinds " + json.dumps(kinds, sort_keys=True))
    print("params " + json.dumps(params, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
