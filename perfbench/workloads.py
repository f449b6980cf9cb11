"""The benchmark's three workloads.

Each workload builds its inputs from the run's seed, sets up once, then
runs passes of fixed work until the run's seconds are spent (at least one
pass).  Every op is timed from outside through the public API of ``repro``
and recorded in :class:`Ops`; ``check`` verifies the outputs afterwards and
marks the ops whose output was wrong as failed.

* ``vgg_sweep`` — a Fig. 7-style CIFAR-VGG sweep (compute stack).
* ``queue_mirror`` — one in-process queue worker draining tiny cells into a
  column-store mirror (queue, cache and store writes).
* ``serve_rw`` — a closed-loop HTTP client against the results server while
  keyed segments land in its store (store reads, analysis, serve).
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import time
from pathlib import Path

import numpy as np

from repro import analysis, experiment, fleet, serve, store
from repro.analysis import report as analysis_report
from repro.analysis.query import compile_query
from repro.experiment.cache import iter_cache_entries

#: Fig. 7's five strategies
PAPER_STRATEGIES = ("global_weight", "layer_weight", "global_gradient",
                    "layer_gradient", "random")


class Ops:
    """Kind, seconds and outcome of every op in the timed phase.  With a
    tracer attached, the op's index tags the spans recorded while it runs,
    and ``END_OF_RUN`` the spans of timed work between ops."""

    END_OF_RUN = -1

    def __init__(self, tracer=None) -> None:
        self.kinds = []
        self.seconds = []
        self.ok = []
        self.not_run = 0  # ops a failure kept from starting
        self.tracer = tracer

    def start(self, kind: str) -> int:
        self.kinds.append(kind)
        self.ok.append(True)
        self.seconds.append(-time.perf_counter())
        index = len(self.kinds) - 1
        if self.tracer is not None:
            self.tracer.op = index
        return index

    def stop(self, index: int, ok: bool = True) -> None:
        self.seconds[index] += time.perf_counter()
        self.ok[index] = self.ok[index] and ok
        if self.tracer is not None:
            self.tracer.op = self.END_OF_RUN

    def discard(self, index: int) -> None:
        """Drop the last op (a call that turned out to do no work)."""
        assert index == len(self.kinds) - 1
        del self.kinds[index], self.seconds[index], self.ok[index]
        if self.tracer is not None:
            self.tracer.op = self.END_OF_RUN

    def fail(self, indices) -> None:
        for index in indices:
            self.ok[index] = False


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _row_fields(record: dict) -> dict:
    fields = experiment.PruningResult.__dataclass_fields__
    return {name: record.get(name) for name in fields}


class VggSweep:
    """CIFAR-VGG (width 0.25, 16 px synthetic CIFAR-10) swept over the five
    paper strategies × {2,4,8,16,32} × 4 seeds = 100 cells with a cold
    cache on the serial executor, then stored and reported."""

    name = "vgg_sweep"
    seeds_per_run = 4
    #: |actual / target - 1| allowed for a pruned row's compression
    compression_tolerance = 0.02

    def __init__(self, seed: int, workdir: Path, digestdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.digestdir = digestdir
        self.tracer = tracer
        train = experiment.TrainConfig
        opt = experiment.OptimizerConfig
        self.config = experiment.SweepConfig(
            model="cifar-vgg",
            dataset="cifar10",
            strategies=PAPER_STRATEGIES,
            compressions=(2, 4, 8, 16, 32),
            seeds=tuple(seed * self.seeds_per_run + i
                        for i in range(self.seeds_per_run)),
            model_kwargs=dict(width_scale=0.25, input_size=16),
            dataset_kwargs=dict(n_train=128, n_val=64, size=16, seed=seed),
            pretrain=train(epochs=2, batch_size=32, optimizer=opt("adam", 1e-3),
                           early_stop_patience=None),
            finetune=train(epochs=1, batch_size=64, optimizer=opt("adam", 3e-4),
                           early_stop_patience=None),
            pretrain_seed=seed,
        )
        self.specs = self.config.expand()
        self.passes = []

    def setup(self) -> None:
        """Pretrain the shared checkpoint every cell loads."""
        span = (self.tracer.span("setup.pretrain") if self.tracer
                else contextlib.nullcontext())
        with span:
            experiment.PruningExperiment(self.specs[0]).load_pretrained()

    def prepare_pass(self, k: int) -> None:
        pass

    def run_pass(self, k: int, ops: Ops) -> None:
        root = self.workdir / f"pass-{k}"
        started = []

        def on_event(event) -> None:
            if event.kind == "start":
                spec = self.specs[len(started)]
                started.append(ops.start(spec.strategy))
            elif event.kind in ("done", "failed"):
                ops.stop(started[-1], ok=event.kind == "done")

        record = {"ops": started, "rows": None, "error": None}
        self.passes.append(record)
        try:
            rows = experiment.SerialExecutor(
                cache=experiment.ResultCache(root / "cache"), on_event=on_event,
            ).run(self.specs)
            column_store = store.ColumnStore(root / "store")
            column_store.append_rows(
                rows, keys=[experiment.spec_hash(s) for s in self.specs])
            # the incremental builder may be folded into build_report later;
            # the full builder over the stored frame gives the same report
            from_store = getattr(analysis_report, "build_report_from_store",
                                 None)
            record["report"] = (
                from_store(column_store) if from_store is not None
                else analysis.build_report(column_store.to_frame()))
            record["rows"] = rows
        except Exception as exc:  # a failed cell fails the rest of the pass
            record["error"] = repr(exc)

    def check(self, ops: Ops) -> list:
        problems = []
        for record in self.passes:
            rows, started = record["rows"], record["ops"]
            if rows is None or len(rows) != len(self.specs):
                problems.append(f"sweep failed: {record['error']}")
                ops.not_run += len(self.specs) - len(started)
                ops.fail(started)
                continue
            report = record["report"]
            if report.n_rows != len(rows) or report.n_failed:
                problems.append(f"report has {report.n_rows} rows, "
                                f"{report.n_failed} failed")
                ops.fail(started)
            digests = [_digest(row.to_dict()) for row in rows]
            known = self._known_digests(digests)
            for i, (spec, row) in enumerate(zip(self.specs, rows)):
                ratio = row.actual_compression / spec.compression
                if abs(ratio - 1) > self.compression_tolerance:
                    problems.append(f"cell {i}: compression "
                                    f"{row.actual_compression} for {spec.compression}")
                    ops.fail([started[i]])
                if digests[i] != known[i]:
                    problems.append(f"cell {i}: row differs from an earlier "
                                    "run of the same seed")
                    ops.fail([started[i]])
        return problems

    def _known_digests(self, digests: list) -> list:
        """Row digests of the first run of this code (``digestdir`` is
        per source tree) with this seed and grid; written now if this is
        that run."""
        path = self.digestdir / (
            f"{self.name}-seed{self.seed}-{_digest(self.params())[:12]}.json")
        if path.is_file():
            return json.loads(path.read_text())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests))
        return digests

    def params(self) -> dict:
        return {"grid": self.config.to_dict(), "cells": len(self.specs)}

    def layer_figures(self) -> dict:
        return _store_figures(self.workdir / "pass-0" / "store")

    def close(self) -> None:
        pass


class QueueMirror:
    """The ``lenet-300-100`` 8 px micro-cell grid drained by one
    in-process ``QueueWorker`` with a ``ColumnStore`` mirror.  Per-cell
    overhead dominates, and each mirrored row adds a store segment."""

    name = "queue_mirror"
    #: a pass (~4 s) is a fraction of a run, so the slow late-pass ops
    #: that set p90 come from several passes, not one window of the run
    cells = 100
    strategies = ("global_weight", "random")

    def __init__(self, seed: int, workdir: Path, digestdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.passes = []
        seeds = (2 * seed, 2 * seed + 1)
        points = -(-self.cells // (len(self.strategies) * len(seeds)))
        train = experiment.TrainConfig(
            epochs=1, batch_size=32,
            optimizer=experiment.OptimizerConfig("sgd", 0.01),
            early_stop_patience=None)
        self.grid = dict(
            model="lenet-300-100",
            dataset="cifar10",
            strategies=self.strategies,
            # distinct ratios > 1, well under the 8 px LeNet's reachable cap
            compressions=tuple(1.05 + 0.05 * i for i in range(points)),
            seeds=seeds,
            model_kwargs=dict(input_size=8, in_channels=3),
            dataset_kwargs=dict(n_train=32, n_val=16, size=8, noise=0.5,
                                seed=seed),
            pretrain=train,
            finetune=train,
            pretrain_seed=seed,
            executor="queue",
        )

    def _dirs(self, k: int):
        root = self.workdir / f"pass-{k}"
        return root / "queue", root / "store"

    def setup(self) -> None:
        self.prepare_pass(0)

    def prepare_pass(self, k: int) -> None:
        """Plan pass ``k``'s queue (``fleet plan``)."""
        queue_dir, _ = self._dirs(k)
        config = experiment.SweepConfig(
            **self.grid, executor_options={"queue_dir": str(queue_dir)})
        fleet.fleet_plan(config, queue_dir, batch_size=128)

    def run_pass(self, k: int, ops: Ops) -> None:
        queue_dir, store_dir = self._dirs(k)
        worker = experiment.QueueWorker(
            experiment.WorkQueue(queue_dir),
            experiment.ResultCache(queue_dir / "cache"),
            worker_id="bench-0",
            heartbeat_interval=None,  # no background thread in a timed op
            store=store.ColumnStore(store_dir),
        )
        started = []
        record = {"ops": started, "audit": None, "error": None}
        self.passes.append(record)
        while True:
            index = ops.start("cell")
            try:
                claimed = worker.run_once()
            except Exception as exc:  # a failed op; it ends the pass
                ops.stop(index, ok=False)
                started.append(index)
                record["error"] = f"run_once raised {exc!r}"
                break
            if not claimed:
                ops.discard(index)
                break
            ops.stop(index)
            started.append(index)
        try:
            record["audit"], _ = fleet.verify_fleet(queue_dir,
                                                    store_dir=store_dir)
        except Exception as exc:
            record["error"] = record["error"] or f"verify_fleet raised {exc!r}"

    def check(self, ops: Ops) -> list:
        problems = []
        for k, record in enumerate(self.passes):
            queue_dir, store_dir = self._dirs(k)
            started = record["ops"]
            if record["error"] is not None:
                problems.append(record["error"])
                ops.fail(started)
                pending = experiment.WorkQueue(queue_dir).counts()["pending"]
                ops.not_run += pending
                continue
            if not record["audit"].clean:
                problems.append(f"verify_fleet: {record['audit'].problems()}")
                ops.fail(started)
            done = experiment.WorkQueue(queue_dir).counts()["done"]
            if done != len(started):
                problems.append(f"{len(started)} claims, {done} cells done")
                ops.fail(started[done:] or started)
            cached = dict(iter_cache_entries(queue_dir / "cache"))
            column_store = store.ColumnStore(store_dir)
            stored = sorted(_digest(_row_fields(r))
                            for r in column_store.to_frame().to_records())
            expected = sorted(_digest(_row_fields(r)) for r in cached.values())
            if column_store.keys() != set(cached) or stored != expected:
                problems.append("store rows differ from the cache's rows")
                ops.fail(started)
        return problems

    def params(self) -> dict:
        return {"grid": experiment.SweepConfig(**self.grid).to_dict(),
                "cells": self.cells, "worker": "in-process"}

    def layer_figures(self) -> dict:
        return _store_figures(self._dirs(0)[1])

    def close(self) -> None:
        pass


def _store_figures(root: Path) -> dict:
    column_store = store.ColumnStore(root)
    if not column_store.exists():
        return {"store.segments": 0, "store.manifest_kb": 0.0}
    return {"store.segments": len(column_store.segments()),
            "store.manifest_kb": column_store.manifest_path.stat().st_size / 1e3}


class ServeRW:
    """A closed-loop client on one keep-alive connection against an
    in-process ``ResultsServer`` over a seed-clustered keyed store, with a
    keyed 1% segment appended (and explicitly reloaded) every round."""

    name = "serve_rw"
    rows = 20_000
    segments = 16
    seed_values = 64
    write_rows = 200
    #: one round: a write, a cold /report, ``blocks`` × ``block``, then
    #: /curves and /summary.  Latencies order the kinds as report_304 <
    #: query_pushdown < query_agg ≈ curves ≈ summary < write < report_cold,
    #: so with these counts p50 (rank 30 of 60) falls inside the pushdown
    #: ops (ranks 13-42) and p90 (rank 54) inside the aggregate band
    #: (ranks 43-58), away from the steps between kinds.
    blocks = 2
    block = (("report_304", 6), ("query_pushdown", 15), ("query_agg", 7))

    STRATEGIES = PAPER_STRATEGIES
    COMPRESSIONS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

    def __init__(self, seed: int, workdir: Path, digestdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.store_dir = workdir / "store"
        self.next_key = 0
        self.round = 0
        self.last_round = {}
        self.errors = []  # ops that raised
        self.conn = None
        self.server = None

    # -- inputs ---------------------------------------------------------
    def _records(self, n: int, seeds: np.ndarray) -> tuple:
        rng = self.rng
        strategy = rng.integers(0, len(self.STRATEGIES), n)
        compression = np.asarray(self.COMPRESSIONS)[
            rng.integers(0, len(self.COMPRESSIONS), n)]
        top1 = rng.uniform(0.3, 0.9, n)
        records = []
        for i in range(n):
            c = float(compression[i])
            records.append({
                "model": "cifar-vgg", "dataset": "cifar10",
                "strategy": self.STRATEGIES[strategy[i]], "compression": c,
                "seed": int(seeds[i]),
                "actual_compression": c * float(rng.uniform(0.98, 1.02)),
                "theoretical_speedup": c * float(rng.uniform(0.5, 0.9)),
                "total_params": 590_000, "nonzero_params": int(590_000 / c),
                "dense_flops": 1.9e7, "effective_flops": 1.9e7 / c,
                "baseline_top1": float(min(top1[i] + 0.05, 1.0)),
                "baseline_top5": float(rng.uniform(0.8, 1.0)),
                "pre_finetune_top1": float(rng.uniform(0.1, 0.9)),
                "pre_finetune_top5": float(rng.uniform(0.5, 1.0)),
                "top1": float(top1[i]), "top5": float(rng.uniform(0.7, 1.0)),
                "pretrained_key": f"bench-{self.seed}",
                "finetune_epochs_ran": int(rng.integers(1, 30)),
                "extra": {"kernel_backend": "reference"},
            })
        keys = [f"{self.seed:04x}{self.next_key + i:012x}" for i in range(n)]
        self.next_key += n
        return records, keys

    def _cluster_seeds(self, cluster: int, n: int) -> np.ndarray:
        width = self.seed_values // self.segments
        return np.sort(self.rng.integers(cluster * width,
                                         (cluster + 1) * width, n))

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        """Build the store, start the server (which loads the first
        snapshot) and open the client connection."""
        column_store = store.ColumnStore(self.store_dir)
        per_segment = self.rows // self.segments
        for cluster in range(self.segments):
            records, keys = self._records(
                per_segment, self._cluster_seeds(cluster, per_segment))
            column_store.append_frame(
                analysis.ResultFrame.from_records(records), keys=keys)
        self.store = column_store
        self.source = serve.FrameSource("sweep", self.store_dir)
        self.server = serve.ResultsServer([self.source], reload_interval=0)
        self.server.start()
        self._connect()

    def _connect(self) -> None:
        if self.conn is not None:
            self.conn.close()
        self.conn = http.client.HTTPConnection(self.server.host,
                                               self.server.port)

    def _request(self, method, path, body=None, etag=None):
        """``(status, etag, body)``; a request that raises answers status
        0 (a failed op) on a fresh connection."""
        headers = {"Content-Type": "application/json"} if body else {}
        if etag is not None:
            headers["If-None-Match"] = etag
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.errors.append(f"{method} {path} raised {exc!r}")
            self._connect()
            return 0, None, b""
        return response.status, response.getheader("ETag"), payload

    def prepare_pass(self, k: int) -> None:
        pass

    def run_pass(self, k: int, ops: Ops) -> None:
        """One round of the mix (see ``blocks``)."""
        cluster = self.round % self.segments
        width = self.seed_values // self.segments
        rounds = {}

        i = ops.start("write")
        records, keys = self._records(
            self.write_rows, self._cluster_seeds(cluster, self.write_rows))
        try:
            self.store.append_rows(records, keys=keys)
            reloaded = self.source.maybe_reload()
        except Exception as exc:
            self.errors.append(f"write raised {exc!r}")
            reloaded = False
        ops.stop(i, ok=reloaded)

        i = ops.start("report_cold")
        status, etag, body = self._request("GET", "/report")
        ops.stop(i, ok=status == 200 and etag is not None)
        rounds["report"] = (i, body)

        pushdown_seed = int(cluster * width + self.round // self.segments % width)
        pushdown = json.dumps({
            "filter": {"seed": {"op": "==", "value": pushdown_seed}},
            "columns": ["strategy", "compression", "seed", "top1"],
            "limit": 100,
        })
        aggregate = json.dumps({
            "aggregate": {"by": ["strategy", "compression"],
                          "values": ["top1"]},
        })
        docs = {"query_pushdown": pushdown, "query_agg": aggregate}
        rounds["queries"] = []
        for _ in range(self.blocks):
            for kind, repeats in self.block:
                for _ in range(repeats):
                    j = ops.start(kind)
                    if kind == "report_304":
                        status, tag, _ = self._request("GET", "/report",
                                                       etag=etag)
                        ops.stop(j, ok=status == 304 and tag == etag)
                        continue
                    status, _, body = self._request("POST", "/query",
                                                    body=docs[kind])
                    ops.stop(j, ok=status == 200)
                    if status == 200:
                        rounds["queries"].append((j, docs[kind], body))
        for kind, path in (("curves", "/curves"), ("summary", "/summary")):
            j = ops.start(kind)
            status, _, _ = self._request("GET", path)
            ops.stop(j, ok=status == 200)
        self.last_round = rounds
        self.round += 1

    def check(self, ops: Ops) -> list:
        """The last round ran on the final generation: its /report and
        /query answers must equal the full-scan oracles on that frame."""
        problems = list(self.errors)
        frame = self.store.to_frame()
        expected = analysis.report_json_text(analysis.build_report(frame))
        index, body = self.last_round["report"]
        if body.decode() != expected:
            problems.append("/report differs from build_report(to_frame())")
            ops.fail([index])
        envelope = ("frame", "fingerprint", "generation")
        oracle = {}
        for index, doc, body in self.last_round["queries"]:
            if doc not in oracle:
                # through the server's JSON dialect and back
                result = compile_query(json.loads(doc)).apply(frame)
                oracle[doc] = json.dumps(
                    json.loads(json.dumps(result, default=float)),
                    sort_keys=True)
            got = {k: v for k, v in json.loads(body).items()
                   if k not in envelope}
            if json.dumps(got, sort_keys=True) != oracle[doc]:
                problems.append(f"/query {doc} differs from Query.apply")
                ops.fail([index])
        return problems

    def params(self) -> dict:
        return {"rows": self.rows, "segments": self.segments,
                "seed_values": self.seed_values, "write_rows": self.write_rows,
                "round": {"blocks": self.blocks,
                          "block": [list(m) for m in self.block],
                          "once": ["write", "report_cold", "curves",
                                   "summary"]},
                "client": "closed loop, 1 keep-alive connection"}

    def layer_figures(self) -> dict:
        plan = self.store.scan_plan(where={"seed": {"op": "==", "value": 0}})
        skipped = plan["segments_total"] - plan["segments_selected"]
        return {**_store_figures(self.store_dir),
                "store.scan.skipped_ratio": skipped / plan["segments_total"]}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
        if self.server is not None:
            self.server.stop()


WORKLOADS = {w.name: w for w in (VggSweep, QueueMirror, ServeRW)}
