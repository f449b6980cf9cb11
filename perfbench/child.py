"""One benchmark process: set up one workload, run its timed phase, check it.

``run.py`` starts this script in a fresh process per measurement, with a
fresh ``REPRO_ARTIFACTS``, and reads the JSON it writes to ``--out``.  With
``--mode setup`` the process stops at the first timed op (a set-up sample);
with ``--trace 1`` the layer wrappers of ``tracing.py`` are installed
before set-up and the per-layer figures are added to the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--statedir", type=Path, required=True)
    parser.add_argument("--digestdir", type=Path, required=True,
                        help="row digests of earlier runs of the same code")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    import numpy
    from repro.kernels import active_backend_name
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[args.workload](args.seed, args.workdir,
                                        args.digestdir, tracer)
    workload.setup()
    setup_s = time.monotonic() - args.spawned
    out = {"setup_s": setup_s}
    if args.mode == "run":
        ops = Ops(tracer)
        timed = 0.0
        passes = 0
        try:
            while passes == 0 or timed < args.seconds:
                if passes:
                    workload.prepare_pass(passes)
                # write back dirty pages now, not during the timed pass
                os.sync()
                if tracer is not None:
                    tracer.op = Ops.END_OF_RUN
                started = time.perf_counter()
                workload.run_pass(passes, ops)
                timed += time.perf_counter() - started
                if tracer is not None:
                    tracer.op = None
                passes += 1
            problems = workload.check(ops)
            figures = workload.layer_figures() if tracer is not None else {}
        finally:
            workload.close()
        out.update(
            timed_s=timed,
            passes=passes,
            kinds=ops.kinds,
            seconds=ops.seconds,
            ok=ops.ok,
            not_run=ops.not_run,
            problems=problems,
            # ru_maxrss is in KiB on Linux
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            params={
                **workload.params(),
                "kernel_backend": active_backend_name(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        )
        if tracer is not None:
            out["layers"] = {**tracing.layer_metrics(tracer, sum(ops.seconds)),
                             **figures}
            traces = args.statedir / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        workload.close()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
