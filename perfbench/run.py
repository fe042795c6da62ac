#!/usr/bin/env python3
"""The repository benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload er_web --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is the separate traced run that prints the
per-layer metrics and writes its spans to ``.bench_out/``.  Metric names and
units come from ``BENCHMARK.json``; see ``perfbench/BENCHMARK.md``.

Stdout holds two JSON lines: the run's detail (input fingerprint, the
workload's own named metrics with units, sample quartiles, gate failures),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness gate makes the exit code 1; a missing package, 2.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "liblevenshtein_rust_ray"
WORKLOADS = ("er_web", "er_dense")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} package under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # before numpy's first import here and before the raylet starts (every
    # worker inherits both): no THP madvise, and the checkout's package
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(1, ROOT)
    import liblevenshtein_rust_ray

    if not os.path.abspath(liblevenshtein_rust_ray.__file__).startswith(ROOT + os.sep):
        print(f"perfbench: {PACKAGE} imported from outside {ROOT}", file=sys.stderr)
        return 2

    from session import RssSampler
    from tracer import span_cost_s

    import er

    in_dir = os.path.join(ROOT, ".bench_inputs", f"{args.workload}-seed{args.seed}")
    try:
        with RssSampler() as rss:
            res = er.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    peak_rss_mb = rss.peak_bytes / 2**20
    failures = res["failures"]
    named = dict(res["named"], setup_s=(res["setup_s"], "s"),
                 peak_rss_mb=(peak_rss_mb, "MB"),
                 failed_ops_share=(len(failures) / res["attempted"], "ratio"))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": res["fingerprint"],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples": res["samples"],
        "setup": res["setup"],
        "failures": failures[:20],
    }

    if args.trace:
        layers, accounting = res["layers"]
        tracer = res["tracer"]
        layers["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
        detail["accounting"] = dict(accounting, trace_overhead_s=layers["trace.overhead_s"])
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        e2e = dict(res["e2e"], setup_s=res["setup_s"], peak_rss_mb=peak_rss_mb)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": res["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    if failures:
        print("perfbench: correctness gate failed:\n  " + "\n  ".join(failures[:20]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
