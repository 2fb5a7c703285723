"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mining-1m --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with ``repro.obs`` off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics, writes its spans to ``perfbench/out/`` and leaves the
end-to-end numbers alone.  ``--smoke`` shrinks every graph so the whole
matrix of workloads runs in seconds (the benchmark's own tests use it).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each with its unit, as named
in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Graph sizes per workload.  Smoke sizes only exercise the code paths.
FULL = {
    "mining-1m": {"nodes": 1 << 20, "edges": 4 << 20},
    "serve-mixed": {"nodes": 1 << 16, "edges": 1_150_000},
    "serve-dynamic": {"nodes": 1 << 16, "edges": 560_000},
}
SMOKE = {
    "mining-1m": {"nodes": 1 << 10, "edges": 4 << 10},
    "serve-mixed": {"nodes": 1 << 9, "edges": 6000},
    "serve-dynamic": {"nodes": 1 << 9, "edges": 3000},
}
SMOKE_COPY_BYTES = 8 << 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metric prefixes a workload leaves idle by design; they
#: are reported as 0 (no work done in that layer).
IDLE = {
    "mining-1m": ("serve.", "dynamic."),
    "serve-mixed": (
        "mining.", "dynamic.", "formats.", "tuner.", "gpu.", "host.",
        "exec.plan_build", "exec.spmv_",
    ),
    "serve-dynamic": (
        "mining.", "formats.", "tuner.", "gpu.", "host.",
        "exec.plan_build", "exec.spmv_",
    ),
}


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _workload(name):
    if name == "mining-1m":
        from mining_workload import run
    elif name == "serve-mixed":
        from serve_workloads import run_mixed as run
    else:
        from serve_workloads import run_dynamic as run
    return run


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        _fail(f"needs src/repro and BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    # One BLAS thread.  The library's finiteness probe is a BLAS dot on
    # every SpMV input; with a second OpenBLAS thread each call also
    # needs the other core, which doubled PageRank time on a 2-vCPU host
    # while that core was busy.  Must precede the first numpy import.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from harness import SpanLog, host_header, peak_rss_mb

    header = host_header()
    sizes = dict((SMOKE if args.smoke else FULL)[args.workload])
    sizes["copy_bytes"] = (
        SMOKE_COPY_BYTES if args.smoke
        else max(4 * (header["llc_bytes"] or 0), 64 << 20)
    )
    spans = SpanLog()
    result = _workload(args.workload)(
        sizes, args.seed, args.seconds, args.trace, spans
    )

    if args.trace:
        listed = spec["per_layer"]
        values = dict(result["layers"])
        idle = IDLE[args.workload]
        expected = {m["name"] for m in listed if not m["name"].startswith(idle)}
        if set(values) != expected:
            _fail(
                f"{args.workload} measured {sorted(set(values) ^ expected)} "
                "against BENCHMARK.json"
            )
        values.update({m["name"]: 0 for m in listed if m["name"] not in values})
    else:
        listed = spec["end_to_end"]
        values = dict(result["e2e"], peak_rss_mb=peak_rss_mb())
        if set(values) != {m["name"] for m in listed}:
            _fail(f"{args.workload} end-to-end metrics differ from "
                  "BENCHMARK.json")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("host " + json.dumps(header))
    print("report " + json.dumps(result["report"]))
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    if args.trace:
        spans.write(
            HERE / "out" / f"{args.workload}-seed{args.seed}.json",
            workload=args.workload, seed=args.seed, host=header,
            report=result["report"], metrics=metrics,
        )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
