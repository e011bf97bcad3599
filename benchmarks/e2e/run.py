"""End-to-end benchmark of the ``repro-tpiin`` product: ``mine`` CLI and ``serve`` daemon.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload densest720 --seed 1 --seconds 45 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 1      # every workload

Each run builds its inputs from ``--seed`` (and ``--gen-seed``), drives
the program as child processes, checks the answers, and prints one line
per metric (name, value, unit, sample count) followed, as the last line,
by one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the traced pass and reports its
per-layer metrics instead, and writes the spans under
``.e2e-bench/``.  See ``benchmarks/e2e/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK = ROOT / ".e2e-bench"
MANIFEST = ROOT / "BENCHMARK.json"
#: End-to-end metrics printed with the others but left out of the result
#: line and BENCHMARK.json, so no bound applies to them.  On a shared
#: 2-core host these millisecond latencies follow hypervisor steal and,
#: for ingest, queueing behind the daemon's snapshot stalls; between
#: runs of one commit each moved by more than any bound of at most 25%
#: allows.  ``import_s`` is a part of ``setup_s`` and ``mine_wall_s``,
#: printed on its own.  The open-loop ingest latencies come from the
#: traced pass, the only one that runs the single-arc phase.
UNGATED = {
    0: {"import_s", "lookup_p50_ms", "lookup_p99_ms"},
    1: {"ingest_p50_ms", "ingest_p99_ms"},
}
#: Files the benchmark drives or reuses; without them it refuses to run.
REQUIRED = (
    ROOT / "src" / "repro" / "cli.py",
    ROOT / "benchmarks" / "run_bench.py",
    ROOT / "benchmarks" / "bench_service_load.py",
    MANIFEST,
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="op-stream and row-order seed")
    parser.add_argument("--seconds", type=int, default=45, help="run budget: one round per 15 s, at least 3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--gen-seed", type=int, default=None, help="network generator seed (default: the tier's)"
    )
    return parser.parse_args(argv)


def run_workload(
    name: str, args: argparse.Namespace, manifest: dict[str, Any]
) -> dict[str, Any]:
    # The benchmark's own modules import repro, so they load only after
    # main() has put the checkout's source tree on sys.path.
    import product
    from spans import Recorder

    workload = product.WORKLOADS[name]
    gen_seed = workload.gen_seed if args.gen_seed is None else args.gen_seed
    workdir = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
    tally = product.Tally()
    metrics: dict[str, tuple[float, str, int]] = {}

    def report(metric: str, value: float, unit: str, samples: int) -> None:
        metrics[metric] = (value, unit, samples)

    try:
        inputs = product.make_inputs(
            workload, args.seed, gen_seed, workdir, WORK / "cache",
            singles=bool(args.trace),
        )
        if args.trace:
            recorder = Recorder(f"{name}-seed{args.seed}")
            product.traced_pass(inputs, tally, report, recorder)
            spans = recorder.write(WORK / f"spans-{name}-seed{args.seed}.jsonl")
            print(f"# spans: {spans.relative_to(ROOT)} ({len(recorder.spans)} spans)")
        else:
            product.product_pass(inputs, tally, report, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in manifest["per_layer" if args.trace else "end_to_end"]}
    ungated = UNGATED[args.trace]
    if not set(declared) <= set(metrics) <= set(declared) | ungated or any(
        metrics[n][1] != u for n, u in declared.items()
    ):
        raise RuntimeError(
            f"{name}: measured metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{sorted(declared)}"
        )
    for metric, (value, unit, samples) in metrics.items():
        tag = " (not in BENCHMARK.json)" if metric in ungated else ""
        print(f"{name:12s} {metric:34s} {value:14.6f} {unit:6s} n={samples}{tag}")
    print(
        f"{name:12s} {'error_rate':34s} {tally.error_rate:14.6f} ratio  "
        f"failed={tally.failed} attempted={tally.attempted}"
    )
    for problem in tally.problems:
        print(f"{name:12s} FAILED {problem}", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items() if m in declared
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the daemon and CLI children
    # are stopped by the same cleanup as on any other failure.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a repository checkout; missing {missing}", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    # Build step: byte-compile the source tree once so every timed
    # interpreter start reads cached bytecode.
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("error: source tree does not compile", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    selected = names if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, manifest) for name in selected}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
