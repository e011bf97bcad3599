"""Traced replay of ``repro-tpiin mine`` with default flags, stage by stage.

Run in a fresh interpreter by the traced benchmark run::

    PYTHONPATH=src python benchmarks/e2e/mine_stages.py ARCS NODES OUT_DIR SPANS_JSON

It makes the same calls, in the same order, as ``mine`` does and opens a
span around each: the CLI module import (timed at module level, so it
is the cost every invocation pays), CSV read, validation, detection,
the first full pass over the groups (``summary()``), the sus files and
``detection.json``.  Each span carries the process's peak RSS when it
closed.  Spans and output counts are written to SPANS_JSON.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import repro.cli  # noqa: E402,F401  (timed: every invocation pays this import)

_IMPORT_END = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from measure import vm_hwm_mb  # noqa: E402
from spans import Recorder  # noqa: E402

from repro.io.edge_list_io import read_tpiin_csv  # noqa: E402
from repro.io.results_io import write_detection_json  # noqa: E402
from repro.mining.detector import detect  # noqa: E402


def main(argv: list[str]) -> int:
    arcs, nodes, out_dir, spans_path = (Path(a) for a in argv)
    recorder = Recorder("mine-stages")
    pid = os.getpid()
    recorder.add("cli.import", _IMPORT_START, _IMPORT_END, rss_mb=vm_hwm_mb(pid))
    with recorder.span("io.read_tpiin_csv") as span:
        tpiin = read_tpiin_csv(arcs, nodes)
        span.attrs["rss_mb"] = vm_hwm_mb(pid)
    with recorder.span("fusion.validate") as span:
        tpiin.validate()
        span.attrs["rss_mb"] = vm_hwm_mb(pid)
    with recorder.span("mining.detect") as span:
        result = detect(tpiin, engine="faithful")
        span.attrs["rss_mb"] = vm_hwm_mb(pid)
    with recorder.span("mining.materialize") as span:
        summary = result.summary()
        span.attrs["rss_mb"] = vm_hwm_mb(pid)
    with recorder.span("io.write_sus_files") as span:
        result.write_files(out_dir)
        span.attrs["rss_mb"] = vm_hwm_mb(pid)
    with recorder.span("io.write_detection_json") as span:
        write_detection_json(result, out_dir / "detection.json")
        span.attrs["rss_mb"] = vm_hwm_mb(pid)
    payload = {
        "spans": recorder.to_dicts(),
        "summary": summary,
        "groups": result.group_count,
        "suspicious_arcs": result.suspicious_arc_count,
        "output_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
    }
    spans_path.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
