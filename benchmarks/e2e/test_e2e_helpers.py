"""Tests of the benchmark's own helpers: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import measure  # noqa: E402
import product  # noqa: E402
from spans import Recorder  # noqa: E402

from repro.fusion.tpiin import TPIIN  # noqa: E402
from repro.io.results_io import write_sus_files  # noqa: E402
from repro.mining.detector import detect  # noqa: E402


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_nearest_rank_percentile_reports_observed_values() -> None:
    samples = list(range(100, 0, -1))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 90) == 90
    assert measure.percentile(samples, 99) == 99
    assert measure.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    ("count", "expected"),
    [(10_000, 99.9), (1000, 99.0), (999, 95.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count: int, expected: float | None) -> None:
    assert measure.highest_percentile(count) == expected
    if expected is not None:
        assert measure.beyond(count, expected) >= measure.TAIL_SAMPLES


def test_tail_refuses_a_percentile_without_ten_samples_beyond() -> None:
    assert measure.tail([float(i) for i in range(1000)], 99) == 989.0
    with pytest.raises(ValueError, match="have 999 .*highest supported: p95"):
        measure.tail([float(i) for i in range(999)], 99)
    with pytest.raises(ValueError):
        measure.tail([], 50)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_requests_from_their_due_time() -> None:
    clock = FakeClock()
    loop = measure.OpenLoop(rate=10.0, start=0.0)

    def send(index: int) -> None:
        clock.now += 0.30 if index == 1 else 0.05

    loop.run_slots(range(7), send, clock=clock, sleep=clock.sleep)
    # Slot 1 stalls 0.3 s; slots 2-5 are sent late and charged the wait
    # from their due time; slot 6 is on time again.
    assert loop.latencies == pytest.approx([0.05, 0.30, 0.25, 0.20, 0.15, 0.10, 0.05])
    assert loop.lateness == pytest.approx([0.0, 0.0, 0.2, 0.15, 0.1, 0.05, 0.0])


def test_open_loop_due_times_are_shared_by_interleaved_senders() -> None:
    loop = measure.OpenLoop(rate=4.0, start=100.0)
    assert [loop.due(i) for i in range(1, 8, 2)] == [100.25, 100.75, 101.25, 101.75]
    loop.record(3, sent=100.75, done=101.0)
    assert loop.lateness == [0.0] and loop.latencies == [0.25]


# ----------------------------------------------------------------------
# RSS capture
# ----------------------------------------------------------------------
ALLOCATE = "b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096])"


def test_wait4_reports_each_childs_own_peak() -> None:
    big = measure.run_child([sys.executable, "-c", ALLOCATE])
    small = measure.run_child([sys.executable, "-c", "pass"])
    assert big.maxrss_mb >= 96
    assert small.maxrss_mb < 64
    assert big.wall_s > 0


def test_child_peak_excludes_the_benchmarks_own_size() -> None:
    # A parent far larger than its child: the child's ru_maxrss must not
    # start at the parent's resident size.
    script = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import measure; {ALLOCATE}; "
        f"print(measure.run_child([sys.executable, '-c', 'pass']).maxrss_mb)"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert float(out.stdout) < 64


def test_run_child_raises_on_nonzero_exit(tmp_path: Path) -> None:
    log = tmp_path / "child.log"
    with pytest.raises(RuntimeError, match="exited 3: boom"):
        measure.run_child(
            [sys.executable, "-c", "import sys; print('boom'); sys.exit(3)"], log=str(log)
        )


def test_vm_hwm_reads_a_live_process_peak() -> None:
    child = subprocess.Popen(
        [sys.executable, "-c", f"import sys; {ALLOCATE}; del b; print('ready', flush=True); "
         "sys.stdin.read()"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert child.stdout is not None and child.stdout.readline() == "ready\n"
        assert measure.vm_hwm_mb(child.pid) >= 96
    finally:
        child.communicate("", timeout=30)
    assert measure.vm_hwm_mb(os.getpid()) > 0


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_intervals() -> None:
    clock = FakeClock()
    recorder = Recorder("t", clock=clock)
    with recorder.span("root") as root:
        clock.now = 1.0
        recorder.add("a", 1.0, 3.0)
        recorder.add("b", 2.0, 4.0)  # overlaps a: counted once
        clock.now = 10.0
    assert root.duration == 10.0
    assert recorder.self_time(root) == pytest.approx(7.0)
    assert [s.parent for s in recorder.spans] == [None, root.id, root.id]


def test_adopted_child_spans_hang_under_the_given_parent() -> None:
    recorder = Recorder("t")
    with recorder.span("outer") as outer:
        pass
    recorder.adopt(
        [
            {"id": 0, "name": "x", "start": 1.0, "end": 2.0, "parent": None, "attrs": {}},
            {"id": 1, "name": "y", "start": 1.5, "end": 1.7, "parent": 0, "attrs": {"k": 1}},
        ],
        outer,
    )
    x, y = recorder.named("x")[0], recorder.named("y")[0]
    assert x.parent == outer.id and y.parent == x.id and y.attrs == {"k": 1}
    assert recorder.total("y") == pytest.approx(0.2)
    assert {s.run for s in recorder.spans} == {"t"}


def test_spans_from_sender_threads_take_the_named_parent() -> None:
    recorder = Recorder("t")

    def sender() -> None:
        for _ in range(200):
            with recorder.span("request", parent=phase):
                with recorder.span("inner"):
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with recorder.span("phase") as phase:
            threads = [threading.Thread(target=sender) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    requests = recorder.named("request")
    assert len(requests) == 800 and {s.parent for s in requests} == {phase.id}
    assert [s.id for s in recorder.spans] == list(range(len(recorder.spans)))
    assert all(recorder.spans[s.parent].name == "request" for s in recorder.named("inner"))


# ----------------------------------------------------------------------
# references the checks compare against
# ----------------------------------------------------------------------
def _tiny() -> TPIIN:
    return TPIIN.build(
        persons=["P1", "P2"],
        companies=["C1", "C2", "C3", "C4"],
        influence=[("P1", "C1"), ("P1", "C3"), ("C1", "C2"), ("P2", "C4")],
        trading=[("C2", "C3"), ("C3", "C4")],
    )


def test_schedule_spreads_each_kind_of_sample_over_the_run() -> None:
    steps = product.schedule(45)
    assert steps == ["mine", "boot", "query", "mine", "restart", "query", "mine"]
    # Never fewer than three mine runs; one more per 15 s of budget.
    assert product.schedule(5) == steps
    longer = product.schedule(60)
    assert longer.count("mine") == 4 and longer.count("boot") == 2
    assert longer[-3:] == ["boot", "query", "mine"]


def test_sus_file_names_match_what_write_sus_files_writes(tmp_path: Path) -> None:
    result = detect(_tiny(), engine="faithful")
    written = {p.name for p in write_sus_files(result, tmp_path)}
    assert written and product.sus_file_names(result) == written


def test_normalized_investigation_ignores_group_and_score_order() -> None:
    payload = {
        "groups": ["b", "a"],
        "suspicious_sales": [{"buyer": "C2", "score": 0.1 + 0.2}, {"buyer": "C1", "score": 1.0}],
        "suspicious_purchases": [],
    }
    swapped = dict(payload, groups=["a", "b"], suspicious_sales=payload["suspicious_sales"][::-1])
    swapped["suspicious_sales"][1] = {"buyer": "C2", "score": 0.3}
    assert product.normalized(payload) == product.normalized(swapped)
