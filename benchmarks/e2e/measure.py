"""Measurement helpers: the percentile rule, open-loop accounting, RSS capture.

Stdlib only and free of ``repro`` imports, so the helpers can be unit
tested without a source tree and reused by every phase of the
benchmark.
"""

from __future__ import annotations

import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def rank(count: int, percentile: float) -> int:
    """1-based nearest-rank index of ``percentile`` in ``count`` samples."""
    if count < 1:
        raise ValueError("no samples")
    # Rounded first so 99.9% of 10,000 is 9,990, not 9,991.
    return max(1, math.ceil(round(percentile / 100.0 * count, 6)))


def beyond(count: int, percentile: float) -> int:
    """Samples strictly past the nearest-rank ``percentile``."""
    return count - rank(count, percentile)


def highest_percentile(
    count: int, candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
) -> float | None:
    """The highest candidate percentile with ``TAIL_SAMPLES`` samples beyond it."""
    for candidate in sorted(candidates, reverse=True):
        if count and beyond(count, candidate) >= TAIL_SAMPLES:
            return candidate
    return None


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation: every value was observed)."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), pct) - 1]


def tail(samples: Sequence[float], pct: float) -> float:
    """``percentile`` that refuses a tail too thin to report.

    The benchmark names its tail metrics (``p99``, ``p90``); each phase
    sizes its sample count so the named percentile keeps at least
    ``TAIL_SAMPLES`` samples beyond it, and this guard keeps it so.
    """
    if len(samples) == 0 or beyond(len(samples), pct) < TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} needs {TAIL_SAMPLES} samples beyond it; have {len(samples)} "
            f"(highest supported: p{highest_percentile(len(samples))})"
        )
    return percentile(samples, pct)


# ----------------------------------------------------------------------
# open loop
# ----------------------------------------------------------------------
@dataclass
class OpenLoop:
    """Due times and per-request accounting for a fixed-rate schedule.

    Request ``i`` is due at ``start + i / rate``.  Its latency runs from
    the due time (not the send time) to completion, so a stall charges
    every request queued behind it; ``lateness`` is how far after its
    due time the generator actually sent it.
    """

    rate: float
    start: float = 0.0
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def record(self, index: int, sent: float, done: float) -> None:
        due = self.due(index)
        self.lateness.append(max(0.0, sent - due))
        self.latencies.append(done - due)

    def run_slots(
        self,
        slots: Sequence[int],
        send: Callable[[int], None],
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Send each slot at (or, when behind, right after) its due time."""
        for index in slots:
            wait = self.due(index) - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            send(index)
            self.record(index, sent, clock())


# ----------------------------------------------------------------------
# processes and memory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChildRun:
    """Wall time and peak RSS of one child that exited 0."""

    wall_s: float
    maxrss_mb: float


#: A small interpreter between the benchmark and each child it times.
#: Linux starts a child's ``ru_maxrss`` at the resident size of the
#: process that forked it, so a child forked straight from the
#: benchmark, which holds references and decoded outputs, would report
#: the benchmark's memory whenever that is larger than its own.  This
#: launcher forks the child from a process of a few MB, waits for it
#: with ``os.wait4``, writes ``wall seconds`` and ``ru_maxrss`` (KiB) to
#: the pipe whose descriptor is ``argv[1]``, and exits with the child's
#: exit code.
_LAUNCHER = """\
import os, sys, time
report = int(sys.argv[1])
os.set_inheritable(report, False)
started = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execvp(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - started
os.write(report, f"{wall!r} {usage.ru_maxrss}".encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_child(
    argv: Sequence[str],
    *,
    env: dict[str, str] | None = None,
    cwd: str | None = None,
    log: str = os.devnull,
    timeout: float = 170.0,
) -> ChildRun:
    """Run ``argv`` to exit; wall time and the child's own peak RSS.

    The child runs under :data:`_LAUNCHER` in a session of its own;
    ``wait4`` there reports the child's own ``ru_maxrss`` (KiB on Linux),
    neither the maximum over all children ever reaped nor the
    benchmark's size.  The child's stdout and stderr go to ``log``.  On
    a timeout or any other error the whole session is killed.
    """
    read_end, write_end = os.pipe()
    try:
        with open(log, "wb") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-S", "-c", _LAUNCHER, str(write_end), *argv],
                env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink,
                pass_fds=(write_end,), start_new_session=True,
            )
        os.close(write_end)
        write_end = -1
        try:
            code = proc.wait(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        report = os.read(read_end, 256).decode()
    finally:
        os.close(read_end)
        if write_end >= 0:
            os.close(write_end)
    if code != 0:
        with open(log, "rb") as handle:
            output = handle.read()[-2000:].decode("utf-8", "replace")
        raise RuntimeError(f"{list(argv[:4])} exited {code}: {output}")
    wall, maxrss_kib = report.split()
    return ChildRun(float(wall), int(maxrss_kib) / 1024.0)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
