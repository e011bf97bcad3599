"""The product pass: ``repro-tpiin mine`` and ``repro-tpiin serve``, driven from outside.

The untraced pass (:func:`product_pass`) reports each time as the
median of samples spread over the whole run rather than one sample or a
burst taken back to back: the host's speed drifts over seconds.  In
order:

- ``serve`` with default flags (1 shard, fsync on) on a fresh state
  dir, spawn to first healthy ``/v1/healthz`` (a ``setup_s`` sample);
  closed-loop NDJSON ``POST /v1/arcs:batch``; the first query burst;
  SIGTERM.
- ``serve`` again on that state dir (a ``restart_s`` sample).  This
  daemon stays up, idle between bursts, until the end of the run.
- the steps of :func:`schedule`: ``mine`` runs alternating with a
  fresh boot that takes the batch stream again (a ``setup_s`` sample)
  and a restart on a copy of the post-ingest state dir that takes a
  second batch stream (a ``restart_s`` sample); a query burst follows
  each boot or restart.

``mine`` runs with default flags into a fresh output directory; wall
time from argv to exit, peak RSS from ``wait4``; each output is checked
against an in-process ``detect(engine="faithful")`` on the same CSVs.
The op stream touches distinct arc pairs only, so it commutes and the
final arc set does not depend on request interleaving.  A query burst
is one closed-loop client reading ``GET /v1/arcs/{s}/{b}`` and
``/v1/investigate/{c}``, then one ``/v1/result``; every result, after
ingest and after the restart, must equal a batch ``detect`` over the
final arc set, so every acknowledged write has to survive the restart.
Every failed request, non-zero exit and mismatch counts as a failed
operation.

The traced pass (:func:`traced_pass`) calls each layer's public
functions in-process with spans around the calls, and reads the
daemon's ``/v1/metrics`` counters, to split those numbers by layer.  It
alone runs the open-loop single-arc ``POST /v1/arcs`` phase.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable
from urllib.parse import quote

import measure
from daemon import Conn, Daemon, free_port
from spans import Recorder, Span

from benchmarks import run_bench
from benchmarks.bench_service_load import build_dataset, build_ops, final_arcs
from repro.analysis.investigate import investigate_company
from repro.fusion.tpiin import TPIIN
from repro.io.edge_list_io import read_tpiin_csv, write_tpiin_csv
from repro.io.registry_io import parse_arc_ndjson
from repro.io.results_io import detection_to_dict
from repro.mining.detector import DetectionResult, detect
from repro.model.colors import EColor
from repro.service.config import ServiceConfig
from repro.service.state import DetectionService

ROOT = Path(__file__).resolve().parent.parent.parent

#: ``report(name, value, unit, samples)``: how a pass hands over a metric.
Report = Callable[[str, float, str, int], None]

#: Single-arc requests sent closed-loop, untimed, before the open loop,
#: so it meets a daemon past its first requests.
WARMUP_OPS = 100
#: Open-loop single-arc rate, about half the single-client closed-loop
#: capacity of a warm daemon on a 2-core host (~290 requests/s), and the
#: requests the phase sends (1,000 keep 10 samples beyond p99).
INGEST_RATE = 150.0
INGEST_OPS = 1000
#: Sender threads of the open-loop generator (one connection each).
INGEST_SENDERS = 2
#: NDJSON lines per batch request and batch requests per pass.
BATCH_LINES = 256
BATCH_REQUESTS = 16
#: Query mix: LOOKUPS_PER_INVESTIGATE arc lookups before each
#: investigate, split into bursts with one full result each.  40
#: investigates keep 10 samples beyond p75, 1,000 lookups beyond p99.
INVESTIGATES = 40
LOOKUPS_PER_INVESTIGATE = 25
#: Every INVESTIGATE_CHECK_EVERY-th investigate response is compared
#: field by field with an in-process one.
INVESTIGATE_CHECK_EVERY = 8
#: ``mine`` runs in the untraced pass: one per MINE_SECONDS of
#: ``--seconds``, and never fewer than MIN_MINES.
MINE_SECONDS = 15
MIN_MINES = 3
#: In-process repeats of the costly calls (result, its encoding) in the
#: traced pass; investigate runs three times as often.
TRACED_REPEATS = 3
#: Share of lookups that ask for an arc that is absent.
ABSENT_LOOKUP_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """A network to run the product on; why each was chosen is in BENCHMARK.json."""

    name: str
    gen_seed: int
    build: Callable[[int], TPIIN]


def _densest_720(gen_seed: int) -> TPIIN:
    # run_bench's tiers read their generator seed from a module constant.
    saved = run_bench.GENERATOR_SEED
    run_bench.GENERATOR_SEED = gen_seed
    try:
        return run_bench.build_tpiin(720, 0.100)
    finally:
        run_bench.GENERATOR_SEED = saved


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("densest720", run_bench.GENERATOR_SEED, _densest_720),
        Workload("province", 23, lambda gen_seed: build_dataset(gen_seed, 2452, 0.01)),
    )
}


@dataclass
class Tally:
    """Operations attempted and failed; a failed check also clears ``correct``."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def op(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)
        return ok

    def check(self, ok: bool, what: str) -> bool:
        if not self.op(ok, f"check failed: {what}"):
            self.correct = False
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Inputs:
    """Everything a pass needs, built before any timing starts."""

    workdir: Path
    arcs: Path
    nodes: Path
    served: TPIIN
    single_ops: list[tuple[str, str, str]]
    batch_ops: list[tuple[str, str, str]]
    #: A second batch stream, valid on the state after ``batch_ops``.
    extra_ops: list[tuple[str, str, str]]
    lookups: list[tuple[str, str]]
    companies: list[str]
    env: dict[str, str]
    python: str = sys.executable

    def cli(self, *args: str) -> list[str]:
        return [self.python, "-m", "repro", *args]


def _network(workload: Workload, gen_seed: int, cache: Path) -> tuple[Path, Path]:
    """The generated network as CSV, built once per (workload, generator seed)."""
    arcs = cache / f"{workload.name}-gen{gen_seed}.arcs.csv"
    nodes = cache / f"{workload.name}-gen{gen_seed}.nodes.csv"
    if not (arcs.is_file() and nodes.is_file()):
        cache.mkdir(parents=True, exist_ok=True)
        partial = (arcs.with_suffix(".partial"), nodes.with_suffix(".partial"))
        write_tpiin_csv(workload.build(gen_seed), *partial)
        partial[1].replace(nodes)
        partial[0].replace(arcs)
    return arcs, nodes


def make_inputs(
    workload: Workload, seed: int, gen_seed: int, workdir: Path, cache: Path, singles: bool
) -> Inputs:
    """CSV files and op streams from the generator seed and the op-stream seed.

    The generator seed fixes the network; ``seed`` shuffles the CSV rows
    and draws the mutation stream and the query samples.  Without
    ``singles`` the stream has no single-arc ops, only batch lines.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    arcs, nodes = workdir / "net.arcs.csv", workdir / "net.nodes.csv"
    for source, target in zip(_network(workload, gen_seed, cache), (arcs, nodes)):
        header, *rows = source.read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        target.write_text(header + "".join(rows))
    served = read_tpiin_csv(arcs, nodes)
    singles = WARMUP_OPS + INGEST_OPS if singles else 0
    # Every op touches its own pair, so the second batch stream is valid
    # on the state the first leaves behind.
    lines = BATCH_LINES * BATCH_REQUESTS
    ops = build_ops(served, singles + 2 * lines, seed=seed)
    final = sorted(final_arcs(served, ops))
    companies = sorted(str(c) for c in served.companies())
    lookups = []
    present = set(final)
    for _ in range(INVESTIGATES * LOOKUPS_PER_INVESTIGATE):
        if rng.random() < ABSENT_LOOKUP_SHARE:
            pair = tuple(rng.sample(companies, 2))
            while pair in present:
                pair = tuple(rng.sample(companies, 2))
            lookups.append((pair[0], pair[1]))
        else:
            lookups.append(rng.choice(final))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return Inputs(
        workdir=workdir,
        arcs=arcs,
        nodes=nodes,
        served=served,
        single_ops=ops[:singles],
        batch_ops=ops[singles : singles + lines],
        extra_ops=ops[singles + lines :],
        lookups=lookups,
        companies=rng.sample(companies, INVESTIGATES),
        env=env,
    )


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def group_keys(groups: list[dict[str, Any]]) -> set[tuple[tuple[str, ...], tuple[str, ...], str]]:
    return {(tuple(g["trading_trail"]), tuple(g["support_trail"]), g["kind"]) for g in groups}


@dataclass
class Reference:
    """What a correct answer looks like, from in-process batch runs."""

    groups: set[tuple[tuple[str, ...], tuple[str, ...], str]]
    suspicious: list[list[str]]
    simple: int
    complex: int

    @classmethod
    def of(cls, result: DetectionResult) -> "Reference":
        """The fields of ``detection_to_dict(result)`` that the checks compare."""
        return cls(
            {
                (tuple(map(str, g.trading_trail)), tuple(map(str, g.support_trail)), g.kind.value)
                for g in result.groups
            },
            sorted([str(a), str(b)] for a, b in result.suspicious_trading_arcs),
            result.simple_group_count,
            result.complex_group_count,
        )

    def matches(self, payload: dict[str, Any]) -> bool:
        return (
            payload["simple_group_count"] == self.simple
            and payload["complex_group_count"] == self.complex
            and payload["suspicious_trading_arcs"] == self.suspicious
            and group_keys(payload["groups"]) == self.groups
        )


def sus_file_names(result: DetectionResult) -> set[str]:
    """File names ``write_sus_files`` produces for ``result`` (faithful engine)."""
    indices = [str(sub.index) for sub in result.sub_results if sub.groups]
    if any(g.kind.value == "scs" for g in result.groups):
        indices.append("scs")
    return {f"sus{kind}({i}).txt" for i in indices for kind in ("Group", "Trade")}


@dataclass
class DaemonReference:
    """The final arc set after the op stream and a batch detect over it."""

    arcs: set[tuple[str, str]]
    result: DetectionResult
    reference: Reference
    per_arc: dict[tuple[str, str], int]
    _accepted: bytes = b""

    @classmethod
    def build(cls, inputs: Inputs) -> "DaemonReference":
        arcs = final_arcs(inputs.served, inputs.single_ops + inputs.batch_ops)
        graph = inputs.served.antecedent_graph()
        for seller, buyer in sorted(arcs):
            graph.add_arc(seller, buyer, EColor.TRADING)
        # Any engine is the reference here: all are property-tested to
        # give the same groups, and the compact one is the quickest.
        result = detect(TPIIN(graph=graph), engine="parallel", processes=1)
        per_arc: dict[tuple[str, str], int] = {}
        for group in result.groups:
            arc = (str(group.trading_arc[0]), str(group.trading_arc[1]))
            per_arc[arc] = per_arc.get(arc, 0) + 1
        return cls(arcs, result, Reference.of(result), per_arc)

    def accepts(self, body: bytes) -> bool:
        """Whether a ``/v1/result`` body matches; a body byte-equal to one
        already accepted is not decoded again."""
        if body and body == self._accepted:
            return True
        if not self.reference.matches(json.loads(body)):
            return False
        self._accepted = body
        return True

    def investigation(self, inputs: Inputs, company: str) -> dict[str, Any]:
        return normalized(investigate_company(inputs.served, self.result, company).to_dict())


def normalized(payload: dict[str, Any]) -> dict[str, Any]:
    """An investigation with order-free lists sorted and scores rounded.

    Group order follows the result's group order, which differs between
    the incremental and the batch engines; scores are sums over those
    groups, so they may differ in the last bits.
    """
    out = dict(payload)
    out["groups"] = sorted(payload["groups"])
    for key, who in (("suspicious_sales", "buyer"), ("suspicious_purchases", "seller")):
        out[key] = sorted((row[who], round(row["score"], 9)) for row in payload[key])
    return out


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def import_probes(inputs: Inputs, tally: Tally, count: int) -> list[float]:
    walls = []
    for _ in range(count):
        run = measure.run_child([inputs.python, "-c", "import repro.cli"], env=inputs.env)
        tally.op(True, "import")
        walls.append(run.wall_s)
    return walls


def mine_run(inputs: Inputs, tally: Tally) -> tuple[measure.ChildRun, Path]:
    """One ``mine`` run with default flags into a fresh output directory."""
    out = inputs.workdir / "mine-out"
    shutil.rmtree(out, ignore_errors=True)
    run = measure.run_child(
        inputs.cli("mine", str(inputs.arcs), str(inputs.nodes), "--out-dir", str(out)),
        env=inputs.env,
        log=str(inputs.workdir / "mine.log"),
    )
    tally.op(True, "mine")
    return run, out


@dataclass
class MineReference:
    """What a correct ``mine`` output holds: ``detect(engine="faithful")``."""

    reference: Reference
    sus_files: set[str]

    @classmethod
    def build(cls, inputs: Inputs) -> "MineReference":
        result = detect(inputs.served, engine="faithful")
        return cls(Reference.of(result), sus_file_names(result))

    def check(self, out: Path, tally: Tally) -> None:
        payload = json.loads((out / "detection.json").read_text())
        tally.check(self.reference.matches(payload), "mine detection.json != detect(faithful)")
        written = {p.name for p in out.iterdir() if p.name.startswith("sus")}
        tally.check(written == self.sus_files, "mine sus files != detect(faithful)")


def start_daemon(inputs: Inputs, state: Path, tally: Tally) -> Daemon:
    port = free_port()
    daemon = Daemon(
        inputs.cli(
            "serve", str(inputs.arcs), str(inputs.nodes), "--port", str(port),
            "--state-dir", str(state),
        ),
        port,
        env=inputs.env,
        log=inputs.workdir / "serve.log",
    )
    daemon.start()
    tally.op(True, "boot")
    return daemon


def stop_daemon(daemon: Daemon, tally: Tally) -> None:
    code = daemon.stop()
    tally.op(code == 0, f"daemon exited {code} on SIGTERM")


def _send_arc(conn: Conn, op: tuple[str, str, str], tally: Tally) -> None:
    try:
        payload = {"op": op[0], "seller": op[1], "buyer": op[2]}
        status, body = conn.request("POST", "/v1/arcs", json.dumps(payload).encode())
        ok = status == 200 and json.loads(body).get("applied") is True
    except OSError as exc:
        conn.close()
        ok, status = False, repr(exc)
    tally.op(ok, f"POST /v1/arcs {op} -> {status}")


def warm_up(port: int, ops: list[tuple[str, str, str]], tally: Tally) -> None:
    conn = Conn(port)
    try:
        for op in ops:
            _send_arc(conn, op, tally)
    finally:
        conn.close()


def open_loop(
    port: int,
    ops: list[tuple[str, str, str]],
    tally: Tally,
    recorder: Recorder | None = None,
    phase: Span | None = None,
) -> measure.OpenLoop:
    """Fixed-rate single-arc ingest from ``INGEST_SENDERS`` connections.

    Request ``i`` is due at ``i / INGEST_RATE`` after the start, whichever
    sender sends it.  With a ``recorder``, each request gets a span under
    ``phase``.
    """
    loop = measure.OpenLoop(INGEST_RATE, start=time.perf_counter() + 0.05)

    def sender(slots: range) -> None:
        conn = Conn(port)

        def send(slot: int) -> None:
            if recorder is None:
                _send_arc(conn, ops[slot], tally)
            else:
                with recorder.span("http.post_arc", parent=phase):
                    _send_arc(conn, ops[slot], tally)

        try:
            loop.run_slots(slots, send)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=sender, args=(range(k, len(ops), INGEST_SENDERS),))
        for k in range(INGEST_SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return loop


def batch_ingest(port: int, ops: list[tuple[str, str, str]], tally: Tally) -> tuple[int, float]:
    """Closed-loop NDJSON batches; returns (lines applied, elapsed seconds)."""
    bodies = [
        "".join(
            json.dumps({"op": op, "seller": s, "buyer": b}) + "\n"
            for op, s, b in ops[start : start + BATCH_LINES]
        ).encode()
        for start in range(0, len(ops), BATCH_LINES)
    ]
    conn = Conn(port)
    applied = 0
    try:
        started = time.perf_counter()
        for body in bodies:
            status, raw = conn.request("POST", "/v1/arcs:batch", body, "application/x-ndjson")
            report = json.loads(raw) if status == 200 else {}
            lines = body.count(b"\n")
            good = sum(1 for line in report.get("results", []) if line.get("applied"))
            tally.op(
                status == 200 and report.get("rejected") == 0 and good == lines,
                f"POST /v1/arcs:batch -> {status}, {good}/{lines} applied",
            )
            applied += good
        elapsed = time.perf_counter() - started
    finally:
        conn.close()
    return applied, elapsed


def check_result(conn: Conn, ref: DaemonReference, tally: Tally, when: str) -> None:
    status, body = conn.request("GET", "/v1/result")
    tally.check(status == 200 and ref.accepts(body), f"/v1/result {when} != batch detect")


@dataclass
class QueryTimes:
    lookup: list[float] = field(default_factory=list)
    investigate: list[float] = field(default_factory=list)
    result: list[float] = field(default_factory=list)


def query_burst(
    port: int,
    inputs: Inputs,
    ref: DaemonReference,
    tally: Tally,
    times: QueryTimes,
    burst: range,
) -> None:
    """One closed-loop client: the investigates numbered ``burst``, each
    after its lookups, then one full result."""
    conn = Conn(port)
    try:
        for i in burst:
            for seller, buyer in inputs.lookups[
                i * LOOKUPS_PER_INVESTIGATE : (i + 1) * LOOKUPS_PER_INVESTIGATE
            ]:
                started = time.perf_counter()
                status, body = conn.request("GET", f"/v1/arcs/{quote(seller)}/{quote(buyer)}")
                times.lookup.append(time.perf_counter() - started)
                view = json.loads(body) if status == 200 else {}
                tally.op(
                    status == 200
                    and view["present"] is ((seller, buyer) in ref.arcs)
                    and view["suspicious"] is ((seller, buyer) in ref.per_arc)
                    and len(view["groups"]) == ref.per_arc.get((seller, buyer), 0),
                    f"GET arc {seller}->{buyer}: {status}",
                )
            company = inputs.companies[i]
            started = time.perf_counter()
            status, body = conn.request("GET", f"/v1/investigate/{quote(company)}")
            times.investigate.append(time.perf_counter() - started)
            if status == 200 and i % INVESTIGATE_CHECK_EVERY == 0:
                tally.check(
                    normalized(json.loads(body)) == ref.investigation(inputs, company),
                    f"/v1/investigate/{company} != in-process investigate",
                )
            else:
                tally.op(status == 200, f"GET investigate {company}: {status}")
        started = time.perf_counter()
        status, body = conn.request("GET", "/v1/result")
        times.result.append(time.perf_counter() - started)
        tally.check(status == 200 and ref.accepts(body), "/v1/result != batch detect")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def _ms(seconds: float) -> float:
    return seconds * 1000.0


def schedule(seconds: int) -> list[str]:
    """The steps of the untraced pass after the first restart.

    ``mine`` runs alternate with fresh boots and restarts, so each kind
    is sampled early, midway and late in the run, and a query burst
    follows each boot or restart.
    """
    mines = max(MIN_MINES, seconds // MINE_SECONDS)
    steps = []
    for k in range(mines):
        steps.append("mine")
        if k < mines - 1:
            steps += ["boot" if k % 2 == 0 else "restart", "query"]
    return steps


@dataclass
class Samples:
    """What the untraced pass collects, one list per metric."""

    imports: list[float] = field(default_factory=list)
    mines: list[measure.ChildRun] = field(default_factory=list)
    boots: list[float] = field(default_factory=list)
    restarts: list[float] = field(default_factory=list)
    #: (lines applied, seconds) of each batch phase.
    batches: list[tuple[int, float]] = field(default_factory=list)
    queries: QueryTimes = field(default_factory=QueryTimes)


def product_pass(inputs: Inputs, tally: Tally, report: Report, seconds: int) -> None:
    """The untraced pass: every end-to-end metric, one ``report`` call each.

    A fresh daemon takes the batch stream and the first query burst and
    is stopped; a restart on its state dir then stays up and serves the
    later bursts, between the other steps, so query times are spread
    over the whole run as well.  Each further restart runs on a copy of
    the post-ingest state dir.
    """
    steps = schedule(seconds)
    # The first burst runs on the daemon that took the writes, the rest
    # where the schedule puts them; each has its share of investigates.
    count = 1 + steps.count("query")
    bursts = iter(
        [range(k * INVESTIGATES // count, (k + 1) * INVESTIGATES // count) for k in range(count)]
    )
    mine_ref = MineReference.build(inputs)
    ref = DaemonReference.build(inputs)
    got = Samples()
    state = inputs.workdir / "state"
    ingested = inputs.workdir / "state-ingested"
    for stale in (state, ingested):
        shutil.rmtree(stale, ignore_errors=True)
    daemon = start_daemon(inputs, state, tally)
    query: Daemon | None = None
    try:
        got.boots.append(daemon.boot_s)
        got.batches.append(batch_ingest(daemon.port, inputs.batch_ops, tally))
        # This burst's result is the check after ingest.
        query_burst(daemon.port, inputs, ref, tally, got.queries, next(bursts))
        report("daemon_rss_mb", measure.vm_hwm_mb(daemon.pid), "MB", 1)
        stop_daemon(daemon, tally)
        shutil.copytree(state, ingested)

        query = start_daemon(inputs, state, tally)
        got.restarts.append(query.boot_s)
        for k, step in enumerate(steps):
            if step == "query":
                query_burst(query.port, inputs, ref, tally, got.queries, next(bursts))
            elif step == "mine":
                mine, out = mine_run(inputs, tally)
                got.mines.append(mine)
                mine_ref.check(out, tally)
                shutil.rmtree(out, ignore_errors=True)
            else:
                step_state = inputs.workdir / f"state-{k}"
                if step == "restart":
                    shutil.copytree(ingested, step_state)
                daemon = start_daemon(inputs, step_state, tally)
                (got.restarts if step == "restart" else got.boots).append(daemon.boot_s)
                # A fresh boot takes the batch stream again; a restart,
                # whose state already has it, takes the second one.
                ops = inputs.batch_ops if step == "boot" else inputs.extra_ops
                got.batches.append(batch_ingest(daemon.port, ops, tally))
                stop_daemon(daemon, tally)
                shutil.rmtree(step_state, ignore_errors=True)
        stop_daemon(query, tally)
    finally:
        daemon.kill()
        if query is not None:
            query.kill()
    got.imports += import_probes(inputs, tally, 1)

    times = got.queries
    report("setup_s", median(got.boots), "s", len(got.boots))
    report("import_s", median(got.imports), "s", len(got.imports))
    report("mine_wall_s", median(m.wall_s for m in got.mines), "s", len(got.mines))
    report("peak_rss_mb", median(m.maxrss_mb for m in got.mines), "MB", len(got.mines))
    # Lines over seconds of all batch phases together: every snapshot
    # the daemon writes while ingesting is in the figure.
    report("ingest_arcs_per_s", sum(n for n, _ in got.batches) / sum(t for _, t in got.batches),
           "1/s", BATCH_REQUESTS * len(got.batches))
    report("restart_s", median(got.restarts), "s", len(got.restarts))
    report("lookup_p50_ms", _ms(median(times.lookup)), "ms", len(times.lookup))
    report("lookup_p99_ms", _ms(measure.tail(times.lookup, 99)), "ms", len(times.lookup))
    report("investigate_p50_ms", _ms(median(times.investigate)), "ms", len(times.investigate))
    report("investigate_p75_ms", _ms(measure.tail(times.investigate, 75)), "ms",
           len(times.investigate))
    report("result_p50_ms", _ms(median(times.result)), "ms", len(times.result))


#: Daemon counters read from ``/v1/metrics`` around the ingest phases.
COUNTERS = (
    "repro_wal_appends_total",
    "repro_snapshots_written_total",
    "repro_ingest_shed_total",
    "repro_path_cache_hits_total",
    "repro_path_cache_misses_total",
)
#: Mine stages, in the order ``mine`` runs them.
STAGES = (
    "cli.import",
    "io.read_tpiin_csv",
    "fusion.validate",
    "mining.detect",
    "mining.materialize",
    "io.write_sus_files",
    "io.write_detection_json",
)


def counters(conn: Conn) -> dict[str, float]:
    registry = conn.get_json("/v1/metrics")["registry"]
    return {
        name: sum(s["value"] for s in registry.get(name, {"series": []})["series"])
        for name in COUNTERS
    }


def traced_pass(
    inputs: Inputs,
    tally: Tally,
    report: Report,
    recorder: Recorder,
) -> None:
    """Per-layer numbers, from spans around each layer's public calls."""
    _traced_mine(inputs, tally, report, recorder)
    ref = DaemonReference.build(inputs)
    ingest_p50, lookup_p50 = _traced_daemon(inputs, ref, tally, report, recorder)
    _traced_service(inputs, ref, tally, report, recorder)
    # Client-side medians minus the in-process medians of the same calls:
    # what HTTP, JSON and the request handler add.
    report("http.ingest_overhead_ms",
           _ms(ingest_p50 - median(recorder.durations("service.add_arc"))), "ms", 1)
    report("http.lookup_overhead_ms",
           _ms(lookup_p50 - median(recorder.durations("service.arc_status"))), "ms", 1)


def _traced_mine(inputs: Inputs, tally: Tally, report: Report, recorder: Recorder) -> None:
    out = inputs.workdir / "mine-out"
    shutil.rmtree(out, ignore_errors=True)
    probe = inputs.workdir / "mine-stages.json"
    with recorder.span("mine.stages") as parent:
        measure.run_child(
            [inputs.python, str(Path(__file__).with_name("mine_stages.py")),
             str(inputs.arcs), str(inputs.nodes), str(out), str(probe)],
            env=inputs.env,
            log=str(inputs.workdir / "mine-stages.log"),
        )
    tally.op(True, "mine stages")
    stages = json.loads(probe.read_text())
    recorder.adopt(stages["spans"], parent)
    MineReference.build(inputs).check(out, tally)
    shutil.rmtree(out, ignore_errors=True)

    for name in STAGES:
        report(f"{name}_s", recorder.total(name), "s", 1)
    report("mine.stage_sum_s", sum(recorder.total(name) for name in STAGES), "s", 1)
    # The replay's wall time, spawn to exit, minus its stages: interpreter
    # start and teardown, and whatever runs between the stages.
    report("unaccounted_s", recorder.self_time(parent), "s", 1)
    for metric, stage in (
        ("io.read_rss_mb", "io.read_tpiin_csv"),
        ("mining.materialize_rss_mb", "mining.materialize"),
        ("io.write_json_rss_mb", "io.write_detection_json"),
    ):
        report(metric, float(recorder.named(stage)[0].attrs["rss_mb"]), "MB", 1)
    report("io.output_bytes", stages["output_bytes"], "bytes", 1)
    report("mining.groups", stages["groups"], "count", 1)
    report("mining.suspicious_arcs", stages["suspicious_arcs"], "count", 1)


def _traced_daemon(
    inputs: Inputs,
    ref: DaemonReference,
    tally: Tally,
    report: Report,
    recorder: Recorder,
) -> tuple[float, float]:
    """Daemon-side counters and client medians; returns (ingest p50, lookup p50)."""
    state = inputs.workdir / "state"
    shutil.rmtree(state, ignore_errors=True)
    with recorder.span("daemon.boot"):
        daemon = start_daemon(inputs, state, tally)
    try:
        conn = Conn(daemon.port)
        before = counters(conn)
        warm_up(daemon.port, inputs.single_ops[:WARMUP_OPS], tally)
        with recorder.span("loadgen.open_loop") as phase:
            loop = open_loop(daemon.port, inputs.single_ops[WARMUP_OPS:], tally, recorder, phase)
        middle = counters(conn)
        with recorder.span("loadgen.batch"):
            batch_ingest(daemon.port, inputs.batch_ops, tally)
        after = counters(conn)
        check_result(conn, ref, tally, "after ingest")
        # Lookups alternate between bare requests and requests wrapped in
        # a span, so the difference is what recording a span costs.
        plain: list[float] = []
        spanned: list[float] = []
        for k, (seller, buyer) in enumerate(inputs.lookups):
            started = time.perf_counter()
            if k % 2:
                with recorder.span("http.get_arc"):
                    status, _ = conn.request("GET", f"/v1/arcs/{quote(seller)}/{quote(buyer)}")
                spanned.append(time.perf_counter() - started)
            else:
                status, _ = conn.request("GET", f"/v1/arcs/{quote(seller)}/{quote(buyer)}")
                plain.append(time.perf_counter() - started)
            tally.op(status == 200, f"GET arc {seller}->{buyer}: {status}")
        with recorder.span("http.get_result"):
            status, body = conn.request("GET", "/v1/result")
        tally.check(status == 200 and ref.accepts(body), "/v1/result != batch detect")
        conn.close()
        stop_daemon(daemon, tally)
    finally:
        daemon.kill()

    hits = after["repro_path_cache_hits_total"] - middle["repro_path_cache_hits_total"]
    misses = after["repro_path_cache_misses_total"] - middle["repro_path_cache_misses_total"]
    report("mining.path_cache_hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
           "ratio", int(hits + misses))
    report("wal.appends", after["repro_wal_appends_total"] - before["repro_wal_appends_total"],
           "count", 1)
    report("wal.snapshots",
           after["repro_snapshots_written_total"] - before["repro_snapshots_written_total"],
           "count", 1)
    report("service.shed_total",
           after["repro_ingest_shed_total"] - before["repro_ingest_shed_total"], "count", 1)
    # The open loop runs only in the traced pass: an end-to-end figure
    # printed with the per-layer ones (a span costs ~0.02 ms a request).
    report("ingest_p50_ms", _ms(median(loop.latencies)), "ms", len(loop.latencies))
    report("ingest_p99_ms", _ms(measure.tail(loop.latencies, 99)), "ms", len(loop.latencies))
    report("loadgen.late_p99_ms", _ms(measure.tail(loop.lateness, 99)), "ms", len(loop.lateness))
    report("http.result_bytes", len(body), "bytes", 1)
    report("trace.overhead_ms", _ms(median(spanned) - median(plain)), "ms",
           len(spanned))
    return median(loop.latencies), median(plain)


def _traced_service(
    inputs: Inputs,
    ref: DaemonReference,
    tally: Tally,
    report: Report,
    recorder: Recorder,
) -> None:
    """The service, mining and analysis layers called in-process."""
    config = ServiceConfig(state_dir=inputs.workdir / "state-inproc", port=0)
    shutil.rmtree(config.state_dir, ignore_errors=True)
    with recorder.span("service.open"):
        service = DetectionService.open(inputs.served, config)
    try:
        for op, seller, buyer in inputs.single_ops:
            with recorder.span("service.add_arc"):
                if op == "add":
                    update = service.add_arc(seller, buyer)
                else:
                    update = service.remove_arc(seller, buyer)
            tally.op(update.applied, f"in-process {op} {seller}->{buyer}")
        lines, rejects = parse_arc_ndjson(
            "".join(json.dumps({"op": o, "seller": s, "buyer": b}) + "\n"
                    for o, s, b in inputs.batch_ops)
        )
        tally.op(not rejects, f"{len(rejects)} NDJSON lines rejected")
        for start in range(0, len(lines), BATCH_LINES):
            with recorder.span("service.apply_batch"):
                verdicts = service.apply_batch(lines[start : start + BATCH_LINES])
            tally.op(all(v.get("applied") for v in verdicts), "in-process apply_batch")
        for _ in range(TRACED_REPEATS):
            with recorder.span("service.result"):
                result = service.result()
        tally.check(Reference.of(result) == ref.reference, "in-process result != batch detect")
        for _ in range(TRACED_REPEATS):
            with recorder.span("http.result_encode"):
                json.dumps(detection_to_dict(result), separators=(",", ":")).encode("utf-8")
        for company in inputs.companies[: TRACED_REPEATS * 3]:
            with recorder.span("analysis.investigate"):
                investigate_company(inputs.served, result, company)
        for seller, buyer in inputs.lookups:
            with recorder.span("service.arc_status"):
                service.arc_status(seller, buyer)
    finally:
        service.close()
    with recorder.span("service.reopen"):
        service = DetectionService.open(inputs.served, config)
    try:
        recovered = service.recovered_records
        tally.check(Reference.of(service.result()) == ref.reference,
                    "in-process result after reopen != batch detect")
    finally:
        service.close()

    report("service.open_s", recorder.total("service.open"), "s", 1)
    report("service.reopen_s", recorder.total("service.reopen"), "s", 1)
    report("service.recovered_records", recovered, "count", 1)
    report("service.add_arc_ms", _ms(median(recorder.durations("service.add_arc"))),
           "ms", len(inputs.single_ops))
    report("service.apply_batch_ms_per_1k",
           _ms(recorder.total("service.apply_batch")) / len(lines) * 1000, "ms", len(lines))
    for metric, name in (
        ("service.result_ms", "service.result"),
        ("http.result_encode_ms", "http.result_encode"),
        ("analysis.investigate_ms", "analysis.investigate"),
        ("service.arc_status_ms", "service.arc_status"),
    ):
        samples = recorder.durations(name)
        report(metric, _ms(median(samples)), "ms", len(samples))
