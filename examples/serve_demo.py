#!/usr/bin/env python3
"""The detection daemon end to end: boot, stream, kill, recover.

Drives the `repro-tpiin serve` daemon the way an operator would — as a
real child process over its JSON HTTP API — and asserts the durability
contract at every step:

1. generate a small provincial TPIIN and boot the daemon on it;
2. stream adds/removes through the Python client, reading verdicts and
   `/metrics` (path-cache hits prove the antecedent indexes stay warm);
3. SIGTERM the daemon and check it drains with exit code 0;
4. restart on the same state dir and check `/result` is unchanged;
5. SIGKILL it mid-stream — no drain, no goodbye — restart, and check
   the write-ahead log replays to exactly the acknowledged state;
6. stream twice `--snapshot-every` updates so the daemon compacts on
   the last one (leaving an empty WAL), SIGTERM, restart, acknowledge
   one more update, SIGTERM, restart, and check that update survived
   (a post-compaction restart must not reuse sequence numbers the
   snapshot already covers).

CI runs this script; it exits non-zero on any violated expectation.

Run:  python examples/serve_demo.py [--companies 120] [--seed 7]
"""

import argparse
import atexit
import itertools
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.datagen import ProvinceConfig, generate_province
from repro.io.edge_list_io import write_tpiin_csv
from repro.mining.detector import detect
from repro.service import ServiceClient


SNAPSHOT_EVERY = 8


def boot_daemon(arcs: Path, nodes: Path, state_dir: Path) -> tuple[subprocess.Popen, ServiceClient]:
    """Start `repro-tpiin serve` on an OS-assigned port; return proc + client."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            str(arcs),
            str(nodes),
            "--port",
            "0",
            "--state-dir",
            str(state_dir),
            "--snapshot-every",
            str(SNAPSHOT_EVERY),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # A failed check exits mid-run; never leave its daemon behind.
    atexit.register(stop_if_running, process)
    banner = process.stdout.readline()  # "serving on http://host:port (...)"
    if "serving on " not in banner:
        process.kill()
        raise SystemExit(f"daemon failed to boot: {banner!r}")
    url = banner.split("serving on ", 1)[1].split()[0]
    client = ServiceClient(url)
    client.wait_until_healthy()
    return process, client


def stop_if_running(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
        process.wait()


def check(condition: bool, label: str) -> None:
    status = "ok" if condition else "FAILED"
    print(f"  [{status}] {label}")
    if not condition:
        raise SystemExit(f"expectation violated: {label}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--companies", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--probability", type=float, default=0.01)
    args = parser.parse_args(argv)

    dataset = generate_province(
        ProvinceConfig.small(companies=args.companies, seed=args.seed)
    )
    base = dataset.antecedent_tpiin()
    tpiin = dataset.overlay_trading(base, args.probability)
    batch = detect(tpiin, engine="parallel")
    print(
        f"dataset: {batch.total_trading_arcs} trading arcs, "
        f"{batch.group_count} suspicious groups in batch"
    )

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        arcs, nodes = workdir / "net.arcs.csv", workdir / "net.nodes.csv"
        write_tpiin_csv(tpiin, arcs, nodes)
        state_dir = workdir / "state"

        print("boot #1: fresh state")
        process, client = boot_daemon(arcs, nodes, state_dir)
        result = client.result()
        check(len(result["groups"]) == batch.group_count, "daemon result == batch result")

        sus_seller, sus_buyer = result["suspicious_trading_arcs"][0]
        verdict = client.remove_arc(sus_seller, sus_buyer)
        check(verdict["applied"], f"removed suspicious arc {sus_seller}->{sus_buyer}")
        verdict = client.add_arc(sus_seller, sus_buyer)
        check(verdict["suspicious"], "re-added arc is flagged again, with proof chains")
        metrics = client.metrics()
        check(metrics["path_cache"]["hits"] >= 1, "path cache reports hits on rework")
        check(client.arc(sus_seller, sus_buyer)["present"], "GET /arcs sees the arc")
        pre_restart = client.result()

        print("drain: SIGTERM")
        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30) == 0, "daemon drained with exit code 0")

        print("boot #2: recover from state dir")
        process, client = boot_daemon(arcs, nodes, state_dir)
        health = client.healthz()
        print(f"  recovery: {health}")
        recovered = client.result()
        check(
            sorted(map(str, recovered["groups"])) == sorted(map(str, pre_restart["groups"])),
            "recovered /result identical to pre-restart /result",
        )

        print("stream more, then crash: SIGKILL")
        clean = [
            [s, b]
            for s, b in (tuple(a) for a in pre_restart["suspicious_trading_arcs"][:3])
        ]
        for seller, buyer in clean:
            client.remove_arc(seller, buyer)
        acknowledged = client.result()
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        check(process.returncode != 0, "SIGKILL was not a clean exit (by design)")

        print("boot #3: replay the WAL")
        process, client = boot_daemon(arcs, nodes, state_dir)
        replayed = client.result()
        check(
            sorted(map(str, replayed["groups"])) == sorted(map(str, acknowledged["groups"])),
            "post-crash /result equals the last acknowledged state",
        )
        check(
            replayed["total_trading_arcs"] == acknowledged["total_trading_arcs"],
            "arc count survived the crash",
        )

        print(f"compact: stream {2 * SNAPSHOT_EVERY} updates, then SIGTERM")
        companies = sorted(map(str, tpiin.companies()))
        absent = (
            (s, b)
            for s, b in itertools.permutations(companies, 2)
            if not client.arc(s, b)["present"]
        )
        applied = 0
        for seller, buyer in itertools.islice(absent, SNAPSHOT_EVERY):
            applied += client.add_arc(seller, buyer)["applied"]
            applied += client.remove_arc(seller, buyer)["applied"]
        check(applied == 2 * SNAPSHOT_EVERY, f"{applied} updates acknowledged")
        check(client.metrics()["snapshots_written"] == 2, "daemon compacted twice")
        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30) == 0, "daemon drained with exit code 0")

        print("boot #4: recover from the snapshot, acknowledge one update")
        process, client = boot_daemon(arcs, nodes, state_dir)
        health = client.healthz()
        check(health["recovered_from_snapshot"], "recovery started from the snapshot")
        check(health["recovered_records"] == 0, "the last compaction left nothing to replay")
        before = client.result()["total_trading_arcs"]
        fresh = next(
            (s, b)
            for s, b in itertools.permutations(companies, 2)
            if not client.arc(s, b)["present"]
        )
        check(client.add_arc(*fresh)["applied"], f"added new arc {fresh[0]}->{fresh[1]}")
        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30) == 0, "daemon drained with exit code 0")

        print("boot #5: the post-restart update survived")
        process, client = boot_daemon(arcs, nodes, state_dir)
        check(client.arc(*fresh)["present"], "arc acknowledged after the restart is present")
        check(
            client.result()["total_trading_arcs"] == before + 1,
            "arc count includes the post-restart update",
        )

        process.send_signal(signal.SIGTERM)
        check(process.wait(timeout=30) == 0, "final drain exits 0")

    print("all expectations held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
