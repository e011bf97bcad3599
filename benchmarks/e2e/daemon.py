"""A ``repro-tpiin serve`` child process and a keep-alive HTTP connection to it."""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Sequence

#: Errors of a keep-alive socket the daemon reaped while idle (it closes
#: connections idle for 1 s); a GET retried once on a fresh socket.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


class Conn:
    """One keep-alive HTTP/1.1 connection; returns ``(status, body bytes)``.

    Timing a request through it covers the daemon and the transport up
    to the last body byte, not JSON decoding on the client side.
    """

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._port = port
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(
        self, method: str, path: str, body: bytes | None = None, ctype: str = "application/json"
    ) -> tuple[int, bytes]:
        try:
            return self._exchange(method, path, body, ctype)
        except _STALE:
            self.close()
            if method != "GET":
                raise
            return self._exchange(method, path, body, ctype)

    def get_json(self, path: str) -> Any:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def _exchange(
        self, method: str, path: str, body: bytes | None, ctype: str
    ) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=self._timeout)
        headers = {"Content-Type": ctype} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        if response.will_close:
            self.close()
        return response.status, data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Daemon:
    """A spawned daemon, healthy on ``port`` once :meth:`start` returns.

    ``boot_s`` runs from spawn to the first ``200`` on ``/v1/healthz``,
    polled while checking that the spawned pid is still the one alive.
    """

    def __init__(self, argv: Sequence[str], port: int, *, env: dict[str, str], log: Path) -> None:
        self.port = port
        self._argv = list(argv)
        self._env = env
        self._log = log
        self.proc: subprocess.Popen[bytes] | None = None
        self.boot_s = 0.0

    def start(self, timeout: float = 120.0) -> float:
        with self._log.open("ab") as sink:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                self._argv, env=self._env, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink
            )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited {self.proc.returncode} during boot; see {self._log}"
                    )
                if self._healthy():
                    self.boot_s = time.perf_counter() - started
                    return self.boot_s
                if time.perf_counter() - started > timeout:
                    raise TimeoutError(f"daemon not healthy after {timeout:.0f} s")
                time.sleep(0.005)
        except BaseException:
            # Also on SIGTERM or Ctrl-C while booting: the caller holds no
            # handle yet, so this is the only place that can stop it.
            self.kill()
            raise

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=1.0)
        try:
            conn.request("GET", "/v1/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    @property
    def pid(self) -> int:
        if self.proc is None:
            raise RuntimeError("daemon not started")
        return self.proc.pid

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the daemon drains and flushes), then wait for exit."""
        if self.proc is None:
            return 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
