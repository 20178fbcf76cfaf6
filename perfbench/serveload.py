"""Open-loop load against a ``gcx serve`` subprocess.

Requests are sent on a fixed schedule and never wait for replies: two
connections (the host's two cores) are fed round-robin, and a reader
thread per connection collects the reply frames.  The server evaluates one
request per connection at a time, so a slow pass delays the requests
queued behind it on its connection; that wait is part of the latency,
which runs from the time a request was *due*, not when it was sent.  The
generator's own lateness is recorded, so a run where the load generator
rather than the server fell behind can be recognised and refused.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BANNER = "gcx serve: listening on "
CONNECTIONS = 2
SERVER_WORKERS = 2
#: Seconds the server gets to reach its listening banner, and the run to
#: drain after its schedule ends; past either, requests count as failed.
START_TIMEOUT = 30.0
DRAIN_TIMEOUT = 30.0


@dataclass
class Request:
    """One scheduled ``eval`` and what came back for it."""

    index: int
    phase: str
    alias: str
    doc: int
    frame: bytes
    due: float = 0.0
    sent: float | None = None
    done: float | None = None
    fragments: list[str] = field(default_factory=list)
    engine_ms: float | None = None
    hwm_bytes: int | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float | None:
        if self.done is None or self.error is not None:
            return None
        return (self.done - self.due) * 1_000.0


class Server:
    """A ``gcx serve`` child process, started and always stopped here."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--workers",
                str(SERVER_WORKERS),
            ],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.address: tuple[str, int] | None = None
        self._listening = threading.Event()
        # Drain stderr for the server's whole life, or a chatty server
        # would block on a full pipe.
        self._stderr = threading.Thread(target=self._read_stderr, daemon=True)
        self._stderr.start()

    def _read_stderr(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            if line.startswith(BANNER) and self.address is None:
                host, _, port = line[len(BANNER) :].strip().rpartition(":")
                self.address = (host, int(port))
                self._listening.set()
        self._listening.set()  # exited without a banner: stop waiting

    def wait_listening(self) -> tuple[str, int]:
        self._listening.wait(START_TIMEOUT)
        if self.address is None:
            raise RuntimeError("gcx serve did not print its listening banner")
        return self.address

    def stop(self) -> None:
        """SIGTERM, wait; SIGKILL if the drain hangs.  Idempotent."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stderr.join(timeout=5)


class Connection:
    """One client connection: frames out, a reader thread for frames in."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=START_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.pending: deque[Request] = deque()
        self._thread: threading.Thread | None = None

    def call(self, frame: dict[str, Any]) -> dict[str, Any]:
        """A synchronous round trip (before the reader thread starts)."""
        self.sock.sendall(json.dumps(frame).encode("utf-8") + b"\n")
        line = self.reader.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return json.loads(line)

    def start_reader(self) -> None:
        self.sock.settimeout(None)
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def _read(self) -> None:
        for line in self.reader:
            frame = json.loads(line)
            kind = frame.get("type")
            if kind == "result":
                self.pending[0].fragments.append(frame["fragment"])
            elif kind == "done":
                request = self.pending.popleft()
                request.engine_ms = frame["elapsed_ms"]
                request.hwm_bytes = frame["hwm_bytes"]
                request.done = time.perf_counter()
            elif kind == "error":
                request = self.pending.popleft()
                request.error = f"{frame.get('code')}: {frame.get('message')}"
                request.done = time.perf_counter()
                if frame.get("fatal"):
                    break

    def send(self, request: Request) -> None:
        # Enqueue before sending: the reply may arrive before sendall
        # returns.
        self.pending.append(request)
        self.sock.sendall(request.frame)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def register(connections: list[Connection], queries: dict[str, str], dtd: str,
             schema_aliases: tuple[str, ...]) -> None:
    for connection in connections:
        for alias, text in queries.items():
            frame: dict[str, Any] = {"op": "register", "id": alias, "query": text}
            if alias in schema_aliases:
                frame["schema"] = dtd
            reply = connection.call(frame)
            if reply.get("type") != "registered":
                raise RuntimeError(f"register {alias} failed: {reply}")


def start(queries: dict[str, str], dtd: str, schema_aliases: tuple[str, ...]
          ) -> tuple[Server, list[Connection], float]:
    """Start a server, connect, register; returns the set-up seconds."""
    server = Server()
    connections: list[Connection] = []
    try:
        address = server.wait_listening()
        connections = [Connection(address) for _ in range(CONNECTIONS)]
        register(connections, queries, dtd, schema_aliases)
    except BaseException:
        for connection in connections:
            connection.close()
        server.stop()
        raise
    return server, connections, time.perf_counter() - server.started


def evaluate(connection: Connection, alias: str, document: str) -> dict[str, Any]:
    """A synchronous eval: send, then read frames up to its done/error."""
    reply = connection.call({"op": "eval", "id": alias, "doc": document})
    while reply.get("type") == "result":
        line = connection.reader.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        reply = json.loads(line)
    if reply.get("type") != "done":
        raise RuntimeError(f"eval {alias} failed: {reply}")
    return reply


def eval_frame(alias: str, document: str) -> bytes:
    return json.dumps({"op": "eval", "id": alias, "doc": document}).encode(
        "utf-8"
    ) + b"\n"


@dataclass
class PhaseMarks:
    """Outstanding requests when a phase's schedule starts and ends."""

    backlog_start: int = 0
    backlog_end: int = 0


def run_open_loop(
    connections: list[Connection],
    phases: list[tuple[str, float, list[Request]]],
) -> dict[str, PhaseMarks]:
    """Send each phase's requests at its rate, back to back, then drain.

    ``phases`` holds (name, requests per second, requests).  Nothing here
    waits on a reply before the schedule is over.
    """
    for connection in connections:
        connection.start_reader()
    sent: list[Request] = []
    marks: dict[str, PhaseMarks] = {}

    def outstanding() -> int:
        return sum(1 for request in sent if request.done is None)

    clock = time.perf_counter
    due = clock() + 0.05
    for name, rate, requests in phases:
        mark = marks[name] = PhaseMarks(backlog_start=outstanding())
        gap = 1.0 / rate
        for request in requests:
            request.due = due
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            request.sent = clock()
            connections[request.index % len(connections)].send(request)
            sent.append(request)
            due += gap
        # The phase's schedule ends one gap after its last send.
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        mark.backlog_end = outstanding()
    deadline = clock() + DRAIN_TIMEOUT
    while outstanding() and clock() < deadline:
        time.sleep(0.005)
    for request in sent:
        if request.done is None:
            request.error = "timeout"
    return marks


def measure_capacity(rates: tuple[float, ...] = (16, 20, 24, 28, 32, 36),
                     seconds: float = 8.0) -> float:
    """The highest open-loop rate whose backlog stays flat, requests/s.

    How the frozen rates in ``workloads.SERVE_RATES`` were derived: light
    is about a quarter of this figure, heavy about three quarters.  Run
    ``python3 perfbench/serveload.py`` to measure it again.  (A closed
    loop over the same two connections reports more, because it never
    queues a request behind a slow one on the same connection.)
    """
    import workloads

    sustained = 0.0
    for rate in rates:
        plan = workloads.serve_plan(0, seconds, "full", {"probe": rate}, {"probe": 1.0})
        server, connections, _setup = start(
            plan.queries, workloads.xmark_dtd(), workloads.oracle.SERVE_SCHEMA_QUERIES
        )
        try:
            marks = run_open_loop(connections, plan.phases)
        finally:
            for connection in connections:
                connection.close()
            server.stop()
        backlog = marks["probe"].backlog_end
        print(f"{rate:g} requests/s: backlog {backlog} at end", file=sys.stderr)
        if backlog > 2:
            break
        sustained = rate
    return sustained


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(f"capacity {measure_capacity():g} requests/s")
