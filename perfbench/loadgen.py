"""HTTP load against a ``qrag serve`` child process.

The open loop sends requests on a seeded Poisson schedule and times each
one from when it was due, so a stall also charges the requests queued
behind it; the dispatcher's own lateness is reported beside it. The closed
loop keeps ``connections`` callers busy, each sending its next request as
soon as the previous reply arrives. Neither loop ever has more than
``connections`` requests in flight.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

HOST = "127.0.0.1"


def poisson_schedule(rng: np.random.Generator, rate: float, n: int) -> list[float]:
    """Due times in seconds from the start for ``n`` Poisson arrivals.

    The gaps are the ``n`` stratified quantiles of the exponential
    distribution in seeded order, so every seed offers the same load, with
    the same bursts, and differs only in when they come.
    """
    quantiles = (np.arange(n) + 0.5) / n
    gaps = -np.log1p(-quantiles) / rate
    return np.cumsum(rng.permutation(gaps)).tolist()


def zipf_draws(rng: np.random.Generator, n_items: int, n: int) -> list[int]:
    """``n`` item indices drawn by Zipf popularity over a seeded ranking."""
    ranking = rng.permutation(n_items)
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64)
    return [int(ranking[i]) for i in rng.choice(n_items, size=n, p=weights / weights.sum())]


@dataclass
class Exchange:
    """One request: what was sent, when, and what came back."""

    index: int
    query: str
    due: float = 0.0
    dispatched: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str = ""

    @property
    def latency_from_due_s(self) -> float:
        return self.done - self.due

    @property
    def latency_s(self) -> float:
        return self.done - self.sent


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def _request(port: int, method: str, path: str, body: bytes | None, timeout: float):
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def search(port: int, ex: Exchange, timeout: float = 60.0) -> None:
    """POST the exchange's query (no mode, no k) and fill in its outcome."""
    body = json.dumps({"query": ex.query}, ensure_ascii=False).encode("utf-8")
    ex.sent = time.perf_counter()
    try:
        status, raw = _request(port, "POST", "/v1/search", body, timeout)
        ex.done = time.perf_counter()
        ex.status = status
        ex.body = json.loads(raw.decode("utf-8"))
    except (OSError, http.client.HTTPException, ValueError) as exc:
        ex.done = time.perf_counter()
        ex.error = f"{type(exc).__name__}: {exc}"


@dataclass
class ServerProcess:
    """A search server child process; ``stop`` always ends it."""

    argv: Sequence[str]
    env: dict
    port: int
    log_path: Path
    proc: subprocess.Popen | None = None
    setup_s: float = 0.0
    _log: object = field(default=None, repr=False)

    def start(self, timeout: float = 120.0) -> None:
        """Spawn and wait until ``/v1/health`` answers 200; time both."""
        self._log = open(self.log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            list(self.argv), env=self.env, stdout=self._log, stderr=subprocess.STDOUT
        )
        deadline = t0 + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                status, _ = _request(self.port, "GET", "/v1/health", None, 5.0)
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server not healthy before timeout")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self) -> float:
        return read_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt (so a traced child can write its spans), then kill."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self._log is not None:
            self._log.close()
            self._log = None


def read_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def open_loop(port: int, exchanges: Sequence[Exchange], connections: int) -> None:
    """Dispatch each exchange at its due time to one of ``connections`` senders."""
    pending: queue.Queue = queue.Queue()

    def sender() -> None:
        while True:
            ex = pending.get()
            if ex is None:
                return
            search(port, ex)

    workers = [threading.Thread(target=sender, daemon=True) for _ in range(connections)]
    for w in workers:
        w.start()
    t0 = time.perf_counter()
    try:
        for ex in exchanges:
            due = t0 + ex.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            ex.due = due
            ex.dispatched = time.perf_counter()
            pending.put(ex)
    finally:
        for _ in workers:
            pending.put(None)
        for w in workers:
            w.join(timeout=120)
    if any(w.is_alive() for w in workers):
        raise RuntimeError("open-loop sender did not finish")


def closed_loop(
    port: int, exchanges: Sequence[Exchange], connections: int, seconds: float, min_done: int
) -> list[Exchange]:
    """Keep ``connections`` callers busy for ``seconds`` and until ``min_done``
    exchanges completed (never past three times ``seconds``); return the
    completed exchanges in send order."""
    lock = threading.Lock()
    cursor = iter(exchanges)
    completed: list[Exchange] = []
    t0 = time.perf_counter()

    def more() -> bool:
        elapsed = time.perf_counter() - t0
        return elapsed < 3 * seconds and (elapsed < seconds or len(completed) < min_done)

    def caller() -> None:
        while more():
            with lock:
                ex = next(cursor, None)
            if ex is None:
                return
            search(port, ex)
            with lock:
                completed.append(ex)

    workers = [threading.Thread(target=caller, daemon=True) for _ in range(connections)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=3 * seconds + 120)
    if any(w.is_alive() for w in workers):
        raise RuntimeError("closed-loop caller did not finish")
    completed.sort(key=lambda ex: ex.index)
    return completed


def connection_count() -> int:
    """Concurrent connections: the CPUs this process may run on (``nproc``)."""
    return max(1, len(os.sched_getaffinity(0)))
