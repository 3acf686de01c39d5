"""Server child processes and the closed-loop client that drives them."""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from spans import REQUEST_HEADER

HERE = Path(__file__).resolve().parent
TOKEN = "perfbench-admin-token"
START_TIMEOUT_S = 150.0
REQUEST_TIMEOUT_S = 30.0
# A closed loop sends each request right after the previous reply, which the
# client's delayed-ACK timer released on a kernel tick; round trips then come
# in whole ticks and percentiles jump a tick from one seed to the next.  A
# think time drawn from one tick's length (4 ms at HZ=250) spreads the sends.
THINK_S = 0.004


@dataclass
class Request:
    cls: str                        # lookup | graph | extract | ingest | probe
    kind: str                       # endpoint variant, e.g. concept, graph2, c10k
    method: str
    target: str
    body: bytes | None
    check: Callable[[bytes], bool]  # is this 200 body correct?


@dataclass
class Sample:
    rid: int
    cls: str
    kind: str
    ms: float
    size: int
    ok: bool
    end: float


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One launcher process; ``start`` returns seconds until the first correct reply."""

    def __init__(self, data_dir: Path, workdir: Path, ready: Callable[[bytes], bool],
                 trace_file: Path | None = None) -> None:
        self.data_dir = data_dir
        self.workdir = workdir
        self.ready = ready
        self.trace_file = trace_file
        self.port = 0
        self.proc: subprocess.Popen | None = None
        self._log = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self._log is not None:
            self._log.close()

    def start(self) -> float:
        self.port = _free_port()
        cmd = [sys.executable, str(HERE / "launcher.py"), "--data", str(self.data_dir),
               "--port", str(self.port), "--token", TOKEN]
        if self.trace_file is not None:
            cmd += ["--trace", str(self.trace_file)]
        self._log = open(self.workdir / f"server-{self.port}.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self._log)
        while time.perf_counter() - started < START_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} while starting")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
                try:
                    conn.request("GET", "/v1/stats")
                    resp = conn.getresponse()
                    body = resp.read()
                finally:
                    conn.close()
            except OSError:  # not listening yet
                time.sleep(0.002)
                continue
            if resp.status == 200 and self.ready(body):
                return time.perf_counter() - started
            raise RuntimeError(f"server's first reply is wrong: {resp.status} {body[:200]!r}")
        raise RuntimeError("server did not answer in time")

    def stop(self) -> int:
        """Stop the server; returns its peak resident set size in KiB."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not stop") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])["maxrss_kb"]


class Client:
    """Sends requests over one keep-alive connection and records every outcome."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.ids = itertools.count(1)
        self.samples: list[Sample] = []
        self.conn = self.connect()
        self._think = random.Random("think")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        self.conn.close()

    def send(self, req: Request) -> Sample:
        rid = next(self.ids)
        headers = {REQUEST_HEADER: str(rid)}
        if req.body is not None:
            headers["Content-Type"] = "application/json"
        if req.cls == "ingest":
            headers["Authorization"] = f"Bearer {TOKEN}"
        started = time.perf_counter()
        try:
            self.conn.request(req.method, req.target, req.body, headers)
            resp = self.conn.getresponse()
            body = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn, status, body = self.connect(), 0, b""
        else:
            status = resp.status
        end = time.perf_counter()
        try:
            ok = status == 200 and bool(req.check(body))
        except (ValueError, KeyError, TypeError, IndexError):
            ok = False
        sample = Sample(rid, req.cls, req.kind, (end - started) * 1000, len(body), ok, end)
        self.samples.append(sample)
        return sample

    def closed_loop(self, stream: Iterator[Request], seconds: float) -> float:
        """Send the stream's requests, each shortly after the last returns, for ``seconds``.

        Returns the time from the start to the end of the last request.
        """
        started = time.perf_counter()
        deadline = started + seconds
        end = started
        while time.perf_counter() < deadline:
            end = self.send(next(stream)).end
            time.sleep(self._think.uniform(0, THINK_S))
        return end - started
