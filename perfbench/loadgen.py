"""A single-process asyncio load generator for the serve daemon.

Every request's bytes are encoded before a phase starts; during a phase
the generator only writes pre-built bytes and reads responses.  In the
open loop (:func:`run_phase`) requests are pipelined on each connection
at their due times (the daemon answers one connection's requests in
order) and latency is measured from each request's *due* time, so a stall
also charges the requests queued behind it; how late the generator itself
ran is reported with every phase.  :func:`run_saturation` is the closed
loop that measures capacity, and :func:`run_sequence` paces ``/reload``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass


@dataclass(slots=True)
class Request:
    due: float  # seconds after the phase start
    payload: bytes
    tag: object = None  # what the caller needs to check the answer


@dataclass(slots=True)
class Outcome:
    request: Request
    sent: float = 0.0  # seconds after the phase start
    done: float = 0.0
    ok: bool = False
    status: int = 0
    body: bytes = b""
    request_id: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.request.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.request.due) * 1000.0


def http_request(path: str, body: bytes, request_id: str | None = None) -> bytes:
    head = [
        f"POST {path} HTTP/1.1",
        "Host: bench",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if request_id:
        head.append(f"X-Request-Id: {request_id}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def verify_body(route: dict) -> bytes:
    return json.dumps(
        {"prefix": route["prefix"], "as_path": route["as_path"]},
        separators=(",", ":"),
    ).encode()


def whois_request(route: dict) -> bytes:
    return f"!v {route['prefix']} {' '.join(map(str, route['as_path']))}\n".encode()


class Connection:
    """One TCP connection speaking either HTTP/1.1 or the WHOIS line protocol."""

    def __init__(self, kind: str, reader, writer):
        self.kind = kind
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, kind: str, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
        return cls(kind, reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def read_response(self) -> tuple[int, str, bytes]:
        """(status, request id, body) of the next response on the stream."""
        if self.kind == "http":
            status_line = await self.reader.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split(b" ", 2)[1])
            length, request_id = 0, ""
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "x-request-id":
                    request_id = value.strip()
            body = await self.reader.readexactly(length) if length else b""
            return status, request_id, body
        # WHOIS: "%% id <rid>" then an A<n> frame (or a %%/F line), then a
        # blank line terminating the response.
        lines = []
        while True:
            line = await self.reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            if line == b"\n" and lines:
                break
            lines.append(line)
        request_id = ""
        if lines and lines[0].startswith(b"%% id "):
            request_id = lines.pop(0)[6:].strip().decode()
        ok = bool(lines) and lines[0].startswith(b"A")
        return (200 if ok else 503), request_id, b"".join(lines)


async def run_phase(
    streams: list[tuple[Connection, list[Request]]], timeout: float
) -> list[list[Outcome]]:
    """Send every stream's requests at their due times; collect outcomes.

    Each stream is one connection with its requests in due order.  The
    reader for a connection pairs responses with requests in order.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    results = [[Outcome(request) for request in requests] for _, requests in streams]

    async def writer(conn: Connection, outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            delay = start + outcome.request.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.sent = loop.time() - start
            conn.writer.write(outcome.request.payload)
            await conn.writer.drain()

    async def reader(conn: Connection, outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            status, request_id, body = await conn.read_response()
            outcome.done = loop.time() - start
            outcome.status = status
            outcome.ok = status == 200
            outcome.body = body
            outcome.request_id = request_id

    tasks = []
    for (conn, _), outcomes in zip(streams, results):
        tasks.append(asyncio.ensure_future(writer(conn, outcomes)))
        tasks.append(asyncio.ensure_future(reader(conn, outcomes)))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return results


async def run_sequence(
    conn: Connection, steps: list[tuple[float, list[Request]]], timeout: float
) -> list[list[Outcome]]:
    """Closed loop within each step, steps started at their due times.

    Used for ``/reload`` followed by its probe: each request of a step is
    sent after the previous answer arrived, and a step that overran its
    slot starts the next step immediately.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    results: list[list[Outcome]] = []

    async def body() -> None:
        for due, requests in steps:
            delay = start + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcomes = []
            for request in requests:
                outcome = Outcome(request)
                outcome.sent = loop.time() - start
                conn.writer.write(request.payload)
                await conn.writer.drain()
                status, request_id, reply = await conn.read_response()
                outcome.done = loop.time() - start
                outcome.status, outcome.ok = status, status == 200
                outcome.body, outcome.request_id = reply, request_id
                outcomes.append(outcome)
            results.append(outcomes)

    await asyncio.wait_for(body(), timeout)
    return results


async def run_saturation(
    streams: list[tuple[Connection, object]], seconds: float, depth: int
) -> list[list[Outcome]]:
    """Keep ``depth`` requests outstanding per connection for ``seconds``.

    ``streams`` pairs each connection with a callable returning its next
    :class:`Request`.  Nothing is sent after ``seconds``; the answers
    still in flight are collected.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    results: list[list[Outcome]] = [[] for _ in streams]

    async def writer(conn, make, window, queue, outcomes) -> None:
        while loop.time() - start < seconds:
            await window.acquire()
            outcome = Outcome(make())
            outcome.sent = loop.time() - start
            outcomes.append(outcome)
            queue.put_nowait(outcome)
            conn.writer.write(outcome.request.payload)
            await conn.writer.drain()
        queue.put_nowait(None)

    async def reader(conn, window, queue) -> None:
        while (outcome := await queue.get()) is not None:
            status, request_id, body = await conn.read_response()
            outcome.done = loop.time() - start
            outcome.status, outcome.ok = status, status == 200
            outcome.body, outcome.request_id = body, request_id
            window.release()

    tasks = []
    for (conn, make), outcomes in zip(streams, results):
        window, queue = asyncio.Semaphore(depth), asyncio.Queue()
        tasks.append(asyncio.ensure_future(writer(conn, make, window, queue, outcomes)))
        tasks.append(asyncio.ensure_future(reader(conn, window, queue)))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), seconds + 60.0)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return results


def window_rates(outcomes: list[Outcome], seconds: float, width: float = 0.5) -> list[float]:
    """Completions per second in each full ``width`` window after the first."""
    edges = int(seconds / width)
    counts = [0] * edges
    for outcome in outcomes:
        slot = int(outcome.done / width)
        if outcome.ok and slot < edges:
            counts[slot] += 1
    return [count / width for count in counts[1:]]


def window_p50s(outcomes: list[Outcome], width: float = 1.0) -> list[float]:
    """Median latency of the requests due in each ``width``-second window."""
    from common import percentile

    buckets: dict[int, list[float]] = {}
    for outcome in outcomes:
        buckets.setdefault(int(outcome.request.due / width), []).append(outcome.latency_ms)
    return [percentile(values, 50) for _, values in sorted(buckets.items())]


@dataclass
class PhaseStats:
    """Client-side view of one phase."""

    sent: int = 0
    failed: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    late_ms_max: float = 0.0


def summarize(outcomes: list[Outcome]) -> PhaseStats:
    from common import percentile

    if not outcomes:
        return PhaseStats()
    latencies = [outcome.latency_ms for outcome in outcomes]
    return PhaseStats(
        sent=len(outcomes),
        failed=sum(not outcome.ok for outcome in outcomes),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        late_ms_max=max(outcome.late_ms for outcome in outcomes),
    )


def fixed_rate_schedule(rate: float, seconds: float, streams: int) -> list[list[float]]:
    """Due times at ``rate`` requests/s in total, dealt round-robin to streams."""
    count = max(1, int(rate * seconds))
    dues: list[list[float]] = [[] for _ in range(streams)]
    for index in range(count):
        dues[index % streams].append(index / rate)
    return dues
