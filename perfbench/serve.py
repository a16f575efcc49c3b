"""Closed-loop, in-process serving of generated cytk CLI requests.

A client sends its next request only after the previous reply.  Each
request is one ``cytk.cli.main(argv)`` call with stdout and stderr
captured; only that call is timed, and its output is checked afterwards.
"""

from __future__ import annotations

import io
import json
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

MIN_REQUESTS = 100  # so that ten latencies lie beyond the 90th percentile


@dataclass
class Request:
    kind: str
    argv: list[str]
    # check(parsed JSON reply) -> None or a failure reason; unused for
    # requests generated invalid, which must exit with ``reject``.
    check: Optional[Callable] = None
    reject: Optional[int] = None
    files: dict[str, str] = field(default_factory=dict)  # path -> text


@dataclass
class Tally:
    attempted: int = 0
    rejected: int = 0  # expected rejections of inputs generated invalid
    seconds: float = 0.0  # sum of the timed calls
    reasons: list[str] = field(default_factory=list)  # one per failed request

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.rejected += other.rejected
        self.seconds += other.seconds
        self.reasons += other.reasons


class ThreadCapture(io.TextIOBase):
    """A text stream that keeps what each thread writes apart, so that
    concurrent clients can capture their own replies."""

    def __init__(self) -> None:
        self._parts: dict[int, list[str]] = {}

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self._parts.setdefault(threading.get_ident(), []).append(text)
        return len(text)

    def take(self) -> str:
        return "".join(self._parts.pop(threading.get_ident(), ()))


class Server:
    """Sends requests to ``main`` with stdout/stderr redirected while the
    server is open."""

    def __init__(self, main) -> None:
        self.main = main
        self._out = ThreadCapture()
        self._err = ThreadCapture()
        self._saved = None

    def __enter__(self) -> "Server":
        self._saved = (sys.stdout, sys.stderr)
        sys.stdout, sys.stderr = self._out, self._err
        return self

    def __exit__(self, *exc) -> None:
        sys.stdout, sys.stderr = self._saved

    def serve(self, request: Request, tally: Tally) -> float:
        """Send one request, check its reply, and return the duration of
        the timed call."""
        for path, text in request.files.items():
            Path(path).write_text(text, encoding="utf-8")
        crash = None
        start = perf_counter()
        try:
            code = self.main(request.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a failed run
            code = None
            crash = traceback.format_exc(limit=3)
        end = perf_counter()
        out, err = self._out.take(), self._err.take()
        for path in request.files:
            Path(path).unlink()

        tally.attempted += 1
        tally.seconds += end - start
        reason = crash or self._verdict(request, code, out, err)
        if reason is not None:
            tally.reasons.append(f"{request.kind} {' '.join(request.argv)}: {reason}")
        elif request.reject is not None:
            tally.rejected += 1
        return end - start

    @staticmethod
    def _verdict(request: Request, code, out: str, err: str) -> Optional[str]:
        if request.reject is not None:
            if code != request.reject or not err:
                return f"expected rejection with exit {request.reject}, got {code}"
            return None
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        try:
            return request.check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed reply: {exc!r}"


def serve_rounds(
    server: Server, rounds: Iterator[list[Request]], tally: Tally,
    between: Callable[[], None],
) -> tuple[list[list[Request]], list[float]]:
    """One closed-loop client serving whole rounds until at least
    MIN_REQUESTS are served.  Returns the rounds served and the latency of
    each request, in order."""
    served: list[list[Request]] = []
    latencies: list[float] = []
    while sum(map(len, served)) < MIN_REQUESTS:
        served.append(next(rounds))
        latencies += serve_list(server, served[-1], tally, between)
    return served, latencies


def serve_list(
    server: Server, requests: list[Request], tally: Tally, between: Callable[[], None]
) -> list[float]:
    """One closed-loop client; ``between`` runs untimed before each
    request.  Returns each request's latency."""
    latencies = []
    for request in requests:
        between()
        latencies.append(server.serve(request, tally))
    return latencies


def serve_two_clients(
    server: Server, requests: list[Request], tally: Tally, between: Callable[[], None]
) -> float:
    """Two closed-loop client threads take the requests in order from one
    queue until none is left; each runs ``between`` before each request.
    Returns the wall time of the pass."""
    queue = iter(requests)
    lock = threading.Lock()
    tallies = [Tally(), Tally()]
    errors: list[BaseException] = []

    def client(own: Tally) -> None:
        try:
            while True:
                with lock:
                    request = next(queue, None)
                if request is None:
                    return
                between()
                server.serve(request, own)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(own,)) for own in tallies]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    if errors:
        raise errors[0]
    for own in tallies:
        tally.merge(own)
    return wall
