"""Open-loop load generator: serves JSON-lines records over TCP on a schedule.

Runs as its own single-threaded process, so the system under test
cannot slow it down except through TCP back-pressure.

Protocol with the parent (``python3 perfbench/loadgen.py --rate R``):

1. stdin carries the records, one JSON line each, then EOF;
2. the generator listens on an ephemeral loopback port and prints
   ``{"port": N}`` on stdout;
3. each accepted connection gets every record, record ``i`` due at
   ``t0 + i / R`` (``t0`` on ``time.monotonic``, which is system-wide),
   then the connection closes and one stats line is printed::

       {"t0": ..., "sent": N, "late_max_ms": ..., "late_p99_ms": ...,
        "send_s": ...}

   ``late_*`` is the generator's own lag: how long after a record was
   due (or after the previous send returned, if that was later) the
   generator got round to sending it.  Time spent in ``send``, which
   includes any back-pressure from the receiver, is reported apart,
   as ``send_s``.
4. it exits when no connection arrives for ``IDLE_EXIT_S`` seconds, or
   when terminated (so it cannot outlive a parent that died).
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time

IDLE_EXIT_S = 60.0


def serve_connection(conn: socket.socket, lines: list[bytes],
                     rate: float) -> dict:
    interval = 1.0 / rate
    total = len(lines)
    lateness: list[float] = []
    send_s = 0.0
    sent = 0
    t0 = time.monotonic() + 0.02
    free_at = t0  # when the previous send returned
    while sent < total:
        now = time.monotonic()
        due = t0 + sent * interval
        if now < due:
            time.sleep(due - now)
            continue
        upto = min(total, int((now - t0) / interval) + 1)
        for index in range(sent, upto):
            lateness.append(now - max(t0 + index * interval, free_at))
        conn.sendall(b"".join(lines[sent:upto]))
        free_at = time.monotonic()
        send_s += free_at - now
        sent = upto
    lateness.sort()
    return {
        "t0": t0,
        "sent": sent,
        "late_max_ms": lateness[-1] * 1e3 if lateness else 0.0,
        "late_p99_ms": lateness[int(0.99 * (len(lateness) - 1))] * 1e3
        if lateness else 0.0,
        "send_s": send_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, required=True,
                        help="offered records per second")
    args = parser.parse_args(argv)
    lines = [line if line.endswith(b"\n") else line + b"\n"
             for line in sys.stdin.buffer.read().splitlines()]
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        listener.settimeout(IDLE_EXIT_S)
        print(json.dumps({"port": listener.getsockname()[1]}), flush=True)
        while True:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                return 0
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stats = serve_connection(conn, lines, args.rate)
                conn.shutdown(socket.SHUT_WR)
            print(json.dumps(stats), flush=True)


if __name__ == "__main__":
    sys.exit(main())
