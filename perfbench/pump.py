"""Open-loop line generator for the live workload, run as its own process.

    python3 pump.py LINES_FILE LINE_RATE T0

Writes the lines of LINES_FILE to standard output on a fixed schedule: line
i is due at T0 + i / LINE_RATE on the system-wide monotonic clock (what
time.perf_counter reads on Linux), so the parent can time each gesture from
its due time. Lines go out in 1 ms ticks, the frame period of a full-speed
USB serial bridge: each tick writes every line due by then, whatever the
reader does. A separate process keeps the schedule free of the reader's
interpreter lock. On exit it prints one JSON line to standard error: how
late the ticks ran and how the unread backlog in the pipe evolved.
"""
from __future__ import annotations

import fcntl
import json
import os
import sys
import termios
import time

_F_SETPIPE_SZ = 1031  # Linux; lets the schedule run ahead of a stalled reader
TICK_S = 0.001


def pump(lines: list[bytes], rate: float, t0: float, out: int) -> dict:
    n = len(lines)
    unread = bytearray(4)
    lag_max = 0.0
    backlog: list[int] = []
    i = tick = 0
    while i < n:
        tick_at = t0 + tick * TICK_S
        now = time.perf_counter()
        if now < tick_at:
            time.sleep(tick_at - now)
            continue
        lag_max = max(lag_max, now - tick_at)
        due = min(n, int(tick * TICK_S * rate) + 1)
        if due > i:
            view = memoryview(b"".join(lines[i:due]))
            while view:
                view = view[os.write(out, view):]
            i = due
            fcntl.ioctl(out, termios.FIONREAD, unread)
            backlog.append(int.from_bytes(unread, "little"))
        # A late tick is not repeated: the next one covers everything due.
        tick = max(tick + 1, int((time.perf_counter() - t0) / TICK_S))
    third = len(backlog) // 3
    return {
        "lag_max_s": lag_max,
        "backlog_max_bytes": max(backlog, default=0),
        "backlog_first_third_bytes": sum(backlog[:third]) / third if third else 0.0,
        "backlog_last_third_bytes": sum(backlog[-third:]) / third if third else 0.0,
    }


def main() -> int:
    path, rate, t0 = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    out = sys.stdout.fileno()
    try:
        fcntl.fcntl(out, _F_SETPIPE_SZ, 1 << 20)
    except OSError:
        pass  # default pipe size; a stalled reader then shows as generator lag
    stats = pump(lines, rate, t0, out)
    os.close(out)
    print(json.dumps(stats), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
