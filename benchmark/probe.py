"""Speed probe: measures how fast the core runs while a sample runs beside it.

    python3 benchmark/probe.py --cpu N --result PATH

Pinned to the sample's core, it times a fixed burst of interpreter work
(CPU time, about 0.4 ms) every 20 ms, so it takes about 2% of the core.
On SIGTERM it writes the burst times and its peak RSS as JSON to
``--result``.  The shared host this benchmark was tuned on changes speed by
up to 1.8x over minutes; the bursts slow down with it, and ``run.py``
divides each sample's wall time by them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time

BURST = 4_000
PERIOD_S = 0.02


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    bursts: list[int] = []

    def stop(signum, frame):
        with open(args.result, "w") as fh:
            json.dump({"bursts_ns": bursts,
                       "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    while True:
        t = time.process_time_ns()
        s = 0
        for i in range(BURST):
            s += i * i
        bursts.append(time.process_time_ns() - t)
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
