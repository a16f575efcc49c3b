"""Run one cytk command line while sampling the host speed loop.

    python3 perfbench/sampled_cli.py SAMPLES_FILE ARG...

Every hostspeed.TICK_S of wall time, a SIGALRM handler runs the loop once
on the main thread, between two bytecodes of whatever runs there.  Each
run's CPU time on that thread is written to SAMPLES_FILE as a JSON list
when the command ends.  CPU time leaves out the waits for worker threads
to hand over the interpreter, and a slow host slows it as much as wall
time.
"""

import gc
import json
import signal
import sys
from time import thread_time

from hostspeed import TICK_S, reference_work


def main() -> int:
    samples_path, argv = sys.argv[1], sys.argv[2:]
    samples: list[float] = []

    def run_loop(signum, frame) -> None:
        gc.disable()
        try:
            start = thread_time()
            reference_work()
            samples.append(thread_time() - start)
        finally:
            gc.enable()

    signal.signal(signal.SIGALRM, run_loop)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        from cytk import cli

        return cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(samples_path, "w", encoding="utf-8") as handle:
            json.dump(samples, handle)


if __name__ == "__main__":
    sys.exit(main())
