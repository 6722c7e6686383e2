"""Run one command and record its wall time, peak resident set and exit code.

    python3 -S bench/launch.py REPORT COMMAND [ARG ...]

Writes ``"<wall_s> <peak_rss_kb> <exit_code>"`` to REPORT. The benchmark
starts every timed process through this small launcher because on Linux a
process started by fork or vfork plus exec inherits its parent's high-water
resident set in ``ru_maxrss``: started straight from the benchmark process,
which holds the generated graphs and references, a job would report that
process's peak instead of its own.
"""

import os
import sys
import time


def main(report, argv):
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
