"""Launches the benchmark's child processes from a small resident set.

A child's ru_maxrss starts from the resident high-water mark of the process
that forked it (vfork shares the parent's memory until exec), so children
launched straight from run.py, which holds the oracle's arrays, would all
report at least run.py's peak. This process imports nothing heavy; run.py
starts it first and sends it one JSON request per line on stdin:
{"argv", "cwd", "env", "log", "timeout"}. It answers each with one JSON line
{"wall_s", "cpu_s", "peak_rss_mib", "rc"} read from os.wait4 on that child.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, cwd, env, log, timeout) -> dict:
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=fh)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mib": ru.ru_maxrss / 1024,  # KiB on Linux
        "rc": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
