"""Small process that launches the ops of an end-to-end run.

A child's peak RSS (``ru_maxrss`` from ``wait4``) includes the peak of the
address space it was forked from, so ops are launched from this process,
which stays small, rather than from the benchmark, which holds the inputs
and checks.  Protocol: one JSON request per stdin line,
``[argv, stdout path, stderr path, timeout]``; one JSON reply per line,
``[exit code, seconds from launch to exit, peak RSS in KiB]``.  It exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps([proc.returncode, elapsed, usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
