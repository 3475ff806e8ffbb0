"""Starts the benchmark's CLI processes for ``run.py`` and reports their wall time and peak RSS.

On Linux a process's peak RSS, as ``wait4`` reports it, includes the peak RSS
of the process that started it: ``subprocess`` starts children with vfork, so
the child carries its parent's high-water mark over ``exec``.  ``run.py``
holds numpy, fmoent and the in-process passes, so children started from it
would report ``run.py``'s peak, not their own.  This small process starts
them instead.

Protocol, one JSON object per line: ``run.py`` writes
``{"argv": [...], "stdout": path, "stderr": path}`` to stdin; this process
runs ``argv`` to completion with its output in those files and answers
``{"code": int, "wall_s": float, "maxrss_kb": int}`` on stdout.  It kills a
child that runs longer than ``--timeout`` seconds, and exits when stdin
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout = float(sys.argv[sys.argv.index("--timeout") + 1])
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        answer = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
