"""Job launcher: runs one command per request and reports its wall time and max RSS.

The benchmark starts its jobs from this small process, not from run.py,
because Linux charges a child's ru_maxrss with the high-water RSS of the
process it was forked from.  Started from run.py, which imports numpy to
check outputs, every job would report at least run.py's own peak.

Protocol: one JSON object per line on stdin,

    {"cmd": [...], "cwd": "...", "env": {...}, "timeout": 60.0,
     "stdout": "path", "stderr": "path"}

answered by one JSON line on stdout,

    {"wall_s": ..., "maxrss_kb": ..., "returncode": ..., "timed_out": ...}.

SIGTERM kills the running job, waits for it and exits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        expired = threading.Event()

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode,
            "timed_out": expired.is_set()}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
