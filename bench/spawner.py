"""Job launcher for the benchmark, run as `python3 -I -S spawner.py`.

Reads one JSON request per line on stdin, {"argv": [...], "stderr": path,
"timeout": s}, runs that command to completion in the launcher's working
directory and environment, and answers with one JSON line
[exit code, wall s, cpu s, peak RSS KiB].

Jobs are launched from this small process rather than from the benchmark
itself because Linux starts a spawned child's peak RSS at its parent's
high-water mark; a launcher that imports almost nothing keeps that floor
below the footprint of any job.
"""

import json
import os
import signal
import sys
import time

current = [0]


def _kill(signum, frame):
    if current[0]:
        try:
            os.kill(current[0], signal.SIGKILL)
        except ProcessLookupError:
            pass


signal.signal(signal.SIGALRM, _kill)
for line in sys.stdin:
    req = json.loads(line)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    t0 = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_DUP2, err, 2)])
    current[0] = pid
    signal.alarm(req["timeout"])
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    current[0] = 0
    signal.alarm(0)
    os.close(err)
    print(json.dumps([os.waitstatus_to_exitcode(status), wall,
                      ru.ru_utime + ru.ru_stime, ru.ru_maxrss]), flush=True)
