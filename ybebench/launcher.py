"""Start benchmark jobs from a small process, so each job's peak RSS is its own.

Linux carries a process's peak RSS across fork and exec: a job started by the
benchmark's main process would report at least that process's peak.  This
launcher stays small.  It reads one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "timeout": seconds}``, runs the interpreter
on ``argv`` with stdout to ``path``, and answers with one JSON line
``{"wall": seconds, "maxrss_kb": k, "exit": code}``.  A job still running
after ``timeout`` seconds is killed.  It exits when stdin closes.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *request["argv"]], os.environ,
                             file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        print(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss,
                          "exit": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
