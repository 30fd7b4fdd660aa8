"""Run one command to completion; print its wall time, CPU time and peak RSS.

    python3 -S perfbench/launch.py LOG -- CMD [ARG ...]

The command inherits this process's working directory and environment;
its stdin and stdout are ``/dev/null`` and its stderr goes to ``LOG``. One
JSON line on stdout gives ``exit_code``, ``wall_s``, ``cpu_s`` (user +
system, from ``wait4``) and ``peak_rss_mb`` (``ru_maxrss`` in MiB).

Linux counts in a child's ``ru_maxrss`` the peak memory of the process
that started it (it records it when the child calls exec). ``run.py`` holds
numpy, scipy and the reference results, often more than the program it
measures, so it starts each measured process through this small
interpreter instead of directly.
"""

import json
import os
import sys
import time


def main() -> int:
    log, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        print(__doc__, file=sys.stderr)
        return 2
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(json.dumps({
        "exit_code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
