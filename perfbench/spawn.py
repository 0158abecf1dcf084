"""Spawn one command, wait for it with wait4 and print what it used.

    python3 -S -I perfbench/spawn.py OUT ERR COMMAND...

Prints one line: wall seconds, CPU seconds (user + system), peak RSS in KiB,
exit code.  The command's stdout and stderr go to the files OUT and ERR.

This runs as its own small interpreter (no site, no imports beyond os, sys
and time) because on Linux a child's ru_maxrss starts from the memory
high-water mark of the process that spawned it.  Spawning the program from
the benchmark process itself would put a floor of that process's size under
every peak RSS sample.
"""

import os
import sys
import time


def main() -> int:
    out, err, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    cpu = usage.ru_utime + usage.ru_stime
    print(wall, cpu, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
    return 0


if __name__ == "__main__":
    sys.exit(main())
