"""Start one command, wait for it, and report how it ran.

Usage: python3 -S launch.py FD PROGRAM [ARG ...]

Writes ``start end exit_code maxrss_kb`` to file descriptor FD once the
command has exited; ``start`` and ``end`` are ``time.monotonic()``
readings around the spawn and the reap.  The command inherits stdin,
stdout and stderr.

The benchmark starts its commands through this small process because the
kernel carries an address space's peak resident size across ``exec``: a
command spawned straight from the benchmark, which holds earlier outputs,
would report the benchmark's peak as its own ``ru_maxrss``.
"""

import os
import sys
import time


def main() -> None:
    fd = int(sys.argv[1])
    os.set_inheritable(fd, False)
    start = time.monotonic()
    pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    os.write(fd, f"{start!r} {end!r} {code} {usage.ru_maxrss}".encode())


if __name__ == "__main__":
    main()
