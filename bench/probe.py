"""Set-up probe: a fresh interpreter imports `planarblocks.cli` and runs
one command.

As a script (``python3 probe.py SRC COMMAND ARGS...``) it writes one
line, "<import seconds> <modules loaded> <exit code>", after the command
finishes.  Nothing is imported before its timer starts but `sys` and
`time`, so the import figure is that of the package alone.  ``spawn``
times such a process from spawning it to reading that line.
"""

import sys
import time


def spawn(src, argv, timeout):
    """(seconds from spawn to the end of the command, import seconds,
    modules loaded) of one fresh interpreter."""
    import subprocess
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, src] + argv,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    imported, modules, _ = line.split()
    return took, float(imported), int(modules)


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import planarblocks.cli

    imported = time.perf_counter() - start
    modules = len(sys.modules)
    code, _ = planarblocks.cli.run(sys.argv[2:])
    sys.stdout.write("%r %d %d\n" % (imported, modules, code))
    sys.stdout.flush()
