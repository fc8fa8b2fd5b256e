"""Run a command and report its wall, user and sys time and minor faults.

    python .github/rusage.py LABEL COMMAND [ARG ...]

The command's stdout and stderr pass through untouched; one line
"LABEL: ... s wall, ... s user, ... s sys, ... minor faults" goes to
stderr.  The times and faults are the command's own, from
getrusage(RUSAGE_CHILDREN).  Exits with the command's status (128 + N
when it died by signal N).
"""

import resource
import subprocess
import sys
import time

label, command = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
status = subprocess.call(command)
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(f"{label}: {wall:.1f} s wall, {usage.ru_utime:.1f} s user, "
      f"{usage.ru_stime:.1f} s sys, {usage.ru_minflt} minor faults",
      file=sys.stderr)
sys.exit(status if status >= 0 else 128 - status)
