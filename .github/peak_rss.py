"""Run a command and fail if its peak RSS reaches a limit.

Usage: python .github/peak_rss.py LIMIT_MIB LABEL COMMAND [ARG...]

The peak is the largest ru_maxrss of the processes the command waited for,
itself included. A child's peak RSS counts the process it was forked from,
so this launcher imports neither numpy nor etlqg.
"""

import resource
import subprocess
import sys

limit, label, command = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
subprocess.run(command, check=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{label} peak RSS: {peak:.1f} MiB")
if peak >= limit:
    sys.exit(f"peak RSS {peak:.1f} MiB, limit {limit:g} MiB")
