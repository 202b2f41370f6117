"""Set-up of one benchmark process: import paircert (with its CLI) and sieve
the primes a workload needs, then print "ready".

    python3 perfbench/setup_probe.py <src dir> <sieve bound>

run.py times this from process start to the "ready" line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import paircert  # noqa: E402
import paircert.cli  # noqa: E402,F401

paircert.primes_upto(int(sys.argv[2]))
print("ready", flush=True)
