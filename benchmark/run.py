#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload pinned to one CPU.

Why pinned: on a two-vCPU VM the scheduler sometimes puts the client and
the brick threads on one core and sometimes spreads them, and a spread
placement pays a cross-core wake-up (an IPI and an idle exit, both VM
exits) on every shard reply. Identical runs then differ by 2-3x, and a
fresh cluster re-rolls the placement. On one CPU every wake-up is a plain
context switch, the layers of an op run one after the other and add up,
and run-to-run spread falls from 5-25 % to 1-2 %. The rate measured is
the CPU cost of an op through every layer, which is what a change to the
program can move.

The build is not pinned; only the measured process is.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
build = subprocess.run(
    ["cargo", "build", "--release", "--offline", "--quiet",
     "--manifest-path", os.path.join(here, "Cargo.toml")])
if build.returncode != 0:
    sys.exit(build.returncode)
# A relative CARGO_TARGET_DIR is relative to the working directory, for
# cargo and for us alike.
target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
binary = os.path.join(target, "release", "nsr-benchmark")
# The highest-numbered allowed CPU: CPU 0 tends to take the interrupts.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
os.execv(binary, [binary] + sys.argv[1:])
