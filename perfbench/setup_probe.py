"""Print the seconds this fresh process needs to import adiakit and build a
workload's inputs: ``python3 perfbench/setup_probe.py <workload> <seed>``."""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports adiakit and numpy)

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), False)
print(time.perf_counter() - START)
