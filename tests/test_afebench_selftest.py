"""The benchmark's self-test, run as part of the test suite.

``afebench/selftest.py`` checks that the span tracer still wraps every
import site of the traced functions, that the tree-fit counts it expects
still hold, and that each workload emits the metrics ``BENCHMARK.json``
names. Running it here makes a refactor that breaks one of those fail
the tests rather than first the benchmark.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_afebench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "afebench/selftest.py"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
