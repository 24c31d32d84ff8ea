"""The one SparkSession factory, and the one module that imports pyspark.

``jobs/run_all.py`` (when it builds the grid), the benchmark and the
tests' ``spark`` fixture (conftest.py) all get their session here.
Every other module imports without pyspark: the fan-out, the FPE
labelling and the grid drive the session they are given and name its
type only for the type checker. Under ``spark-submit`` the master/memory
come from the submit command; run directly, ``get_spark`` sets the
PYSPARK_SUBMIT_ARGS default, with the driver heap from :func:`driver_mem`.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

# cgroup v2, then v1: where the kernel reports the container's memory limit.
CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def driver_mem(override: str | None, limits: dict[str, str | None], meminfo: str | None) -> tuple[str, str]:
    """The driver JVM's heap and where it came from: ``override``
    (``SPARK_DRIVER_MEM``) if set; else 75% of the first real limit in
    ``limits`` (path -> cgroup file text); else half of ``MemTotal`` in
    ``meminfo`` (``/proc/meminfo`` text), clamped to 2-8 GB; else 2 GB.

    A limit is real between 1 GiB and 1 TiB. Without one, cgroup v2 reads
    ``max`` and cgroup v1 a ~9.2e18 sentinel, and a sandbox's sysfs may
    not pass the host's limit through at all.
    """
    if override:
        return override, "env"
    for path, raw in limits.items():
        raw = (raw or "").strip()
        gib = int(raw) / (1 << 30) if raw.isdigit() else 0.0  # not "max" or unreadable
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{path}={raw}"
    for line in (meminfo or "").splitlines():
        if line.startswith("MemTotal:"):
            kb = int(line.split()[1])
            return f"{min(max(kb // (2 << 20), 2), 8)}g", f"meminfo:MemTotal={kb}kB"
    return "2g", "default"


def host_driver_mem() -> tuple[str, str]:
    """:func:`driver_mem` on this process's environment and this host."""
    return driver_mem(
        os.environ.get("SPARK_DRIVER_MEM"),
        {p: _read(p) for p in CGROUP_LIMITS},
        _read("/proc/meminfo"),
    )


def get_spark(app_name: str = "repro-job") -> SparkSession:
    """The session, with Arrow on for ``fan_out``'s ``toPandas``. It sets
    no shuffle or join setting: ``fan_out`` neither shuffles nor joins."""
    # The JVM reads PYSPARK_SUBMIT_ARGS when it starts, in getOrCreate.
    if "PYSPARK_SUBMIT_ARGS" not in os.environ:
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
            f"--driver-memory {host_driver_mem()[0]} "
            "--conf spark.driver.host=127.0.0.1 "
            "--conf spark.ui.enabled=false "
            "pyspark-shell"
        )
    s = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
