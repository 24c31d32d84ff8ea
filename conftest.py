import sys

import pytest

from repro.bench.session import get_spark, host_driver_mem


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, built by
    ``repro.bench.session.get_spark`` as the jobs and the benchmark build
    theirs, with the master and driver memory that ``get_spark`` puts in
    ``PYSPARK_SUBMIT_ARGS``.
    """
    s = get_spark("repro")
    mem, src = host_driver_mem()
    # One stderr line that tells whether the memory derivation saw the
    # machine's real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
