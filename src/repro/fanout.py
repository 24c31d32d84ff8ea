"""One Spark fan-out: ``fan_out`` runs each item of a list in its own task.

``spark.range(n, numPartitions=n)`` puts id ``i`` alone in partition
``i``: no hash shuffle, no ``createDataFrame`` of task keys, and tasks
launch in list order, so a caller that lists its longest items first
keeps the makespan short. The items ride the closure.
"""
from __future__ import annotations

from typing import Callable, Sequence

import pandas as pd
from pyspark.sql import SparkSession


def fan_out(spark: SparkSession, items: Sequence, fn: Callable, schema: str) -> pd.DataFrame:
    """The frames ``fn(item)`` returns, one task per item, as one frame;
    their columns are matched to ``schema`` by name."""

    def run(batches):
        for ids in batches:
            for i in ids["id"]:
                yield fn(items[i])

    n = len(items)
    return spark.range(n, numPartitions=n).mapInPandas(run, schema=schema).toPandas()
