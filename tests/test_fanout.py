"""Tests for the one Spark fan-out and the order the grid launches in."""
import pandas as pd
from pyspark import TaskContext

import repro.bench.harness as H
from repro.fanout import fan_out


def test_item_i_runs_alone_in_task_i(spark):
    def where(item):
        return pd.DataFrame({"item": [item], "task": [TaskContext.get().partitionId()]})

    items = ["a", "b", "c", "d", "e"]
    got = fan_out(spark, items, where, "item string, task int")
    assert sorted(zip(got["task"], got["item"])) == list(enumerate(items))


def test_grid_launches_longest_cells_first(monkeypatch):
    launched = []

    def capture(spark, items, fn, schema):
        launched.extend(items)
        return pd.DataFrame(columns=["dataset", "method"])

    monkeypatch.setattr(H, "fan_out", capture)
    H.run_grid(None, ["DL_N", "E-AFE", "NFS", "FS_R"], {},
               datasets=["labor", "German Credit", "hepatitis"])
    methods = [m for m, _ in launched]
    assert methods == [m for m in ["FS_R", "NFS", "E-AFE", "DL_N"] for _ in range(3)]
    for m in set(methods):
        sizes = [s.n_samples * s.n_features for mm, s in launched if mm == m]
        assert sizes == sorted(sizes, reverse=True)
    assert [s.name for _, s in launched[:3]] == ["German Credit", "hepatitis", "labor"]
