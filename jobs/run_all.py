"""spark-submit entrypoint: reproduce every table in one pass.

With ``--refresh``, or when results/grid.csv is missing, it starts
Spark, trains the FPE models, runs the full 36-dataset x 11-method grid
on all cores and writes results/grid.csv. After that fresh grid it
prints the grid's makespan, the sum of its cells' ``time_s`` and the
parallel efficiency, sum / (makespan x defaultParallelism); the cells'
Table V replacement-model fits are not in ``time_s``, so the efficiency
understates how busy the slots were.

Every run then builds Tables III-VI from results/grid.csv, runs Table I
(one NFS epoch per dataset, no Spark), and writes
results/table{1,3,4,5,6}.csv plus a combined markdown report
(results/tables.md) that EXPERIMENTS.md references. A run on a cached
grid imports no pyspark and trains no FPE.

Usage: spark-submit jobs/run_all.py [--refresh]
"""
import sys
import time
from pathlib import Path

import pandas as pd

from repro.bench.harness import METHODS, run_grid, train_fpe_models
from repro.bench.tables import table1, table3, table4, table5, table6, to_markdown_table

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


def build_grid(path: Path) -> None:
    """Train the FPE models, run the grid on Spark and write it to ``path``."""
    from repro.bench.session import get_spark

    spark = get_spark("run-all")
    t0 = time.time()
    models = train_fpe_models(spark)
    print(f"[run_all] FPE models ready ({time.time()-t0:.0f}s)")
    for variant, m in models.items():
        print(
            f"{variant:8s} d={m.d:3d} recall={m.recall_:.3f} "
            f"precision={m.precision_:.3f} threshold={m.threshold_:.3f}"
        )
    t0 = time.time()
    grid = run_grid(spark, list(METHODS), models, with_replacement_models=True)
    makespan = time.time() - t0
    grid.to_csv(path, index=False)
    busy = grid["time_s"].sum()
    slots = spark.sparkContext.defaultParallelism
    print(f"[run_all] grid done ({makespan:.0f}s): {len(grid)} cells")
    print(f"[run_all] makespan {makespan:.1f}s, sum time_s {busy:.1f}s, "
          f"parallel efficiency {busy / (makespan * slots):.2f} on {slots} slots")
    spark.stop()


def main() -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "grid.csv"
    if "--refresh" in sys.argv or not path.exists():
        build_grid(path)
    # round_trip: the default parser can move a float's last digit, and
    # the tables built from a cached grid must equal the fresh ones.
    grid = pd.read_csv(path, float_precision="round_trip")
    t1 = table1()
    t1.to_csv(RESULTS_DIR / "table1.csv", index=False)
    parts = [("Table I — NFS one-epoch time breakdown", t1)]
    builders = [
        ("Table III — comparison on 36 datasets", table3, "table3.csv"),
        ("Table IV — feature-evaluation counts", table4, "table4.csv"),
        ("Table V — replacement downstream tasks", table5, "table5.csv"),
        ("Table VI — p-values", table6, "table6.csv"),
    ]
    for title, fn, fname in builders:
        df = fn(grid)
        df.to_csv(RESULTS_DIR / fname, index=False)
        parts.append((title, df))
    with open(RESULTS_DIR / "tables.md", "w") as f:
        for title, df in parts:
            f.write(f"## {title}\n\n{to_markdown_table(df)}\n\n")
    print(f"[run_all] wrote {RESULTS_DIR}/tables.md")


if __name__ == "__main__":
    main()
