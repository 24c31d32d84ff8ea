"""spark-submit entrypoint: reproduce every table in one pass.

Trains the FPE models, runs the full 36-dataset x 11-method grid on all
cores, and writes results/table{1,3,4,5,6}.csv plus a combined markdown
report (results/tables.md) that EXPERIMENTS.md references. After a
fresh grid it prints the grid's makespan, the sum of its cells'
``time_s`` and the parallel efficiency, sum / (makespan x
defaultParallelism); the cells' Table V replacement-model fits are not
in ``time_s``, so the efficiency understates how busy the slots were.

Usage: spark-submit jobs/run_all.py [--refresh]
"""
import sys
import time

from repro.bench.artifacts import RESULTS_DIR, get_fpe_models, get_grid
from repro.bench.session import get_spark
from repro.bench.tables import table1, table3, table4, table5, table6, to_markdown_table


def main() -> None:
    refresh = "--refresh" in sys.argv
    spark = get_spark("run-all")
    t0 = time.time()
    models = get_fpe_models(spark, refresh=refresh)
    print(f"[run_all] FPE models ready ({time.time()-t0:.0f}s): "
          + ", ".join(f"{v}:d={m.d}" for v, m in models.items()))
    fresh = refresh or not (RESULTS_DIR / "grid.csv").exists()
    t0 = time.time()
    grid = get_grid(spark, refresh=refresh)
    makespan = time.time() - t0
    print(f"[run_all] grid done ({makespan:.0f}s): {len(grid)} cells")
    if fresh:
        busy = grid["time_s"].sum()
        slots = spark.sparkContext.defaultParallelism
        print(f"[run_all] makespan {makespan:.1f}s, sum time_s {busy:.1f}s, "
              f"parallel efficiency {busy / (makespan * slots):.2f} on {slots} slots")
    parts = []
    t1 = table1()
    t1.to_csv(RESULTS_DIR / "table1.csv", index=False)
    parts.append(("Table I — NFS one-epoch time breakdown", t1))
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
    spark.stop()


if __name__ == "__main__":
    main()
