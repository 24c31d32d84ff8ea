"""spark-submit entrypoint: pre-train the FPE models (Algorithm 1).

Fans the leave-one-feature-out labeling of the corpus out on Spark,
searches the signature dimension per hash family maximizing validation
recall (Eq. 6), and caches one model per weighted-MinHash family under
results/fpe_models.pkl.

Usage: spark-submit jobs/train_fpe.py [--refresh]
"""
import sys

from repro.bench.artifacts import get_fpe_models
from repro.bench.session import get_spark


def main() -> None:
    spark = get_spark("train-fpe")
    models = get_fpe_models(spark, refresh="--refresh" in sys.argv)
    for variant, m in models.items():
        print(
            f"{variant:8s} d={m.d:3d} recall={m.recall_:.3f} "
            f"precision={m.precision_:.3f} threshold={m.threshold_:.3f}"
        )
    spark.stop()


if __name__ == "__main__":
    main()
