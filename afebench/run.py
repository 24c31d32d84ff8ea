"""Layered E-AFE benchmark: one command, three workloads, every metric.

Run from the repository root:

    python3 afebench/run.py --workload eafe_german --seed 1 --seconds 15 --trace 0
    python3 afebench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads (see ``afebench/README.md`` for why each exists):

- ``eafe_german``: E-AFE (CCWS FPE pre-trained in set-up) on German Credit
  at the ``benchmarks/conftest.py`` bench config, repeated in-process.
- ``nfs_german``: NFS on the same data and config; no Spark, no FPE.
- ``grid_small``: one ``run_grid`` call, E-AFE and NFS on two small
  roster datasets, fanned out with ``mapInPandas`` on ``local[2]``.

``--seed`` becomes ``AFEConfig.seed`` / ``run_grid(seed=)``. With
``--trace 0`` the units of work repeat for ``--seconds`` and the last
stdout line carries the end-to-end metrics; with ``--trace 1`` one
untraced and one traced unit run, and the last line carries the
per-layer metrics. Every run checks the program's outputs, prints a
host record on stderr and writes its full record (and, traced, its
spans) under ``.bench_out/``. ``--workload all`` runs each workload in
its own process and adds the derived E-AFE/NFS ratios.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

from spans import LAYERS, Tracer, percentile_ms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("eafe_german", "nfs_german", "grid_small")

# name -> unit. The end-to-end set is printed with --trace 0, the
# per-layer set with --trace 1; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "score": "score",
    "n_evaluated": "count",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "forest.cross_val_score.calls": "count",
    "forest.cross_val_score.busy_s": "s",
    "forest.cross_val_score.p50_ms": "ms",
    "forest.cross_val_score.p90_ms": "ms",
    "forest.RandomForest.fit.calls": "count",
    "forest.RandomForest.fit.busy_s": "s",
    "tree.DecisionTree.fit.calls": "count",
    "tree.DecisionTree.fit.busy_s": "s",
    "tree.binning_s": "s",
    "tree.split_s": "s",
    "minhash.select_indices.calls": "count",
    "minhash.select_indices.busy_s": "s",
    "minhash.select_indices.p50_ms": "ms",
    "fpe.feature_signature.busy_s": "s",
    "fpe.predict_proba.calls": "count",
    "fpe.predict_proba.busy_s": "s",
    "fpe.predict_proba.self_s": "s",
    "fpe.keep_ratio": "ratio",
    "eafe.accept_ratio": "ratio",
    "policy.act.busy_s": "s",
    "policy.update.busy_s": "s",
    "transform.to_numpy.calls": "count",
    "transform.to_numpy.busy_s": "s",
    "eafe.gen_s": "s",
    "eafe.eval_s": "s",
    "eafe.unattributed_s": "s",
    "bench.import_s": "s",
    "bench.session.spark_start_s": "s",
    "bench.session.worker_warmup_s": "s",
    "fpe.label_corpus_s": "s",
    "fpe.fit_s": "s",
    "harness.cell_s_sum": "s",
    "harness.cell_s_max": "s",
    "harness.partition_cells_max": "count",
    "harness.partitions_empty": "count",
    "harness.partition_s_max": "s",
    "harness.overhead_s": "s",
    "harness.parallel_efficiency": "ratio",
    "ratio.time_eafe_vs_nfs": "ratio",
    "ratio.evals_eafe_vs_nfs": "ratio",
    "nfs.eval_share": "ratio",
    "layer.ml.forest.self_s": "s",
    "layer.ml.tree.self_s": "s",
    "layer.hashing.minhash.self_s": "s",
    "layer.core.fpe.self_s": "s",
    "layer.core.policy.self_s": "s",
    "layer.core.transform.self_s": "s",
    "layer.core.eafe.self_s": "s",
    "layer.bench.harness.self_s": "s",
    "trace.total_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_s": "s",
    "host.calib_cv_ms": "ms",
}

GRID_DATASETS = ("labor", "hepatitis")
GRID_METHODS = ("E-AFE", "NFS")
# What a fresh interpreter imports before any work: the whole program.
PROGRAM_MODULES = ("repro.bench.harness", "repro.bench.session")
SETUP_REPS = 3


def _prepare_env() -> str:
    """Process environment for numpy and Spark; returns the scratch dir.

    Must run before numpy or pyspark is imported. One BLAS thread per
    process, so Spark's Python workers do not oversubscribe the cores;
    the workers import ``repro`` from this checkout; every temporary
    file Spark or the JVM writes stays under ``.bench_out/``.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    # No JVM perf-data files in the system temp dir (launcher and driver).
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{_slots()}] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={shlex.quote(tmp)} "
        f"--driver-java-options {shlex.quote(f'-Djava.io.tmpdir={tmp} -XX:-UsePerfData')} "
        "pyspark-shell"
    )
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(_slots())
    sys.path.insert(0, SRC)
    return tmp


def _slots() -> int:
    """Spark slots: two, so the grid's four cells outnumber them."""
    return min(2, len(os.sched_getaffinity(0)))


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


# ---------------------------------------------------------------------------
# Host record
# ---------------------------------------------------------------------------


def host_record() -> dict:
    from importlib.metadata import version

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "pandas": version("pandas"),
        "pyspark": version("pyspark"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "spark_master": f"local[{_slots()}]",
    }


def calibrate(reps: int = 3) -> float:
    """Median ms of one fixed-shape ``cross_val_score`` (1000x9, k=3, 6
    trees): recorded with every result so host drift can be told apart
    from a regression. Not gated."""
    import numpy as np

    from repro.ml.forest import cross_val_score

    g = np.random.default_rng(0)
    X = g.normal(size=(1000, 9))
    y = (X[:, 0] * X[:, 1] + X[:, 2] > 0).astype(np.int64)
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        cross_val_score(X, y, "C", k=3, n_trees=6, seed=0)
        ts.append(time.perf_counter() - t0)
    return 1000.0 * _median(ts)


# ---------------------------------------------------------------------------
# Set-up: Spark session and FPE pre-training
# ---------------------------------------------------------------------------


def bench_config(seed: int):
    """The ``benchmarks/conftest.py`` bench config, but with 3 trees per
    in-loop CV instead of 6 so that a run's units fit its time budget."""
    from repro.core.eafe import AFEConfig

    return AFEConfig(
        epochs_stage1=1,
        epochs_stage2=5,
        steps_per_agent=4,
        max_agents=8,
        cv_k=3,
        cv_trees=3,
        seed=seed,
    )


def fpe_corpus(n_samples: int = 80, n_features: int = 5) -> list[dict]:
    """The benchmark's FPE pre-training corpus: one classification and one
    regression set, small enough that labeling takes seconds."""
    from repro.synth_data import make_tabular

    out = []
    for i, task in enumerate(("C", "R")):
        X, y = make_tabular(
            task=task, n_samples=n_samples, n_features=n_features,
            n_informative=3, noise=0.1, seed=3000 + i,
        )
        out.append({"name": f"bench_{task}", "task": task, "X": X, "y": y})
    return out


def program_import_s(reps: int) -> float:
    """Median seconds for a fresh interpreter to import the program."""
    code = "import " + ", ".join(PROGRAM_MODULES)
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        ts.append(time.perf_counter() - t0)
    return _median(ts)


def start_spark() -> tuple[object, float, float]:
    """``bench.session.get_spark`` plus one Python-worker warm-up job.
    Returns (session, start seconds, warm-up seconds)."""
    import pandas as pd

    from repro.bench.session import get_spark

    def warm(batches):  # nested, so Spark ships it by value
        import repro.bench.harness  # noqa: F401  (what every real task imports)

        yield from batches

    t0 = time.perf_counter()
    spark = get_spark("afebench")
    t1 = time.perf_counter()
    n = _slots()
    (
        spark.createDataFrame(pd.DataFrame({"i": range(n)}))
        .repartition(n)
        .mapInPandas(warm, schema="i long")
        .count()
    )
    return spark, t1 - t0, time.perf_counter() - t1


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until it has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        proc.wait(timeout=120)


def pretrain_fpe(spark, corpus: list[dict], reps: int) -> tuple[object, list[float], list[float]]:
    """Algorithm 1 (``label_corpus``) + ``FPEModel.fit``, ``reps`` times.
    Returns the last model and the per-rep label / fit seconds."""
    from repro.core.fpe import FPEModel, label_corpus

    label_s, fit_s, model = [], [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        labels = label_corpus(spark, corpus, thre=0.01, cv_cfg={"k": 2, "n_trees": 3})
        t1 = time.perf_counter()
        model = FPEModel.fit(corpus, labels, fixed_variant="ccws", d_options=(48,), seed=0)
        fit_s.append(time.perf_counter() - t1)
        label_s.append(t1 - t0)
    return model, label_s, fit_s


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    """One unit of measured work and what its checks found."""

    wall_s: float
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    score: float = 0.0
    n_evaluated: int = 0
    sub: int = 0  # which of the workload's sub-seeds the unit ran
    detail: dict = field(default_factory=dict)


class Workload:
    name = ""
    uses_spark = False
    n_sub = 1  # sub-seeds per run; each is run at least once

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.spark = None
        self.fpe = None
        self.setup_layers: dict[str, float] = {}

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Prepare inputs; returns set-up seconds (median where repeated)."""
        if not self.uses_spark:
            # Without Spark the program's own start-up is the set-up cost.
            import_s = program_import_s(SETUP_REPS)
            self.setup_layers = {"bench.import_s": import_s}
            return import_s + self.load_data()
        self.spark, start_s, warm_s = start_spark()
        corpus = fpe_corpus(*((60, 4) if self.tiny else ()))
        self.fpe, label_s, fit_s = pretrain_fpe(self.spark, corpus, SETUP_REPS)
        pretrain = [a + b for a, b in zip(label_s, fit_s)]
        self.setup_layers = {
            "bench.session.spark_start_s": start_s,
            "bench.session.worker_warmup_s": warm_s,
            "fpe.label_corpus_s": _median(label_s),
            "fpe.fit_s": _median(fit_s),
        }
        return start_s + warm_s + _median(pretrain) + self.load_data()

    def load_data(self) -> float:
        return 0.0

    def close(self) -> None:
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None

    # -- work -------------------------------------------------------------

    def unit(self, sub: int = 0) -> Unit:
        raise NotImplementedError

    def layer_metrics(self, untraced: Unit, traced: Unit, summary: dict) -> dict:
        return {}


class AfeWorkload(Workload):
    """One AFE run per unit on one dataset (E-AFE or NFS). Sub-seed ``j``
    runs with ``AFEConfig.seed = seed * n_sub + j``."""

    method = ""
    dataset = "German Credit"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        cfg = bench_config(seed)
        if tiny:
            cfg = replace(cfg, epochs_stage2=2, steps_per_agent=3, max_agents=4,
                          cv_trees=2, final_cv_k=3, final_cv_trees=2)
            self.dataset = "labor"
        self.cfgs = [replace(cfg, seed=seed * self.n_sub + j) for j in range(self.n_sub)]
        self._first: dict[int, tuple] = {}

    def load_data(self) -> float:
        from repro.bench.datasets import by_name, load_dataset

        ts = []
        for _ in range(15):
            t0 = time.perf_counter()
            spec = by_name(self.dataset)
            X_pdf, y = load_dataset(spec)
            self.X, self.y, self.task = X_pdf.values.astype(float), y, spec.task
            ts.append(time.perf_counter() - t0)
        return _median(ts)

    def run_once(self, method: str, sub: int):
        from repro.baselines.nfs import run_nfs
        from repro.core.eafe import run_afe

        if method == "NFS":
            return run_nfs(self.X, self.y, self.task, self.cfgs[sub])
        return run_afe(self.X, self.y, self.task, self.fpe, self.cfgs[sub])

    def unit(self, sub: int = 0) -> Unit:
        t0 = time.perf_counter()
        r = self.run_once(self.method, sub)
        u = Unit(wall_s=time.perf_counter() - t0, score=r.best_score,
                 n_evaluated=r.n_evaluated, sub=sub, detail={"result": r})
        u.problems = check_afe_result(self.method, r.best_score, r.base_score,
                                      r.n_evaluated, r.n_generated)
        key = (r.best_score, r.base_score, r.n_evaluated, r.n_generated)
        first = self._first.setdefault(sub, key)
        if key != first:
            u.problems.append(f"not deterministic in its seed: {key} != {first}")
        u.failed = int(bool(u.problems))
        return u

    def layer_metrics(self, untraced: Unit, traced: Unit, summary: dict) -> dict:
        r = traced.detail["result"]
        sp = summary["spans"]
        m = span_metrics(sp)
        scored = m["fpe.predict_proba.calls"]
        m["fpe.keep_ratio"] = r.n_evaluated / scored if scored else 0.0
        m["eafe.accept_ratio"] = len(r.selected_specs) / r.n_evaluated if r.n_evaluated else 0.0
        m["eafe.gen_s"] = r.gen_time
        m["eafe.eval_s"] = r.eval_time
        m["eafe.unattributed_s"] = sp.get("eafe.run_afe", {}).get("self_s", 0.0)
        m["trace.total_s"] = r.total_time
        ru = untraced.detail["result"]
        if self.method == "NFS":
            nfs = ru
        else:
            t0 = time.perf_counter()
            nfs = self.run_once("NFS", untraced.sub)
            nfs_wall = time.perf_counter() - t0
            m["ratio.time_eafe_vs_nfs"] = untraced.wall_s / nfs_wall
            m["ratio.evals_eafe_vs_nfs"] = ru.n_evaluated / max(1, nfs.n_evaluated)
        m["nfs.eval_share"] = nfs.eval_time / nfs.total_time
        return m


class EafeGerman(AfeWorkload):
    name = "eafe_german"
    method = "E-AFE"
    uses_spark = True
    # E-AFE's eval count, and so its run time, varies ~15% between seeds;
    # three sub-seeds per run damp that.
    n_sub = 3


class NfsGerman(AfeWorkload):
    name = "nfs_german"
    method = "NFS"


class GridSmall(Workload):
    """One ``run_grid`` call per unit; run_s is its makespan."""

    name = "grid_small"
    uses_spark = True

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.datasets = list(GRID_DATASETS[:1] if tiny else GRID_DATASETS)
        self.methods = list(GRID_METHODS)

    def unit(self, sub: int = 0) -> Unit:
        from repro.bench.harness import run_grid

        t0 = time.perf_counter()
        rows = run_grid(self.spark, self.methods, {"ccws": self.fpe},
                        datasets=self.datasets, seed=self.seed)
        cells = rows[["dataset", "method", "time_s", "n_evaluated", "score"]]
        u = Unit(wall_s=time.perf_counter() - t0,
                 detail={"rows": rows, "cells": cells.to_dict("records")})
        u.attempted = len(self.datasets) * len(self.methods)
        u.problems, bad_cells = check_grid_rows(rows, self.datasets, self.methods)
        u.failed = min(u.attempted, bad_cells)
        u.score = float(rows["score"].mean()) if len(rows) else 0.0
        u.n_evaluated = int(rows["n_evaluated"].sum()) if len(rows) else 0
        return u

    def partition_of_cells(self) -> dict[tuple[str, str], int]:
        """The partition ``run_grid`` puts each cell in, found by applying
        its ``repartition`` to the same cell frame."""
        import numpy as np
        import pandas as pd
        from pyspark.sql.functions import spark_partition_id

        cells = pd.DataFrame(
            [(d, m) for d in self.datasets for m in self.methods],
            columns=["dataset", "method"],
        )
        cells["cell_id"] = np.arange(len(cells))
        pdf = (
            self.spark.createDataFrame(cells)
            .repartition(len(cells), "cell_id")
            .withColumn("pid", spark_partition_id())
            .toPandas()
        )
        return {(r.dataset, r.method): int(r.pid) for r in pdf.itertuples()}

    def layer_metrics(self, untraced: Unit, traced: Unit, summary: dict) -> dict:
        rows = untraced.detail["rows"]
        m = span_metrics(summary["spans"])
        part = self.partition_of_cells()
        n_parts = len(part)
        per_part = [0.0] * n_parts
        cells_in = [0] * n_parts
        for r in rows.itertuples():
            pid = part[(r.dataset, r.method)]
            per_part[pid] += r.time_s
            cells_in[pid] += 1
        makespan = untraced.wall_s
        m["harness.cell_s_sum"] = float(rows["time_s"].sum())
        m["harness.cell_s_max"] = float(rows["time_s"].max())
        m["harness.partition_cells_max"] = max(cells_in)
        m["harness.partitions_empty"] = cells_in.count(0)
        m["harness.partition_s_max"] = max(per_part)
        m["harness.overhead_s"] = makespan - max(per_part)
        m["harness.parallel_efficiency"] = m["harness.cell_s_sum"] / (makespan * _slots())
        m["eafe.gen_s"] = float(rows["gen_time"].sum())
        m["eafe.eval_s"] = float(rows["eval_time"].sum())
        m["trace.total_s"] = traced.wall_s
        e = rows[rows["method"] == "E-AFE"]
        n = rows[rows["method"] == "NFS"]
        m["ratio.time_eafe_vs_nfs"] = float(e["time_s"].sum() / n["time_s"].sum())
        m["ratio.evals_eafe_vs_nfs"] = float(e["n_evaluated"].sum() / max(1, n["n_evaluated"].sum()))
        m["nfs.eval_share"] = float(n["eval_time"].sum() / n["time_s"].sum())
        return m


WORKLOAD_CLASSES = {w.name: w for w in (EafeGerman, NfsGerman, GridSmall)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_afe_result(method: str, best: float, base: float,
                     n_evaluated: int, n_generated: int) -> list[str]:
    problems = []
    if not (math.isfinite(best) and math.isfinite(base)):
        problems.append(f"non-finite score: best={best} base={base}")
    elif best < base:
        problems.append(f"best_score {best} < base_score {base}")
    if method == "NFS" and n_evaluated != n_generated:
        problems.append(f"NFS evaluates all: n_evaluated {n_evaluated} != n_generated {n_generated}")
    if method != "NFS" and n_evaluated > n_generated:
        problems.append(f"n_evaluated {n_evaluated} > n_generated {n_generated}")
    return problems


def check_grid_rows(rows, datasets: list[str], methods: list[str]) -> tuple[list[str], int]:
    """Exactly one row per (dataset, method) with a finite time, each
    passing the per-run checks. Returns (problems, bad or missing cells)."""
    problems, bad = [], 0
    counts = rows.groupby(["dataset", "method"]).size().to_dict() if len(rows) else {}
    for d in datasets:
        for m in methods:
            if counts.get((d, m), 0) != 1:
                problems.append(f"cell ({d}, {m}) has {counts.get((d, m), 0)} rows")
                bad += 1
    extra = set(counts) - {(d, m) for d in datasets for m in methods}
    if extra:
        problems.append(f"unexpected cells {sorted(extra)}")
    for r in rows.itertuples():
        p = check_afe_result(r.method, r.score, r.base_score, r.n_evaluated, r.n_generated)
        if not math.isfinite(r.time_s):
            p.append(f"non-finite time_s {r.time_s}")
        if p:
            problems.extend(f"({r.dataset}, {r.method}): {x}" for x in p)
            bad += 1
    return problems, bad


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def span_metrics(sp: dict) -> dict:
    """Per-layer metrics read off the traced unit's spans."""
    def get(name: str, key: str) -> float:
        return sp.get(name, {}).get(key, 0)

    cv = sp.get("forest.cross_val_score", {}).get("durs", [])
    mh = sp.get("minhash.select_indices", {}).get("durs", [])
    return {
        "forest.cross_val_score.calls": get("forest.cross_val_score", "calls"),
        "forest.cross_val_score.busy_s": get("forest.cross_val_score", "busy_s"),
        "forest.cross_val_score.p50_ms": percentile_ms(cv, 0.5),
        "forest.cross_val_score.p90_ms": percentile_ms(cv, 0.9),
        "forest.RandomForest.fit.calls": get("forest.RandomForest.fit", "calls"),
        "forest.RandomForest.fit.busy_s": get("forest.RandomForest.fit", "busy_s"),
        "tree.DecisionTree.fit.calls": get("tree.DecisionTree.fit", "calls"),
        "tree.DecisionTree.fit.busy_s": get("tree.DecisionTree.fit", "busy_s"),
        "tree.binning_s": get("tree.bin_features", "busy_s") + get("tree.apply_bins", "busy_s"),
        "tree.split_s": get("tree.DecisionTree.fit", "self_s"),
        "minhash.select_indices.calls": get("minhash.select_indices", "calls"),
        "minhash.select_indices.busy_s": get("minhash.select_indices", "busy_s"),
        "minhash.select_indices.p50_ms": percentile_ms(mh, 0.5),
        "fpe.feature_signature.busy_s": get("fpe.feature_signature", "busy_s"),
        "fpe.predict_proba.calls": get("fpe.predict_proba", "calls"),
        "fpe.predict_proba.busy_s": get("fpe.predict_proba", "busy_s"),
        "fpe.predict_proba.self_s": get("fpe.predict_proba", "self_s"),
        "policy.act.busy_s": get("policy.act", "busy_s"),
        "policy.update.busy_s": get("policy.update", "busy_s"),
        "transform.to_numpy.calls": get("transform.to_numpy", "calls"),
        "transform.to_numpy.busy_s": get("transform.to_numpy", "busy_s"),
    }


def measure(wl: Workload, seconds: float) -> list[Unit]:
    """Cycle the sub-seeds, each at least once, until the next unit would
    end after ``seconds``."""
    units: list[Unit] = []
    t_start = time.perf_counter()
    while True:
        units.append(guarded_unit(wl, len(units) % wl.n_sub))
        elapsed = time.perf_counter() - t_start
        if len(units) >= wl.n_sub and elapsed + _median([u.wall_s for u in units]) > seconds:
            return units


def aggregate(units: list[Unit], n_sub: int) -> tuple[float, float, float]:
    """(run_s, score, n_evaluated): per sub-seed the median unit time and
    the first passing unit's outputs, then the mean over sub-seeds."""
    times, scores, evals = [], [], []
    for j in range(n_sub):
        group = [u for u in units if u.sub == j]
        if group:
            times.append(_median([u.wall_s for u in group]))
        ok = [u for u in group if not u.failed]
        if ok:
            scores.append(ok[0].score)
            evals.append(ok[0].n_evaluated)
    return tuple(statistics.fmean(x) if x else 0.0 for x in (times, scores, evals))


def guarded_unit(wl: Workload, sub: int = 0) -> Unit:
    """A unit that raised counts as failed; the run goes on."""
    t0 = time.perf_counter()
    try:
        return wl.unit(sub)
    except Exception:  # boundary: record and count the failure
        traceback.print_exc()
        return Unit(wall_s=time.perf_counter() - t0, failed=1, sub=sub,
                    problems=["raised: " + traceback.format_exc(limit=1).strip()])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure (or trace) and tear down one workload. Returns the
    full record; ``record['result']`` is the line the contract prints."""
    host, calib_ms = host_record(), calibrate()
    wl = WORKLOAD_CLASSES[name](seed)
    try:
        setup_s = wl.setup()
        return execute(wl, setup_s, seconds, trace, host, calib_ms)
    finally:
        wl.close()


def execute(wl: Workload, setup_s: float, seconds: float, trace: bool,
            host: dict, calib_ms: float) -> dict:
    """Measure (or trace) a workload that is already set up."""
    name, seed = wl.name, wl.seed
    if not trace:
        units = measure(wl, seconds)
    else:
        untraced = guarded_unit(wl)
        tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
        with tracer:
            traced = guarded_unit(wl)
        units = [untraced, traced]

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    if not trace:
        run_s, score, n_evaluated = aggregate(units, wl.n_sub)
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "score": score,
            "n_evaluated": n_evaluated,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - failed / attempted,
        }
        spans_path = None
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(wl.setup_layers)
        summary = tracer.summary()
        if not (untraced.failed or traced.failed):
            metrics.update(wl.layer_metrics(untraced, traced, summary))
        for layer in LAYERS:
            metrics[f"layer.{layer}.self_s"] = summary["layer_self_s"][layer]
        total = metrics["trace.total_s"]
        metrics["trace.accounted_share"] = sum(summary["layer_self_s"].values()) / total if total else 0.0
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        metrics["host.calib_cv_ms"] = calib_ms
        spans_path = os.path.join(OUT, f"{name}-seed{seed}.spans.json")
        tracer.dump(spans_path)
    units_of = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host,
        "calib_cv_ms": calib_ms,
        "unit_wall_s": [u.wall_s for u in units],
        "unit_outputs": [
            {"sub": u.sub, "score": u.score, "n_evaluated": u.n_evaluated,
             "cells": u.detail.get("cells")}
            for u in units
        ],
        "setup_layers": wl.setup_layers,
        "problems": problems,
        "spans": spans_path,
        "result": result,
    }


def report(record: dict) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}", file=err)
    print(f"# host {json.dumps(record['host'])} calib_cv_ms={record['calib_cv_ms']:.1f}", file=err)
    print(f"# setup {json.dumps(record['setup_layers'])}", file=err)
    print(f"# units={len(record['unit_wall_s'])} wall_s={[round(t, 3) for t in record['unit_wall_s']]}", file=err)
    for k, v in record["result"]["metrics"].items():
        print(f"{k:34s} {v['value']:14.6g} {v['unit']}", file=err)
    for p in record["problems"]:
        print(f"CHECK FAILED: {p}", file=err)


def run_all(args) -> dict:
    """Each workload in its own process; adds the derived ratios."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            correct = False
            failed += 1
            attempted += 1
            continue
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, v in res["metrics"].items():
            metrics[f"{name}.{k}"] = v
    if not args.trace and "eafe_german.run_s" in metrics and "nfs_german.run_s" in metrics:
        e, n = metrics["eafe_german.run_s"]["value"], metrics["nfs_german.run_s"]["value"]
        metrics["ratio.time_eafe_vs_nfs"] = {"value": e / n, "unit": "ratio"}
        e, n = metrics["eafe_german.n_evaluated"]["value"], metrics["nfs_german.n_evaluated"]["value"]
        metrics["ratio.evals_eafe_vs_nfs"] = {"value": e / max(1, n), "unit": "ratio"}
    for k, v in metrics.items():
        print(f"{k:48s} {v['value']:14.6g} {v['unit']}", file=sys.stderr)
    return {"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "eafe.py")):
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    tmp = _prepare_env()
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        report(record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
