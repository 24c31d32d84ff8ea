"""Method registry + the Spark fan-out grid (method x dataset).

Tables III/IV/V need up to 36 datasets x 11 methods. Each cell is one
full AFE training run on a small dataset — latency-bound numpy — so the
grid is embarrassingly parallel: ``repro.fanout.fan_out`` runs each cell
in its own Spark task on all cores, the cells expected to run longest
first (DESIGN.md §4). Replacement-model scores for Table V (SVM /
NB-or-GP / MLP over the method's cached feature matrix) are computed
inside the same task so feature matrices never cross the wire.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..baselines.autofs import run_autofs_r
from ..baselines.nfs import run_nfs
from ..baselines.rtdl import run_dl_fe, run_fe_dl, run_rtdl_n
from ..core.eafe import AFEConfig, build_feature_matrix, run_afe
from ..core.fpe import FPEModel, label_corpus
from ..fanout import fan_out
from ..hashing.minhash import VARIANTS
from ..ml.forest import kfold_indices
from ..ml.gp import GPRegressor
from ..ml.linear import LinearSVM
from ..ml.metrics import score as metric_score
from ..ml.mlp import MLP
from ..ml.naive_bayes import GaussianNB
from ..synth_data import fpe_corpus
from .datasets import ROSTER, DatasetSpec, by_name, load_dataset

__all__ = [
    "METHODS",
    "train_fpe_models",
    "run_cell",
    "run_grid",
    "replacement_scores",
]


class Method(NamedTuple):
    """How ``run_cell`` produces one Table III column.

    ``runner`` (``run_afe``, ``run_nfs`` or ``run_autofs_r``) runs the
    feature engineering on ``_eafe_config(seed, **overrides)``, consulting
    the FPE model of hash family ``variant`` if one is named. ``dl`` is the
    rtdl step: on the raw data when there is no runner, otherwise on the
    runner's engineered feature matrix.
    """

    runner: Callable | None
    variant: str | None = None
    overrides: dict = {}
    dl: Callable | None = None


# Longest-running first, by mean cell time in results/grid.csv:
# run_grid launches cells in this order.
METHODS: dict[str, Method] = {
    "FS_R": Method(run_autofs_r),
    "NFS": Method(run_nfs),
    "FE|DL": Method(run_afe, "ccws", dl=run_fe_dl),
    "E-AFE^L": Method(run_afe, "licws"),
    "E-AFE^P": Method(run_afe, "pcws"),
    "E-AFE^I": Method(run_afe, "icws"),
    "E-AFE": Method(run_afe, "ccws"),
    "E-AFE_D": Method(run_afe, overrides={"gate": "dropout"}),
    "E-AFE_R": Method(run_afe, "ccws", {"two_stage": False}),
    "DL|FE": Method(None, dl=run_dl_fe),
    "DL_N": Method(None, dl=run_rtdl_n),
}


def train_fpe_models(
    spark: SparkSession,
    *,
    n_corpus: int = 24,
    thre: float = 0.01,
    seed: int = 0,
) -> dict[str, FPEModel]:
    """Pre-train one FPE model per hash family (Spark-fanned labeling).

    The labeling pass (Eq. 3) is shared; only the search over d differs
    per family. Returns {variant: FPEModel}.
    """
    corpus = fpe_corpus(n_corpus, seed=1000 + seed)
    # 10 trees for labeling: labels are the FPE's ground truth, so they
    # get a less noisy forest than the online evaluations use.
    labels = label_corpus(spark, corpus, thre=thre, cv_cfg={"k": 3, "n_trees": 10})
    return {
        variant: FPEModel.fit(corpus, labels, fixed_variant=variant, thre=thre, seed=seed)
        for variant in VARIANTS
    }


def _eafe_config(seed: int, **overrides) -> AFEConfig:
    return AFEConfig(seed=seed, **overrides)


def run_cell(
    method: str,
    spec: DatasetSpec,
    fpe_models: dict[str, FPEModel],
    seed: int = 0,
    with_replacement_models: bool = False,
) -> dict:
    """Execute one (method, dataset) cell; returns a flat metrics dict."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    m = METHODS[method]
    X_pdf, y = load_dataset(spec)
    X = X_pdf.values.astype(np.float64)
    task = spec.task
    out = {
        "dataset": spec.name,
        "task": task,
        "method": method,
        "score": np.nan,
        "base_score": np.nan,
        "time_s": 0.0,
        "n_generated": 0,
        "n_evaluated": 0,
        "gen_time": 0.0,
        "eval_time": 0.0,
        "svm": np.nan,
        "nbgp": np.nan,
        "mlp": np.nan,
    }
    feature_matrix = X
    if m.runner is not None:
        fpe = {"fpe": fpe_models[m.variant]} if m.variant else {}
        r = m.runner(X, y, task, cfg=_eafe_config(seed, **m.overrides), **fpe)
        feature_matrix = build_feature_matrix(X, r)
        out.update(
            score=r.best_score,
            base_score=r.base_score,
            time_s=r.total_time,
            n_generated=r.n_generated,
            n_evaluated=r.n_evaluated,
            gen_time=r.gen_time,
            eval_time=r.eval_time,
        )
    if m.dl is not None:
        d = m.dl(feature_matrix, y, task, seed)
        out.update(score=d["score"], time_s=out["time_s"] + d["time"])
    elif with_replacement_models:
        out.update(replacement_scores(feature_matrix, y, task, seed))
    return out


def replacement_scores(M: np.ndarray, y: np.ndarray, task: str, seed: int = 0) -> dict:
    """Table V: re-score a cached feature matrix with SVM / NB-or-GP / MLP.

    3-fold cross-validation with each replacement model; NB for
    classification, GP for regression (the paper's pairing).
    """
    y = np.asarray(y)
    results = {}
    if task == "C":
        models = {
            "svm": lambda: LinearSVM(seed=seed),
            "nbgp": lambda: GaussianNB(),
            "mlp": lambda: MLP(task="C", epochs=120, seed=seed),
        }
    else:
        # The paper's regression rows pair GP with the NB column; its
        # 'SVM' there is an epsilon-SVR — our stand-in is a shallow
        # linear-ish MLP (documented substitution, DESIGN.md §3).
        models = {
            "svm": lambda: MLP(task="R", hidden=(8,), epochs=120, seed=seed),
            "nbgp": lambda: GPRegressor(),
            "mlp": lambda: MLP(task="R", epochs=120, seed=seed),
        }
    for key, make in models.items():
        scores = []
        for fold, (tr, te) in enumerate(kfold_indices(y, 3, task, seed)):
            m = make()
            m.fit(M[tr], y[tr])
            scores.append(metric_score(y[te], m.predict(M[te]), task))
        results[key] = float(np.mean(scores))
    return results


_GRID_SCHEMA = (
    "dataset string, task string, method string, score double, base_score double, "
    "time_s double, n_generated long, n_evaluated long, gen_time double, "
    "eval_time double, svm double, nbgp double, mlp double"
)


def run_grid(
    spark: SparkSession,
    methods: list[str],
    fpe_models: dict[str, FPEModel],
    datasets: list[str] | None = None,
    seed: int = 0,
    with_replacement_models: bool = False,
) -> pd.DataFrame:
    """Fan the (method x dataset) grid out over all cores via Spark, one
    cell per task. Cells launch longest first: in ``METHODS`` order,
    then larger ``n_samples x n_features`` first within a method."""
    specs = [by_name(d) for d in datasets] if datasets else list(ROSTER)
    order = list(METHODS)
    cells = sorted(
        ((m, s) for s in specs for m in methods),
        key=lambda c: (order.index(c[0]), -c[1].n_samples * c[1].n_features),
    )

    def run(cell):
        return pd.DataFrame([run_cell(*cell, fpe_models, seed, with_replacement_models)])

    res = fan_out(spark, cells, run, _GRID_SCHEMA)
    return res.sort_values(["dataset", "method"]).reset_index(drop=True)
