"""Cached experiment artifacts shared by the ``jobs/`` entrypoints.

The expensive artifacts — the trained FPE models and the full
(method x dataset) grid — are produced once and cached under
``results/`` so each per-table job can rebuild its table without
re-running everything. ``run_all.py`` forces a fresh build.
"""
from __future__ import annotations

import pickle
from pathlib import Path
from typing import TYPE_CHECKING

import pandas as pd

from .harness import METHODS, run_grid, train_fpe_models

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

__all__ = ["RESULTS_DIR", "get_fpe_models", "get_grid"]

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def get_fpe_models(spark: SparkSession, refresh: bool = False):
    """Trained FPE models per hash family, cached as a pickle."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "fpe_models.pkl"
    if path.exists() and not refresh:
        with open(path, "rb") as f:
            return pickle.load(f)
    models = train_fpe_models(spark)
    with open(path, "wb") as f:
        pickle.dump(models, f)
    return models


def get_grid(spark: SparkSession, refresh: bool = False) -> pd.DataFrame:
    """The full evaluation grid (every method on every roster dataset,
    seed 0), cached as CSV."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "grid.csv"
    if path.exists() and not refresh:
        return pd.read_csv(path)
    fpe = get_fpe_models(spark, refresh=refresh)
    grid = run_grid(spark, list(METHODS), fpe, with_replacement_models=True)
    grid.to_csv(path, index=False)
    return grid
