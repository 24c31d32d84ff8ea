"""Tests for the 36-dataset roster and the Spark grid harness."""
import functools

import numpy as np
import pandas as pd
import pytest

from repro.bench import harness
from repro.bench.datasets import ROSTER, TABLE1_DATASETS, by_name, load_dataset
from repro.bench.harness import METHODS, replacement_scores, run_cell, run_grid, train_fpe_models
from repro.bench.paper_numbers import table3_frame
from repro.synth_data import make_tabular


class TestRoster:
    def test_thirty_six_datasets(self):
        assert len(ROSTER) == 36

    def test_task_split_matches_paper(self):
        assert sum(s.task == "C" for s in ROSTER) == 26
        assert sum(s.task == "R" for s in ROSTER) == 10

    def test_shapes_capped(self):
        for s in ROSTER:
            assert 80 <= s.n_samples <= 1000
            assert 5 <= s.n_features <= 32

    def test_names_unique(self):
        assert len({s.name for s in ROSTER}) == 36

    def test_table1_datasets_exist(self):
        for n in TABLE1_DATASETS:
            assert by_name(n) is not None

    def test_by_name_missing(self):
        with pytest.raises(KeyError):
            by_name("no such dataset")

    def test_load_deterministic(self):
        s = by_name("PimaIndian")
        a, ya = load_dataset(s)
        b, yb = load_dataset(s)
        assert a.equals(b) and (ya == yb).all()

    def test_load_shapes(self):
        s = by_name("Higgs Boson")
        X, y = load_dataset(s)
        assert X.shape == (s.n_samples, s.n_features)
        assert len(y) == s.n_samples

    def test_regression_dataset_targets(self):
        s = by_name("Housing Boston")
        _, y = load_dataset(s)
        assert y.dtype == np.float64


class TestMethodRegistry:
    def test_eleven_methods(self):
        assert len(METHODS) == 11

    def test_variant_mapping(self):
        assert METHODS["E-AFE"].variant == "ccws"
        assert METHODS["E-AFE^L"].variant == "licws"
        assert METHODS["E-AFE^P"].variant == "pcws"
        assert METHODS["E-AFE^I"].variant == "icws"
        assert METHODS["NFS"].variant is None


class TestReplacementScores:
    def test_classification_keys_and_ranges(self):
        X, y = make_tabular(task="C", n_samples=150, n_features=5, seed=0)
        out = replacement_scores(X.values, y, "C")
        assert set(out) == {"svm", "nbgp", "mlp"}
        assert all(0.0 <= v <= 1.0 for v in out.values())

    def test_regression_keys(self):
        X, y = make_tabular(task="R", n_samples=150, n_features=5, seed=1)
        out = replacement_scores(X.values, y, "R")
        assert set(out) == {"svm", "nbgp", "mlp"}
        assert all(np.isfinite(v) for v in out.values())


@pytest.fixture(scope="module")
def fpe_models(spark):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "N_CORPUS", 6)
        return train_fpe_models(spark)


class TestRunCell:
    def test_dl_cell(self, fpe_models):
        out = run_cell("DL_N", by_name("labor"), fpe_models, seed=0)
        assert out["method"] == "DL_N"
        assert 0.0 <= out["score"] <= 1.0

    def test_unknown_method(self, fpe_models):
        with pytest.raises(ValueError):
            run_cell("nope", by_name("labor"), fpe_models)

    def test_eafe_cell_fields(self, fpe_models, monkeypatch):
        # shrink the config for test speed
        import repro.bench.harness as H

        monkeypatch.setattr(
            H, "AFEConfig",
            functools.partial(
                H.AFEConfig, epochs_stage1=1, epochs_stage2=1, steps_per_agent=2,
                max_agents=4, cv_trees=4,
            ),
        )
        out = run_cell("E-AFE", by_name("labor"), fpe_models, seed=0,
                       with_replacement_models=True)
        for key in ("score", "base_score", "time_s", "n_generated",
                    "n_evaluated", "gen_time", "eval_time", "svm", "nbgp", "mlp"):
            assert key in out
        assert out["score"] >= out["base_score"]


class TestRunGrid:
    def test_grid_on_spark(self, spark, fpe_models):
        # NOTE: runs at the full default config — Spark workers import the
        # real module, so driver-side monkeypatching cannot reach them.
        # The two datasets here are the roster's smallest.
        grid = run_grid(
            spark, ["NFS", "E-AFE_D"], fpe_models, datasets=["labor", "fertility"]
        )
        assert len(grid) == 4
        assert set(grid["method"]) == {"NFS", "E-AFE_D"}
        assert set(grid["dataset"]) == {"labor", "fertility"}
        assert (grid["score"] >= 0).all()
        assert grid["n_evaluated"].dtype.kind in "iu"
        # Every Spark row equals the same cell run in this process, apart
        # from the timings: the fan-out gives each task exactly its work.
        timings = ["time_s", "gen_time", "eval_time"]
        direct = pd.DataFrame(
            [run_cell(m, by_name(d), fpe_models, seed=0)
             for d, m in zip(grid["dataset"], grid["method"])]
        )[grid.columns]
        pd.testing.assert_frame_equal(
            grid.drop(columns=timings), direct.drop(columns=timings),
            check_dtype=False, check_exact=True,
        )
        # A renamed registry entry would silently empty a paper column.
        assert set(METHODS) == set(table3_frame()["method"])
