"""Benchmark for Table IV: downstream feature-evaluation counts.

The paper's Table IV shows E-AFE (and the 0.5-dropout ablation)
evaluating fewer than ~55% of the features NFS evaluates per epoch. The
benchmark runs the three methods on one dataset and records the counts;
the assertion encodes the ratio claim.
"""
from dataclasses import replace

import pytest

from repro.baselines.nfs import run_nfs
from repro.bench.datasets import by_name, load_dataset
from repro.bench.harness import METHODS
from repro.core.eafe import run_afe
from repro.core.eafe import AFEConfig

_DS = "SVMGuide3"


@pytest.fixture(scope="module")
def data():
    spec = by_name(_DS)
    X_pdf, y = load_dataset(spec)
    return X_pdf.values, y, spec.task


@pytest.fixture(scope="module")
def nfs_result(data, bench_cfg_module):
    X, y, task = data
    return run_nfs(X, y, task, bench_cfg_module)


@pytest.fixture(scope="module")
def bench_cfg_module():
    return AFEConfig(
        epochs_stage1=1, epochs_stage2=3, steps_per_agent=4, max_agents=8,
        cv_k=3, cv_trees=6, seed=0,
    )


def test_eval_count_eafe(benchmark, data, fpe, nfs_result, bench_cfg_module):
    X, y, task = data
    r = benchmark.pedantic(
        lambda: run_afe(X, y, task, fpe, bench_cfg_module), rounds=1, iterations=1
    )
    ratio = r.n_evaluated / nfs_result.n_evaluated
    benchmark.extra_info["n_evaluated"] = r.n_evaluated
    benchmark.extra_info["nfs_evaluated"] = nfs_result.n_evaluated
    benchmark.extra_info["ratio_vs_nfs"] = round(ratio, 3)
    assert ratio < 0.6  # paper: <~0.55 on average


def test_eval_count_dropout(benchmark, data, nfs_result, bench_cfg_module):
    X, y, task = data
    cfg = replace(bench_cfg_module, **METHODS["E-AFE_D"].overrides)
    r = benchmark.pedantic(
        lambda: run_afe(X, y, task, None, cfg), rounds=1, iterations=1
    )
    ratio = r.n_evaluated / nfs_result.n_evaluated
    benchmark.extra_info["ratio_vs_nfs"] = round(ratio, 3)
    assert ratio < 0.6
