"""The settable surface: every field and parameter here has a caller that
sets it. A value nothing sets is a module constant instead (tests patch
it with ``monkeypatch.setattr``), so adding one back must change this file.
Likewise every ``AFEResult`` field has a reader."""
import inspect
from dataclasses import fields

from repro.baselines.rtdl import run_dl_fe, split_indices
from repro.bench.harness import train_fpe_models
from repro.bench.tables import table1
from repro.core.eafe import AFEConfig, AFEResult
from repro.core.fpe import FPEModel, _label_one_dataset, label_corpus
from repro.core.policy import AgentPolicy
from repro.ml.gp import GPRegressor
from repro.ml.linear import LinearSVM
from repro.ml.mlp import MLP, FullBatchNet
from repro.ml.naive_bayes import GaussianNB
from repro.ml.resnet import TabularResNet
from repro.ml.tree import bin_features
from repro.synth_data import make_tabular


def _params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_afe_config_fields():
    assert [f.name for f in fields(AFEConfig)] == [
        "epochs_stage1", "epochs_stage2", "steps_per_agent", "max_agents",
        "gate", "two_stage", "cv_k", "cv_trees", "final_cv_k", "final_cv_trees",
        "seed",
    ]


def test_afe_result_fields():
    assert [f.name for f in fields(AFEResult)] == [
        "base_score", "best_score", "n_generated", "n_evaluated", "gen_time",
        "eval_time", "total_time", "selected_specs", "kept_columns",
    ]


def test_signatures():
    assert _params(AgentPolicy) == ["seed"]
    assert _params(_label_one_dataset) == ["entry", "thre", "cv_cfg"]
    assert _params(label_corpus) == ["spark", "corpus", "thre", "cv_cfg"]
    assert _params(FPEModel.fit) == ["corpus", "labels", "fixed_variant", "d_options", "seed"]
    assert _params(train_fpe_models) == ["spark"]
    assert _params(table1) == []
    assert _params(split_indices) == ["n", "seed"]
    assert _params(run_dl_fe) == ["X", "y", "task", "seed"]
    assert _params(bin_features) == ["X"]
    assert _params(make_tabular) == [
        "task", "n_samples", "n_features", "n_informative", "noise", "seed",
    ]


def test_model_signatures():
    assert _params(LinearSVM) == ["seed"]
    assert _params(GPRegressor) == []
    assert _params(GaussianNB) == []
    assert _params(FullBatchNet) == ["task", "epochs", "seed"]
    assert _params(MLP) == ["task", "hidden", "epochs", "seed"]
    assert _params(TabularResNet) == ["task", "seed"]
