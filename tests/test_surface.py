"""The settable surface: every field and parameter here has a caller that
sets it. A value nothing sets is a module constant instead (tests patch
it with ``monkeypatch.setattr``), so adding one back must change this file.
Likewise every ``AFEResult`` field has a reader."""
import inspect
from dataclasses import fields

from repro.bench.artifacts import get_fpe_models, get_grid
from repro.core.eafe import AFEConfig, AFEResult
from repro.core.fpe import _label_one_dataset
from repro.core.policy import AgentPolicy


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
        "eval_time", "total_time", "selected_specs", "feature_names", "kept_columns",
    ]


def test_signatures():
    assert _params(AgentPolicy) == ["seed"]
    assert _params(_label_one_dataset) == ["entry", "thre", "cv_cfg"]
    assert _params(get_grid) == ["spark", "refresh"]
    assert _params(get_fpe_models) == ["spark", "refresh"]
