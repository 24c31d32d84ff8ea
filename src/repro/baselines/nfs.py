"""NFS (Neural Feature Search, Chen et al. ICDM'19) baseline.

Same per-feature RNN agents and operator set as E-AFE, but: no FPE
pre-filtering (every generated feature is evaluated on the downstream
Random-Forest cross-validation), single-stage plain policy-gradient
training (no λ-returns, no replay buffer), and no de-duplication — a
re-generated transformation is re-evaluated, which is precisely the cost
Table I dissects and Table IV counts.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.eafe import AFEConfig, AFEResult, run_afe

__all__ = ["nfs_config", "run_nfs"]


def nfs_config(base: AFEConfig | None = None) -> AFEConfig:
    """The engine configuration that realizes NFS: ``base`` with no gate
    (hence no de-duplication) and single-stage training; every other
    field carries over."""
    return replace(base or AFEConfig(), gate="none", two_stage=False)


def run_nfs(
    X: np.ndarray, y: np.ndarray, task: str, cfg: AFEConfig | None = None
) -> AFEResult:
    return run_afe(X, y, task, cfg=nfs_config(cfg))
