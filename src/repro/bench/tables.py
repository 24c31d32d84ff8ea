"""Builders that turn harness output into the paper's tables.

Each ``tableN`` function returns a tidy pandas frame with the measured
numbers joined against the paper's published values (from
``paper_numbers``), so EXPERIMENTS.md can diff them row by row.
``to_markdown_table`` renders frames for the report.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..baselines.nfs import run_nfs
from ..core.eafe import AFEConfig
from ..stats import paired_t_test
from . import paper_numbers as P
from .datasets import TABLE1_DATASETS, by_name, load_dataset

__all__ = [
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "to_markdown_table",
]


def table1() -> pd.DataFrame:
    """Table I: one NFS epoch — where does the time go?

    Runs an instrumented single-epoch NFS (seed 0) on the paper's four
    datasets and reports generation vs evaluation time next to the paper's
    measurements. The claim under test is the *split* (evaluation is
    ~90%+, generation ~0.1–1%), not the absolute seconds.
    """
    rows = []
    for name in TABLE1_DATASETS:
        spec = by_name(name)
        X_pdf, y = load_dataset(spec)
        cfg = AFEConfig(epochs_stage1=0, epochs_stage2=1)
        r = run_nfs(X_pdf.values, y, spec.task, cfg)
        p_inst, p_feat, p_new, p_gen_ms, p_eval_s, p_total_s = P.TABLE1[name]
        rows.append(
            {
                "dataset": name,
                "instances": spec.n_samples,
                "features": spec.n_features,
                "new_features": r.n_generated,
                "gen_time_s": r.gen_time,
                "eval_time_s": r.eval_time,
                "total_time_s": r.total_time,
                "eval_share": r.eval_time / r.total_time if r.total_time else np.nan,
                "paper_new_features": p_new,
                "paper_gen_time_s": p_gen_ms / 1000.0,
                "paper_eval_time_s": p_eval_s,
                "paper_total_time_s": p_total_s,
                "paper_eval_share": p_eval_s / p_total_s,
            }
        )
    return pd.DataFrame(rows)


def table3(grid: pd.DataFrame) -> pd.DataFrame:
    """Table III: scores per dataset x method, with paper values."""
    ours = grid[["dataset", "method", "score", "task"]].copy()
    out = ours.merge(P.table3_frame(), on=["dataset", "method"], how="left")
    return out.sort_values(["dataset", "method"]).reset_index(drop=True)


def table4(grid: pd.DataFrame) -> pd.DataFrame:
    """Table IV: downstream feature-evaluation counts per run.

    The paper reports one-epoch counts at its scale; ours are whole-run
    counts at the scaled setting — the comparable quantity is each
    method's count *relative to NFS*, reported as ``ratio_vs_nfs``.
    """
    keep = grid[grid["method"].isin(["FS_R", "NFS", "E-AFE_D", "E-AFE"])]
    ours = keep[["dataset", "method", "n_evaluated"]].copy()
    nfs = ours[ours["method"] == "NFS"][["dataset", "n_evaluated"]].rename(
        columns={"n_evaluated": "nfs_evals"}
    )
    out = ours.merge(nfs, on="dataset", how="left")
    out["ratio_vs_nfs"] = out["n_evaluated"] / out["nfs_evals"]
    paper = P.table4_frame()
    paper_nfs = paper[paper["method"] == "NFS"][["dataset", "paper_evals"]].rename(
        columns={"paper_evals": "paper_nfs_evals"}
    )
    paper = paper.merge(paper_nfs, on="dataset")
    paper["paper_ratio_vs_nfs"] = paper["paper_evals"] / paper["paper_nfs_evals"]
    out = out.merge(
        paper[["dataset", "method", "paper_evals", "paper_ratio_vs_nfs"]],
        on=["dataset", "method"],
        how="left",
    )
    return out.sort_values(["dataset", "method"]).reset_index(drop=True)


def table5(grid: pd.DataFrame) -> pd.DataFrame:
    """Table V: cached features re-scored with SVM / NB-or-GP / MLP."""
    keep = grid[grid["method"].isin(["FS_R", "NFS", "E-AFE"])]
    ours = keep[["dataset", "task", "method", "svm", "nbgp", "mlp"]].copy()
    out = ours.merge(P.table5_frame(), on=["dataset", "method"], how="left")
    return out.sort_values(["dataset", "method"]).reset_index(drop=True)


def table6(grid: pd.DataFrame) -> pd.DataFrame:
    """Table VI: paired t-test p-values, E-AFE vs each baseline, on both
    performance (score) and efficiency (wall time)."""
    rows = []
    pivot_s = grid.pivot_table(index="dataset", columns="method", values="score")
    pivot_t = grid.pivot_table(index="dataset", columns="method", values="time_s")
    for baseline in ["FS_R", "DL_N", "NFS"]:
        if baseline not in pivot_s.columns or "E-AFE" not in pivot_s.columns:
            continue
        common = pivot_s[[baseline, "E-AFE"]].dropna()
        _, p_perf = paired_t_test(common["E-AFE"], common[baseline])
        row = {
            "baseline": baseline,
            "p_performance": p_perf,
            "paper_p_performance": P.TABLE6["performance"][baseline],
        }
        if baseline in pivot_t.columns:
            common_t = pivot_t[[baseline, "E-AFE"]].dropna()
            if len(common_t) >= 2:
                _, p_time = paired_t_test(common_t[baseline], common_t["E-AFE"])
                row["p_time"] = p_time
        row["paper_p_time"] = P.TABLE6["time"][baseline]
        rows.append(row)
    return pd.DataFrame(rows)


def to_markdown_table(df: pd.DataFrame, floatfmt: int = 3) -> str:
    """Render a frame as a GitHub markdown table (no external deps)."""
    d = df.copy()
    for c in d.columns:
        if pd.api.types.is_float_dtype(d[c]):
            d[c] = d[c].map(
                lambda v: "" if pd.isna(v) else (
                    f"{v:.2e}" if (v != 0 and abs(v) < 10 ** (-floatfmt)) else f"{v:.{floatfmt}f}"
                )
            )
    header = "| " + " | ".join(map(str, d.columns)) + " |"
    sep = "|" + "|".join(["---"] * len(d.columns)) + "|"
    body = ["| " + " | ".join("" if pd.isna(v) else str(v) for v in row) + " |"
            for row in d.itertuples(index=False)]
    return "\n".join([header, sep, *body])
