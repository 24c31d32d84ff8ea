"""Feature Pre-Evaluation (FPE) model — paper §III-B, Algorithm 1.

Two modules: the MinHash **sample compressor** (``repro.hashing``) and
the **feature pre-selector**, a binary classifier pre-trained on a
corpus of datasets whose feature-effectiveness labels come from
leave-one-feature-out Random-Forest scoring (Eq. 3).

Label job (the expensive part of Algorithm 1 — n datasets x m features
RF cross-validations) fans out on Spark with ``repro.fanout.fan_out``:
one task per corpus dataset, the largest first. The hyperparameter
search of Eq. 6 (per hash family, the signature dimension d maximizing
validation recall s.t. Prec > 0 and Rec < 1) runs driver-side on the
labeled corpus — signatures are microseconds to compute next to the RF
fits.

Signature note (substitution, see DESIGN.md §3): Eq. 3's labels depend
on the *target*, so a classifier whose input is target-blind cannot
carry the labeling across datasets; we therefore compress the
(normalized feature value, normalized label) pair at the d hash-selected
rows — still exactly "the feature represented by respective values in d
samples", with the validness task's own target visible — and use a small
MLP as the binary classifier (the paper tunes its classifier with
auto-sklearn, i.e. the model family is free).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

from ..fanout import fan_out
from ..hashing.minhash import select_indices
from ..ml.forest import BinnedFolds, cross_val_score
from ..ml.metrics import precision_recall
from ..ml.mlp import MLP
from ..ml.tree import finite

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

__all__ = ["feature_signature", "label_corpus", "FPEModel"]

DEFAULT_D_OPTIONS = (16, 32, 48, 64)
# Eq. 3's labelling threshold: a feature is effective when its score gain
# exceeds it. Also Eq. 8's thre, through ``FPEModel.thre``.
LABEL_THRE = 0.01
# Share of the corpus datasets held out to validate each d (Eq. 6).
VAL_FRACTION = 0.3


def _minmax01_at(v: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows ``idx`` of ``v`` min-max scaled per column over all rows, with
    NaN/±inf read as 0; a constant column scales to 0. Only the selected
    rows are normalised."""
    v = finite(v)
    lo, hi = v.min(axis=0), v.max(axis=0)
    # A constant column has v - lo == 0, so dividing by 1 gives the 0.
    return (v[idx] - lo) / np.where(hi > lo, hi - lo, 1.0)


def _safe_corr(a: np.ndarray, b: np.ndarray) -> float:
    # max == min, not std() == 0: a constant column's std can round to ~1e-17.
    if a.max() == a.min() or b.max() == b.min():
        return 0.0
    c = float(np.corrcoef(a, b)[0, 1])
    return c if np.isfinite(c) else 0.0


def _corr_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``_safe_corr(a[i], b[i])`` for each row pair of two (m, n) arrays, bit
    for bit: ``np.corrcoef``'s arithmetic (centre each row, one product per
    2 x n pair, scale by 1/(n-1), divide by each std in turn, clip), stacked."""
    X = np.stack([a, b], axis=1)
    n = X.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        X -= X.mean(axis=-1)[..., None]
        c = np.matmul(X, X.transpose(0, 2, 1))
        c *= np.true_divide(1, n - 1)
        std = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
        r = np.clip(c[:, 0, 1] / std[:, 0] / std[:, 1], -1.0, 1.0)
    constant = (a.max(axis=1) == a.min(axis=1)) | (b.max(axis=1) == b.min(axis=1))
    return np.where(constant | ~np.isfinite(r), 0.0, r)


def feature_signature(
    x: np.ndarray,
    y: np.ndarray,
    task: str,
    d: int = 48,
    variant: str = "ccws",
    seed: int = 0,
    context: np.ndarray | None = None,
    exclude: int | None = None,
) -> np.ndarray:
    """Fixed-size (3d + 6,) signature of one feature under a task.

    MinHash selects d rows from the feature's weight profile; the
    signature is the normalized feature values and normalized labels
    (for ``task`` 'C', of the class indices in sorted label order) at
    those rows (so any sample count M compresses to the same shape),
    plus six scalars that are deterministic functions of the same
    compressed rows: target alignment (value and rank correlation with
    the label) and *redundancy* — the maximum/mean absolute correlation
    with the dataset's existing columns at the selected rows. Redundancy
    matters because the downstream forest is invariant to monotone
    transforms: a candidate can align perfectly with the target yet add
    nothing if it is a reshaping of a column the forest already has,
    and without this block the pre-selector systematically keeps such
    features (observed failure; see DESIGN.md §3).
    """
    idx = select_indices(x, d, variant, seed)
    if task == "C":  # class indices, so any label type signs alike
        y = np.unique(y, return_inverse=True)[1]
    xs_raw, ys_raw = _minmax01_at(x, idx), _minmax01_at(y, idx)
    # Canonicalize the arbitrary hash-slot order by sorting on the
    # feature value: a feature that relates to the target then shows a
    # stable trend in the label block, which a small classifier can
    # learn across datasets.
    order = np.argsort(xs_raw, kind="stable")
    xs, ys = xs_raw[order], ys_raw[order]
    pos = np.linspace(0.0, 1.0, len(xs))
    keep = [] if context is None else [j for j in range(context.shape[1]) if j != exclude]
    cs = _minmax01_at(context[:, keep], idx).T if keep else []
    # Every correlation in one stacked pass: (xs, ys), the rank alignment
    # (pos, ys), then xs_raw against each context column (redundancy).
    r = _corr_pairs(np.array([xs, pos, *[xs_raw] * len(keep)]), np.array([ys, ys, *cs]))
    c, cr, rs = r[0], r[1], np.abs(r[2:])
    red_max, red_mean = (float(rs.max()), float(rs.mean())) if keep else (0.0, 0.0)
    return np.concatenate(
        [xs, ys, xs * ys, [c, abs(c), cr, abs(cr), red_max, red_mean]]
    )


# ---------------------------------------------------------------------------
# Algorithm 1, lines 3–16: leave-one-feature-out labeling of the corpus.
# ---------------------------------------------------------------------------

_LABEL_SCHEMA = (
    "dataset string, task string, feature int, kind string, spec string, "
    "a0 double, aj double, gain double, label int"
)


# Random candidates labelled per corpus dataset ('gen' rows).
GENERATED_PER_DATASET = 25


def _random_spec(n_cols: int, max_order: int, rng: np.random.Generator):
    """A uniformly random transformation spec over ``n_cols`` columns —
    used to extend the labeling corpus with *generated* candidates, the
    distribution the pre-selector actually faces at deployment."""
    from .operators import ALL_OPS, BINARY_OPS
    from .transform import apply_op, leaf as _leaf

    spec = _leaf(int(rng.integers(0, n_cols)))
    order = int(rng.integers(1, max_order + 1))
    for _ in range(order):
        op = ALL_OPS[rng.integers(0, len(ALL_OPS))]
        if op in BINARY_OPS:
            spec = apply_op(op, spec, _leaf(int(rng.integers(0, n_cols))))
        else:
            spec = apply_op(op, spec)
    return spec


def _label_one_dataset(entry: dict, thre: float, cv_cfg: dict) -> pd.DataFrame:
    """Labeling rows for one corpus dataset (runs on a worker).

    Two kinds of rows: Eq. 3's leave-one-feature-out labels for the
    original features ('orig': gain = A_0 - A_j), and add-one labels for
    randomly generated candidates ('gen': gain = A_+j - A_0) — both are
    'does this feature carry value the task would miss', which is what
    the pre-selector must answer about RL-generated candidates.

    The dataset is binned per fold once: each leave-one-out score drops
    one column's codes and each add-one score bins only the candidate.
    """
    from .transform import is_usable  # local to keep worker imports lean

    X = entry["X"].values.astype(np.float64)
    y = np.asarray(entry["y"])
    task = entry["task"]
    state = BinnedFolds(X, y, task, k=cv_cfg.get("k", 3), seed=cv_cfg.get("seed", 0))
    a0 = cross_val_score(state, y, task, **cv_cfg)

    def row(feature: int, kind: str, spec: str, aj: float, gain: float) -> dict:
        return dict(dataset=entry["name"], task=task, feature=feature, kind=kind,
                    spec=spec, a0=a0, aj=aj, gain=gain, label=int(gain > thre))

    rows = []
    for j in range(X.shape[1]):
        aj = cross_val_score(state.drop(j), y, task, **cv_cfg)
        # gain: how much the dataset loses without feature j
        rows.append(row(j, "orig", f"f{j}", aj, a0 - aj))
    # zlib.crc32: python's hash() is salted per process, which would make
    # Spark workers and the driver label different generated specs.
    import zlib

    rng = np.random.default_rng(zlib.crc32(entry["name"].encode()))
    made = 0
    attempts = 0
    while made < GENERATED_PER_DATASET and attempts < GENERATED_PER_DATASET * 10:
        attempts += 1
        spec = _random_spec(X.shape[1], max_order=3, rng=rng)
        v = spec.to_numpy(X)
        if not is_usable(v):
            continue
        a_add = cross_val_score(state.append(v), y, task, **cv_cfg)
        # gain: how much the candidate adds
        rows.append(row(X.shape[1] + made, "gen", spec.name, a_add, a_add - a0))
        made += 1
    return pd.DataFrame(rows)


def label_corpus(
    spark: SparkSession,
    corpus: list[dict],
    thre: float = LABEL_THRE,
    cv_cfg: dict | None = None,
) -> pd.DataFrame:
    """Eq. 3 labels for every (dataset, feature) pair, fanned out on Spark.

    Each Spark task labels one corpus dataset (1 + m RF CVs), the largest
    datasets first; the corpus rides the closure (it is a few MB of
    synthetic pandas frames).
    """
    cv_cfg = cv_cfg or {}
    entries = sorted(corpus, key=lambda e: -e["X"].size)
    out = fan_out(
        spark, entries, lambda e: _label_one_dataset(e, thre, cv_cfg), _LABEL_SCHEMA
    )
    return out.sort_values(["dataset", "feature"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# The trained FPE model (Eq. 4–6).
# ---------------------------------------------------------------------------


@dataclass
class FPEModel:
    """Sample compressor + feature pre-selector, after Algorithm 1.

    ``d_a_max``/``d_a_min`` are the extreme observed score gains from the
    labeling pass — the DeltaA_max/DeltaA_min of Eq. 8.
    """

    variant: str = "ccws"
    d: int = 48
    thre: float = LABEL_THRE
    seed: int = 0
    d_a_max: float = 0.1
    d_a_min: float = -0.1
    recall_: float = float("nan")
    precision_: float = float("nan")
    # Decision threshold calibrated on the corpus's *generated* rows so
    # that the deployed drop rate is ~the paper's ">0.5" (§III-D); raw
    # MLP probabilities are uncalibrated, so a fixed 0.5 would give an
    # arbitrary keep rate. predict_proba rescales through this pivot so
    # Eq. 7/8's p=0.5 boundary keeps its meaning.
    threshold_: float = 0.5
    _clf: MLP | None = field(default=None, repr=False)

    # -- training ------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        corpus: list[dict],
        labels: pd.DataFrame,
        *,
        fixed_variant: str = "ccws",
        d_options: tuple[int, ...] = DEFAULT_D_OPTIONS,
        seed: int = 0,
    ) -> "FPEModel":
        """Search the signature dimension d maximizing validation recall
        (Eq. 6) for the hash family ``fixed_variant`` (the E-AFE^{L,P,I}
        table variants). Validation split is by *dataset* so recall
        measures cross-dataset generalization, as in the paper.
        """
        from .transform import parse_spec

        names = sorted({e["name"] for e in corpus})
        rng = np.random.default_rng(seed)
        n_val = max(1, int(len(names) * VAL_FRACTION))
        val_names = set(rng.choice(names, size=n_val, replace=False))
        # Each label row's signature inputs, built once: its column, target,
        # task, context, and the context column it excludes (an original
        # feature excludes itself; a generated one is compared to all).
        by_name = {e["name"]: (e, e["X"].values.astype(np.float64)) for e in corpus}
        cands = []
        for r in labels.itertuples():
            e, X = by_name[r.dataset]
            exclude = int(r.feature) if r.kind == "orig" else None
            cands.append((parse_spec(r.spec).to_numpy(X), e["y"], e["task"], X, exclude))
        L = labels["label"].to_numpy(np.int64)
        is_val = np.isin(labels["dataset"].to_numpy(), list(val_names))
        # With no positives on one side of the split, no d can be trained
        # or validated.
        if L[~is_val].sum() == 0 or L[is_val].sum() == 0:
            raise RuntimeError("FPE grid search found no trainable configuration")
        best = None
        for d in d_options:
            H = np.stack([
                feature_signature(x, y, task, d, fixed_variant, seed, context=X, exclude=ex)
                for x, y, task, X, ex in cands
            ])
            clf = MLP(task="C", hidden=(32, 16), epochs=150, seed=seed)
            clf.fit(H[~is_val], L[~is_val])
            prec, rec = precision_recall(L[is_val], clf.predict(H[is_val]))
            # Eq. 6 constraints: Prec > 0 rejects degenerate all-positive
            # output; Rec < 1 rejects trivial recall.
            key = (prec > 0.0 and rec < 1.0, rec, prec)
            if best is None or key > best[0]:
                best = (key, d, prec, rec, H)
        _, d, prec, rec, H = best
        model = cls(
            variant=fixed_variant,
            d=d,
            seed=seed,
            d_a_max=float(labels["gain"].max()),
            d_a_min=float(labels["gain"].min()),
            recall_=rec,
            precision_=prec,
        )
        # Final classifier retrained on the full corpus, on the search's
        # signatures at the chosen d.
        model._clf = MLP(task="C", hidden=(32, 16), epochs=200, seed=seed)
        model._clf.fit(H, L)
        # Calibrate the operating point on the generated-candidate rows
        # (the deployment distribution): median raw probability -> a
        # drop rate of ~0.5 for random candidates; a policy that
        # proposes better-than-random candidates then clears it more
        # than half the time, matching the paper's drop-rate claim.
        # One row per forward, as in predict_proba.
        gen_mask = (labels["kind"] == "gen").to_numpy()
        if gen_mask.any():
            raw = np.array([model._clf.class_proba(h[None, :], 1)[0] for h in H[gen_mask]])
            model.threshold_ = float(np.clip(np.median(raw), 0.05, 0.95))
        return model

    # -- inference -------------------------------------------------------------

    def predict_proba(
        self,
        x: np.ndarray,
        y: np.ndarray,
        task: str,
        context: np.ndarray | None = None,
    ) -> float:
        """Eq. 7: positive-class probability, rescaled so the calibrated
        operating point sits at 0.5 (piecewise-linear through
        ``threshold_``), keeping Eq. 8's pivot meaningful. ``context``
        is the current feature matrix, used for the redundancy block."""
        sig = feature_signature(
            x, y, task, self.d, self.variant, self.seed, context=context
        )
        raw = float(self._clf.class_proba(sig[None, :], 1)[0])
        t = self.threshold_
        if raw <= t:
            return 0.5 * raw / t if t > 0 else 0.0
        return 0.5 + 0.5 * (raw - t) / (1.0 - t) if t < 1 else 1.0
