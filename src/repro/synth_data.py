"""Synthetic tabular data for the E-AFE reproduction.

``make_tabular`` builds the 36 roster datasets (``bench/datasets.py``)
and ``fpe_corpus`` the FPE pre-training corpus. Both are deterministic
in ``seed``.
"""
import numpy as np
import pandas as pd


# --------------------------------------------------------------------------
# E-AFE reproduction: synthetic tabular datasets with planted interactions.
#
# The paper evaluates on 36 OpenML/UCI datasets and pre-trains FPE on 239
# public datasets; the box is offline, so we substitute a generator family
# whose targets depend on *compositions of the paper's own operator set*
# (products, ratios, logs, ... of raw columns). Feature generation can
# therefore genuinely raise downstream scores, which is the mechanism all
# the paper's tables measure. See DESIGN.md §3.
# --------------------------------------------------------------------------

_INTERACTIONS = (
    lambda a, b: a * b,
    lambda a, b: np.where(b != 0, np.divide(a, b, where=b != 0), 0.0),
    lambda a, b: np.log(np.abs(a) + 1.0) * b,
    lambda a, b: np.sqrt(np.abs(a)) - b,
    lambda a, b: a + b * b,
    lambda a, b: np.where(b != 0, np.fmod(a, np.where(b != 0, b, 1.0)), 0.0),
)


def _latent_score(Xz: np.ndarray, n_informative: int, g: np.random.Generator) -> np.ndarray:
    """Nonlinear latent score built from pairwise interactions of the
    first ``n_informative`` columns, reachable by the 9 AFE operators."""
    n_terms = max(2, n_informative - 1)
    s = np.zeros(len(Xz))
    for t in range(n_terms):
        i, j = g.choice(n_informative, size=2, replace=True)
        fn = _INTERACTIONS[g.integers(0, len(_INTERACTIONS))]
        w = g.normal(loc=0.0, scale=1.0)
        term = fn(Xz[:, i], Xz[:, j])
        sd = term.std()
        if sd > 0:
            s += w * (term - term.mean()) / sd
    return s


def make_tabular(
    *,
    task: str,
    n_samples: int,
    n_features: int,
    n_informative: int | None = None,
    n_classes: int = 2,
    noise: float = 0.1,
    seed: int = 0,
) -> tuple[pd.DataFrame, np.ndarray]:
    """Synthetic tabular dataset whose target needs engineered features.

    Returns (X as pandas with columns f0..f{N-1}, y as numpy). Columns
    beyond ``n_informative`` are pure distractors. ``task`` is 'C'
    (labels = quantile bins of the latent score, balanced) or 'R'
    (y = latent score + gaussian noise).
    """
    if task not in ("C", "R"):
        raise ValueError("task must be 'C' or 'R'")
    g = np.random.default_rng(seed)
    if n_informative is None:
        n_informative = max(2, min(6, n_features // 2))
    n_informative = min(n_informative, n_features)
    X = g.normal(size=(n_samples, n_features))
    # Give columns heterogeneous scales/offsets so min-max/log matter.
    scales = g.uniform(0.5, 3.0, n_features)
    offsets = g.uniform(-1.0, 1.0, n_features)
    X = X * scales + offsets
    s = _latent_score(X, n_informative, g)
    s = s + noise * (s.std() or 1.0) * g.normal(size=n_samples)
    if task == "C":
        qs = np.quantile(s, np.linspace(0, 1, n_classes + 1)[1:-1])
        y = np.digitize(s, qs).astype(np.int64)
    else:
        y = s.astype(np.float64)
    pdf = pd.DataFrame(X, columns=[f"f{i}" for i in range(n_features)])
    return pdf, y


def fpe_corpus(n_datasets: int = 24, seed: int = 1000) -> list[dict]:
    """The 'public datasets' substitute used to pre-train the FPE model.

    Mix of classification and regression datasets at varied shapes, all
    with seeds disjoint from the target roster (which uses seeds < 1000).
    Each entry: {name, task, X (pandas), y (numpy)}.
    """
    g = np.random.default_rng(seed)
    out = []
    for i in range(n_datasets):
        # Even task mix: the pre-selector must generalize to both the
        # F1-scored and the 1-rae-scored labeling distributions.
        task = "C" if i % 2 == 0 else "R"
        n = int(g.integers(150, 700))
        f = int(g.integers(6, 18))
        pdf, y = make_tabular(
            task=task,
            n_samples=n,
            n_features=f,
            n_informative=int(g.integers(2, max(3, f // 2))),
            noise=float(g.uniform(0.05, 0.3)),
            seed=seed + i + 1,
        )
        out.append({"name": f"corpus_{i}", "task": task, "X": pdf, "y": y})
    return out
