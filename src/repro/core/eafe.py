"""E-AFE — the paper's framework (Fig. 5, Algorithm 2) and its ablations.

One configurable engine drives every RL-based method in the tables:

- **E-AFE** (and the hash variants E-AFE^L/P/I): FPE pre-filtering +
  two-stage training (stage 1: FPE pseudo-rewards fill a replay buffer;
  stage 2: only FPE-positive candidates reach the downstream task).
- **E-AFE_D**: FPE replaced by a Bernoulli random dropout (ablation).
- **E-AFE_R**: FPE kept, but the two-stage λ-return machinery replaced
  by single-stage plain policy gradient (ablation).
- **NFS**: no FPE, single-stage policy gradient, *every* generated
  feature evaluated on the downstream task (the baseline whose cost
  Table I dissects).

The engine instruments exactly what the tables need: downstream
feature-evaluation counts (Table IV), generation vs evaluation wall time
(Table I), best score (Table III) and the selected feature specs
(cached for Table V's downstream-task replacement).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..ml.forest import BinnedFolds, RandomForest, cross_val_score
from .fpe import FPEModel
from .operators import ALL_OPS, BINARY_OPS
from .policy import AgentPolicy, state_embedding
from .replay import ReplayBuffer
from .rewards import discounted_returns, lambda_returns, pseudo_score
from .transform import FeatureSpec, apply_op, leaf

__all__ = [
    "AFEConfig",
    "AFEResult",
    "FeatureState",
    "final_report",
    "run_afe",
    "select_important_features",
    "build_feature_matrix",
]


@dataclass
class AFEConfig:
    """Knobs of the engine; defaults are the scaled reproduction setting.

    The paper trains 200 epochs per stage on full datasets; the scaled
    defaults keep every mechanism while fitting the repo's time budget
    (DESIGN.md §3). ``steps_per_agent`` is the paper's T.
    """

    epochs_stage1: int = 3
    epochs_stage2: int = 7
    steps_per_agent: int = 4
    max_order: int = 5
    gamma: float = 0.9
    lam: float = 0.8
    thre: float = 0.01
    max_agents: int = 10
    max_state_features: int = 24
    dropout_keep: float | None = None  # E-AFE_D: random keep probability
    two_stage: bool = True
    evaluate_all: bool = False  # NFS: no pre-filtering at all
    dedup: bool = True  # False for NFS/FS_R: re-generated specs re-evaluated
    # Stage-2 proposal width when an FPE gate is active: the agent's
    # action is applied to this many independently-sampled parent pairs
    # and only the FPE-top proposal goes to the gate. Generation is
    # ~free (Table I), so E-AFE reinvests its saved evaluation budget in
    # exploration — the paper's efficiency argument — while the
    # downstream-evaluation count stays at the gated ~50%.
    proposals_per_step: int = 2
    # Fraction of stage-2 steps whose top proposal clears the FPE gate.
    # 0.65 lands the evaluation count at ~0.4-0.5x NFS (which evaluates
    # every valid step), matching the paper's Table IV ratios.
    gate_keep: float = 0.65
    cv_k: int = 3
    cv_trees: int = 6
    # Final-report protocol: the score a method is credited with is a
    # single higher-fidelity CV of its *final selected feature set* (not
    # the max over in-loop evaluations, which would reward whichever
    # method runs the most noisy evaluations).
    final_cv_k: int = 5
    final_cv_trees: int = 12
    # In-loop acceptance margin: a candidate joins the state only if its
    # measured gain exceeds this, guarding against CV noise (the k=3
    # 6-tree evaluations have ~0.01 std) polluting the selected set.
    accept_margin: float = 0.005
    seed: int = 0


@dataclass
class AFEResult:
    base_score: float
    best_score: float
    n_generated: int = 0
    n_evaluated: int = 0  # downstream (RF-CV) evaluations of candidates
    gen_time: float = 0.0
    eval_time: float = 0.0
    total_time: float = 0.0
    selected_specs: list[FeatureSpec] = field(default_factory=list)
    feature_names: list[str] = field(default_factory=list)
    history: list[float] = field(default_factory=list)  # best score per epoch
    # Original-column indices the run kept (RF-importance pre-selection);
    # selected specs index into X[:, kept_columns].
    kept_columns: np.ndarray | None = None


def select_important_features(
    X: np.ndarray, y: np.ndarray, task: str, max_features: int, seed: int = 0
) -> np.ndarray:
    """RF-importance pre-selection (paper §IV-B: E-AFE 'first conducts
    feature selection of less than maximum features according to the
    feature importance via RF'). Returns kept column indices."""
    if X.shape[1] <= max_features:
        return np.arange(X.shape[1])
    rf = RandomForest(task=task, n_trees=10, max_depth=6, seed=seed)
    rf.fit(X, y)
    return np.sort(np.argsort(-rf.feature_importances_)[:max_features])


class FeatureState:
    """The matrix a run builds, the kept originals ``X`` plus the accepted
    columns, with its in-loop CV score.

    The matrix is held binned per fold (``BinnedFolds``), so scoring a
    candidate bins only the candidate's column. Building the state scores
    the originals; ``evaluate`` is one downstream evaluation of a
    candidate, counted in ``res.n_evaluated`` (Table IV). Both are timed
    into ``res.eval_time``. ``add`` accepts a candidate at the score that
    ``evaluate`` gave it, so ``score`` is always the matrix's own score.
    The state holds at most ``cfg.max_state_features`` accepted columns.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, task: str, cfg: AFEConfig, res: AFEResult):
        self.X, self.y, self.task, self.cfg, self.res = X, np.asarray(y), task, cfg, res
        self.columns: list[np.ndarray] = []
        t0 = time.perf_counter()
        self.binned = BinnedFolds(X, y, task, k=cfg.cv_k, seed=cfg.seed)
        self.score = self._cv(self.binned)
        res.eval_time += time.perf_counter() - t0

    def _cv(self, binned: BinnedFolds) -> float:
        return cross_val_score(
            binned, self.y, self.task, k=self.cfg.cv_k, n_trees=self.cfg.cv_trees,
            seed=self.cfg.seed,
        )

    @property
    def full(self) -> bool:
        return len(self.columns) >= self.cfg.max_state_features

    def evaluate(self, values: np.ndarray) -> float:
        """Score of the state with the candidate column ``values`` added."""
        t0 = time.perf_counter()
        s = self._cv(self.binned.append(values))
        self.res.eval_time += time.perf_counter() - t0
        self.res.n_evaluated += 1
        return s

    def add(self, values: np.ndarray, score: float) -> None:
        if self.full:
            raise ValueError("the state holds max_state_features columns already")
        self.binned = self.binned.append(values)
        self.columns.append(values)
        self.score = score

    def matrix(self) -> np.ndarray | None:
        """The state matrix, or None while no column is accepted."""
        if not self.columns:
            return None
        return np.concatenate([self.X] + [v[:, None] for v in self.columns], axis=1)


class _Engine:
    """Mutable run state shared by both training stages."""

    def __init__(self, X, y, task, fpe, cfg: AFEConfig):
        # The gate follows from the config: NFS evaluates everything,
        # E-AFE_D drops at random, every other method consults the FPE.
        self.fpe_gated = not cfg.evaluate_all and cfg.dropout_keep is None
        if self.fpe_gated and fpe is None:
            raise ValueError("this configuration requires a trained FPE model")
        self.cfg = cfg
        self.task = task
        self.y = np.asarray(y)
        self.fpe = fpe
        self.rng = np.random.default_rng(cfg.seed)
        keep = select_important_features(X, y, task, cfg.max_agents, cfg.seed)
        self.keep = keep
        self.X = np.asarray(X, dtype=np.float64)[:, keep]
        self.n = self.X.shape[0]
        self.n_agents = self.X.shape[1]
        # Subgroups: per agent, list of (spec, values). Specs use local
        # column indices into self.X.
        self.subgroups: list[list[tuple[FeatureSpec, np.ndarray]]] = [
            [(leaf(i), self.X[:, i])] for i in range(self.n_agents)
        ]
        self.agents = [
            AgentPolicy(seed=cfg.seed * 977 + i) for i in range(self.n_agents)
        ]
        self.buffer = ReplayBuffer()
        self._p_seen: list[float] = []
        # Accepted engineered features (beyond originals); their values
        # are the state's columns, in the same order.
        self.accepted: list[FeatureSpec] = []
        self.seen: set[str] = {f"f{i}" for i in range(self.n_agents)}
        self.res = AFEResult(base_score=0.0, best_score=0.0)
        self.state = FeatureState(self.X, self.y, task, cfg, self.res)
        self.base_score = self.state.score
        self.res.base_score = self.base_score
        self.res.best_score = self.base_score

    # -- helpers --------------------------------------------------------------

    def _generate(self, agent_idx: int, parent: FeatureSpec | None = None):
        """One action: sample parents, pick an operator via the policy,
        build the candidate spec + values. Returns None if the candidate
        is a duplicate or would exceed the maximum order."""
        cfg = self.cfg
        t0 = time.perf_counter()
        sub = self.subgroups[agent_idx]
        if parent is not None:
            s1 = parent
            v1 = s1.to_numpy(self.X)
        else:
            s1, v1 = sub[self.rng.integers(0, len(sub))]
        x_emb = state_embedding(v1, len(sub), len(self.res.history))
        a, cache = self.agents[agent_idx].act(x_emb)
        out = self._build_candidate(agent_idx, ALL_OPS[a], s1)
        self.res.gen_time += time.perf_counter() - t0
        return out, cache

    def _build_candidate(self, agent_idx: int, op: str, s1: FeatureSpec | None):
        """Apply ``op`` to (sampled) parents from the agent's subgroup;
        returns (spec, values) or None for over-order / duplicate /
        degenerate candidates. Policy-free — callers decide the action."""
        cfg = self.cfg
        sub = self.subgroups[agent_idx]
        if s1 is None:
            s1, _ = sub[self.rng.integers(0, len(sub))]
        s2, _ = sub[self.rng.integers(0, len(sub))]
        if op in BINARY_OPS:
            spec = apply_op(op, s1, s2)
        else:
            spec = apply_op(op, s1)
        if spec.order > cfg.max_order or (cfg.dedup and spec.name in self.seen):
            return None
        self.seen.add(spec.name)
        values = spec.to_numpy(self.X)
        # Degenerate candidates (constant or non-finite, e.g. sub(f,f))
        # are not countable "new features" — nothing could evaluate them.
        ok = bool(np.all(np.isfinite(values))) and values.std() > 0.0
        if not ok:
            return None
        self.res.n_generated += 1
        return (spec, values)

    def _passes_prefilter(self, values: np.ndarray) -> tuple[bool, float]:
        """FPE / dropout / none gate. Returns (keep, pseudo-probability).

        The FPE gate is self-calibrating per run: keep iff p is at or
        above the running median of probabilities seen on *this* dataset
        (0.5 until enough are seen). This holds the drop rate near the
        paper's ~0.5 on every dataset — the corpus-level calibration
        cannot guarantee that across distribution shifts — while still
        keeping the *better half* as ranked by FPE, which is where the
        advantage over E-AFE_D's blind 0.5 dropout comes from.
        """
        if self.fpe_gated:
            p = self._fpe_p(values)
            return p >= self._gate(), p
        if self.cfg.evaluate_all:
            return True, 0.5
        keep = bool(self.rng.random() < self.cfg.dropout_keep)
        return keep, (0.75 if keep else 0.25)

    def _fpe_p(self, values: np.ndarray) -> float:
        """FPE probability for a candidate, recorded for gate calibration."""
        p = self.fpe.predict_proba(values, self.y, self.task, context=self.X)
        self._p_seen.append(p)
        return p

    def _gate(self, quantile: float = 0.5) -> float:
        """Gate threshold from the run's own probability stream.

        The default median holds a ~0.5 drop rate for single proposals;
        best-of-k callers pass quantile 0.5^(1/k) so the *kept fraction
        of steps* stays ~0.5 (P(max of k i.i.d. draws >= q) = 1 - q^k)."""
        if len(self._p_seen) < 12:
            return 0.5
        return float(np.quantile(self._p_seen, quantile))

    def _accept(self, spec: FeatureSpec, values: np.ndarray, score: float):
        self.accepted.append(spec)
        self.state.add(values, score)
        self.subgroups[min(spec.leaves())].append((spec, values))

    # -- stages ----------------------------------------------------------------

    def stage1(self):
        """Quick initialization with the FPE model (Alg. 2 lines 1–14).

        No downstream evaluation at all: the FPE probability becomes a
        pseudo-score via Eq. 8 and its deltas drive the policy; positive
        features land in the replay buffer.
        """
        cfg = self.cfg
        for _ in range(cfg.epochs_stage1):
            for i in range(self.n_agents):
                steps: list[tuple[dict, float]] = []
                rewards: list[float] = []
                prev_a = self.base_score
                for _t in range(cfg.steps_per_agent):
                    out, cache = self._generate(i)
                    if out is None:
                        rewards.append(0.0)
                        steps.append((cache, 0.0))
                        continue
                    spec, values = out
                    keep, p = self._passes_prefilter(values)
                    a_h = pseudo_score(
                        p, self.base_score, self.fpe.d_a_max if self.fpe else 0.1,
                        self.fpe.d_a_min if self.fpe else -0.1, cfg.thre,
                    )
                    rewards.append(a_h - prev_a)
                    prev_a = a_h
                    steps.append((cache, 0.0))
                    if keep:
                        self.buffer.add(spec, i, p)
                        self.subgroups[i].append((spec, values))
                u = discounted_returns(np.array(rewards), cfg.gamma)
                self.agents[i].update(
                    [(c, float(u[k])) for k, (c, _) in enumerate(steps)]
                )
            self.res.history.append(self.res.best_score)

    def stage2(self, epochs: int, use_lambda: bool):
        """Formal training (Alg. 2 lines 15–21) — also the whole training
        loop for the single-stage methods (NFS, E-AFE_R), which call this
        directly with ``use_lambda=False``."""
        cfg = self.cfg
        for _ in range(epochs):
            for i in range(self.n_agents):
                steps: list[tuple[dict, float]] = []
                rewards: list[float] = []
                parents = [e.spec for e in self.buffer.entries() if e.agent == i]
                for t in range(cfg.steps_per_agent):
                    # Seed half the steps from the replay buffer, the rest
                    # from the live subgroup, to avoid re-deriving the
                    # same compositions from a small buffer every epoch.
                    parent = (
                        parents[self.rng.integers(0, len(parents))]
                        if parents and self.rng.random() < 0.5
                        else None
                    )
                    out, cache = self._generate(i, parent=parent)
                    if out is None:
                        rewards.append(0.0)
                        steps.append((cache, 0.0))
                        continue
                    if self.fpe_gated and cfg.proposals_per_step > 1:
                        # Best-of-k proposals: same policy action, extra
                        # parent samples; only the FPE-top one is gated.
                        cands = [out]
                        op = ALL_OPS[cache["a"]]
                        t0 = time.perf_counter()
                        for _ in range(cfg.proposals_per_step - 1):
                            extra = self._build_candidate(i, op, parent)
                            if extra is not None:
                                cands.append(extra)
                        self.res.gen_time += time.perf_counter() - t0
                        ps = [self._fpe_p(v) for _, v in cands]
                        j = int(np.argmax(ps))
                        spec, values = cands[j]
                        p = ps[j]
                        keep = p >= self._gate(
                            (1.0 - cfg.gate_keep) ** (1.0 / cfg.proposals_per_step)
                        )
                    else:
                        spec, values = out
                        keep, p = self._passes_prefilter(values)
                    if not keep:
                        # Filtered out: reward from the pseudo-score only.
                        cur = self.state.score
                        a_h = pseudo_score(
                            p, cur,
                            self.fpe.d_a_max if self.fpe else 0.1,
                            self.fpe.d_a_min if self.fpe else -0.1, cfg.thre,
                        )
                        rewards.append(a_h - cur)
                        steps.append((cache, 0.0))
                        continue
                    s = self.state.evaluate(values)
                    gain = s - self.state.score
                    rewards.append(gain)
                    steps.append((cache, 0.0))
                    # A full state accepts nothing more; a re-generated
                    # spec (dedup off) is already in the state.
                    if (
                        gain > cfg.accept_margin
                        and not self.state.full
                        and spec not in self.accepted
                    ):
                        self._accept(spec, values, s)
                        if s > self.res.best_score:
                            self.res.best_score = s
                r = np.array(rewards)
                u = lambda_returns(r, cfg.gamma, cfg.lam) if use_lambda else (
                    discounted_returns(r, cfg.gamma)
                )
                self.agents[i].update(
                    [(c, float(u[k])) for k, (c, _) in enumerate(steps)]
                )
            self.res.history.append(self.res.best_score)


def final_report(
    res: AFEResult,
    base: np.ndarray,
    selected: np.ndarray | None,
    y: np.ndarray,
    task: str,
    cfg: AFEConfig,
) -> AFEResult:
    """Credit ``res`` under the final-report protocol every method shares.

    The reported score is one higher-fidelity CV (``final_cv_k`` folds,
    ``final_cv_trees`` trees, a fold seed decorrelated from the in-loop
    folds) of the ``selected`` matrix, not the max over noisy in-loop
    evaluations. The originals ``base`` get the same CV and are the floor,
    since deploying them is always available; ``selected=None`` (nothing
    selected) scores ``base`` alone. The time is charged to ``eval_time``.
    """
    t0 = time.perf_counter()
    kw = dict(k=cfg.final_cv_k, n_trees=cfg.final_cv_trees, seed=cfg.seed * 7 + 917)
    res.base_score = cross_val_score(base, y, task, **kw)
    sel = res.base_score if selected is None else cross_val_score(selected, y, task, **kw)
    res.best_score = max(res.base_score, sel)
    res.eval_time += time.perf_counter() - t0
    return res


def run_afe(
    X: np.ndarray,
    y: np.ndarray,
    task: str,
    fpe: FPEModel | None = None,
    cfg: AFEConfig | None = None,
) -> AFEResult:
    """Run one AFE training on a dataset and return instrumented results.

    ``cfg`` flags pick the method (see module docstring). ``fpe`` may be
    None only when the config never consults it (NFS / dropout modes).
    """
    cfg = cfg or AFEConfig()
    t_start = time.perf_counter()
    eng = _Engine(X, y, task, fpe, cfg)
    # Fairness protocol (paper §IV-A4: "the training epoch of the
    # two-stage strategy is 200, respectively", same as the baselines'
    # formal epochs): every method gets ``epochs_stage2`` formal epochs;
    # two-stage methods additionally run ``epochs_stage1`` cheap
    # FPE-only epochs that never touch the downstream task.
    if cfg.two_stage:
        eng.stage1()
        eng.stage2(cfg.epochs_stage2, use_lambda=True)
    else:
        eng.stage2(cfg.epochs_stage2, use_lambda=False)
    res = eng.res
    res.selected_specs = list(eng.accepted)
    res.feature_names = [s.name for s in res.selected_specs]
    res.kept_columns = eng.keep
    final_report(res, eng.X, eng.state.matrix(), eng.y, task, cfg)
    res.total_time = time.perf_counter() - t_start
    return res


def build_feature_matrix(X: np.ndarray, res: AFEResult) -> np.ndarray:
    """Reconstruct the selected feature set (kept originals + engineered
    columns) from a finished run — Table V re-scores this matrix with
    replacement downstream models."""
    Xk = np.asarray(X, dtype=np.float64)[:, res.kept_columns]
    cols = [Xk] + [s.to_numpy(Xk)[:, None] for s in res.selected_specs]
    return np.concatenate(cols, axis=1)
