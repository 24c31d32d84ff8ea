"""In-memory span tracer that wraps the repro layers from outside.

``Tracer.install()`` replaces each traced function with a recording
wrapper at *every* import site: the defining module and every other
loaded ``repro`` module that bound the same object under some name
(``core.eafe``, ``core.fpe`` and ``baselines.autofs`` each hold their own
``cross_val_score``). Methods are wrapped on their class, so every
caller sees them. ``uninstall()`` puts the original objects back.

A span is ``[name, start, end, parent_index]``; all spans of one traced
run share the tracer's ``run_id``. Spans stay in memory until
``dump()`` writes them out. Only the driver process is traced: Spark
workers import the unwrapped modules.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute, class or None, layer, reentrant)
# reentrant=False records only the outermost call of a recursive function.
TARGETS = (
    ("forest.cross_val_score", "repro.ml.forest", "cross_val_score", None, "ml.forest", True),
    ("forest.RandomForest.fit", "repro.ml.forest", "fit", "RandomForest", "ml.forest", True),
    ("tree.DecisionTree.fit", "repro.ml.tree", "fit", "DecisionTree", "ml.tree", True),
    ("tree.bin_features", "repro.ml.tree", "bin_features", None, "ml.tree", True),
    ("tree.apply_bins", "repro.ml.tree", "apply_bins", None, "ml.tree", True),
    ("minhash.select_indices", "repro.hashing.minhash", "select_indices", None, "hashing.minhash", True),
    ("fpe.feature_signature", "repro.core.fpe", "feature_signature", None, "core.fpe", True),
    ("fpe.predict_proba", "repro.core.fpe", "predict_proba", "FPEModel", "core.fpe", True),
    ("fpe.label_corpus", "repro.core.fpe", "label_corpus", None, "core.fpe", True),
    ("fpe.FPEModel.fit", "repro.core.fpe", "fit", "FPEModel", "core.fpe", True),
    ("policy.act", "repro.core.policy", "act", "AgentPolicy", "core.policy", True),
    ("policy.update", "repro.core.policy", "update", "AgentPolicy", "core.policy", True),
    ("transform.to_numpy", "repro.core.transform", "to_numpy", "FeatureSpec", "core.transform", False),
    ("eafe.run_afe", "repro.core.eafe", "run_afe", None, "core.eafe", True),
    ("harness.run_grid", "repro.bench.harness", "run_grid", None, "bench.harness", True),
)

LAYERS = tuple(dict.fromkeys(t[4] for t in TARGETS))
_LAYER_OF = {t[0]: t[4] for t in TARGETS}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.sites: list[str] = []  # "module.attr" of every patched site

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, reentrant: bool):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not reentrant and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        wrapper.__traced__ = name
        return wrapper

    def _patch(self, owner, attr: str, new, site: str) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        self.sites.append(site)
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every target first, so that the import sites they create
        # (e.g. baselines.autofs, imported by bench.harness) are patched too.
        mods = {t[1]: importlib.import_module(t[1]) for t in TARGETS}
        for name, modname, attr, clsname, _layer, reentrant in TARGETS:
            mod = mods[modname]
            if clsname is not None:
                cls = getattr(mod, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, reentrant))
                else:
                    new = self._wrap(name, raw, reentrant)
                self._patch(cls, attr, new, f"{modname}.{clsname}.{attr}")
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig, reentrant)
            for site in list(sys.modules.values()):
                if not getattr(site, "__name__", "").startswith("repro"):
                    continue
                for key, val in list(vars(site).items()):
                    if val is orig:
                        self._patch(site, key, wrapper, f"{site.__name__}.{key}")
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.sites.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) seconds, self seconds and
        the sorted durations; per layer: self seconds."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durs": []})
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            d = t1 - t0
            s = by_name[name]
            s["calls"] += 1
            s["busy_s"] += d
            s["self_s"] += d - child[i]
            s["durs"].append(d)
            layer_self[_LAYER_OF[name]] += d - child[i]
        for s in by_name.values():
            s["durs"].sort()
        return {"spans": dict(by_name), "layer_self_s": layer_self}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def percentile_ms(durs: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted durations, in milliseconds."""
    if not durs:
        return 0.0
    k = min(len(durs) - 1, max(0, int(round(q * (len(durs) - 1)))))
    return 1000.0 * durs[k]
