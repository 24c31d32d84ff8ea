"""Fast self-test of the benchmark at a tiny config.

    python3 afebench/selftest.py

Checks that
- the tracer wraps every import site of a traced function (including the
  private bindings in ``core.eafe``, ``core.fpe`` and ``baselines.autofs``),
  that calls through those sites are recorded, and that uninstalling puts
  every original object back;
- each workload, run tiny with and without tracing, emits exactly the
  end-to-end and per-layer metrics that ``BENCHMARK.json`` names, each
  with its unit, and passes its own output checks;
- in a directory holding only ``BENCHMARK.json`` and ``afebench/``, the
  benchmark exits non-zero without printing a result.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

# Import sites that must be wrapped: (module, attribute).
REQUIRED_SITES = (
    ("repro.ml.forest", "cross_val_score"),
    ("repro.core.eafe", "cross_val_score"),
    ("repro.core.fpe", "cross_val_score"),
    ("repro.baselines.autofs", "cross_val_score"),
    ("repro.hashing.minhash", "select_indices"),
    ("repro.core.fpe", "select_indices"),
    ("repro.core.eafe", "run_afe"),
    ("repro.baselines.nfs", "run_afe"),
    ("repro.bench.harness", "run_afe"),
    ("repro.bench.harness", "run_grid"),
    ("repro.ml.tree", "bin_features"),
    ("repro.ml.tree", "apply_bins"),
)


def fail(msg: str) -> None:
    print(f"SELFTEST FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_wrapping() -> None:
    import numpy as np

    # Loaded before the snapshot, so that restoring them can be checked.
    import repro.bench.harness  # noqa: F401
    from spans import TARGETS, Tracer

    def snapshot() -> dict:
        snap = {}
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro"):
                for k, v in vars(mod).items():
                    snap[(name, k)] = v
                    if isinstance(v, type):
                        for a, w in vars(v).items():
                            snap[(name, k, a)] = w
        return snap

    before = snapshot()
    tracer = Tracer("selftest")
    with tracer:
        for modname, attr in REQUIRED_SITES:
            obj = getattr(sys.modules[modname], attr)
            if not hasattr(obj, "__traced__"):
                fail(f"{modname}.{attr} is not wrapped")
        for _name, modname, attr, clsname, _layer, _re in TARGETS:
            if clsname is not None:
                raw = vars(getattr(sys.modules[modname], clsname))[attr]
                fn = getattr(raw, "__func__", raw)
                if not hasattr(fn, "__traced__"):
                    fail(f"{modname}.{clsname}.{attr} is not wrapped")
        # Calls through private bindings are recorded, nested correctly.
        from repro.core import fpe as fpe_mod

        g = np.random.default_rng(0)
        X = g.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        fpe_mod.feature_signature(X[:, 0], y, "C", d=8)
        fpe_mod.cross_val_score(X, y, "C", k=2, n_trees=2)
        sys.modules["repro.baselines.autofs"].cross_val_score(X, y, "C", k=2, n_trees=2)
    s = tracer.summary()["spans"]
    if s.get("minhash.select_indices", {}).get("calls") != 1:
        fail("select_indices called through core.fpe was not recorded")
    if s.get("forest.cross_val_score", {}).get("calls") != 2:
        fail("cross_val_score calls through core.fpe / baselines.autofs not both recorded")
    if s["tree.DecisionTree.fit"]["calls"] != 8:
        fail(f"expected 8 tree fits, saw {s['tree.DecisionTree.fit']['calls']}")
    parents = {sp[0]: tracer.spans[sp[3]][0] for sp in tracer.spans if sp[3] >= 0}
    if parents.get("minhash.select_indices") != "fpe.feature_signature":
        fail("select_indices span is not a child of feature_signature")
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or tracer.sites:
        fail(f"wrappers left after uninstall: {changed[:5]}")
    leftover = [k for k, v in after.items() if hasattr(getattr(v, "__func__", v), "__traced__")]
    if leftover:
        fail(f"traced objects still reachable: {leftover[:5]}")
    print("selftest: wrapping ok", file=sys.stderr)


def check_metrics(record: dict, expected: dict, trace: bool) -> None:
    res = record["result"]
    where = f"{record['workload']} trace={int(trace)}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        fail(f"{where}: checks failed: {record['problems']}")
    if set(res["metrics"]) != set(expected):
        fail(f"{where}: metric names differ: {set(res['metrics']) ^ set(expected)}")
    for k, v in res["metrics"].items():
        if v["unit"] != expected[k]:
            fail(f"{where}: {k} unit {v['unit']!r} != {expected[k]!r}")
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{where}: {k} value {v['value']!r}")
        if not trace and v["value"] <= 0:
            fail(f"{where}: end-to-end metric {k} is {v['value']}")
    if trace:
        share = res["metrics"]["trace.accounted_share"]["value"]
        if not 0.98 <= share <= 1.05:
            fail(f"{where}: layer self times account for {share:.3f} of total_time")


def check_workloads() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if e2e != run.END_TO_END or layers != run.PER_LAYER:
        fail("BENCHMARK.json metric names/units differ from run.py")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py")
    host, calib = run.host_record(), run.calibrate(reps=1)
    spark_wl, spark_setup_s = None, 0.0
    for name in run.WORKLOADS:
        wl = run.WORKLOAD_CLASSES[name](seed=0, tiny=True)
        if wl.uses_spark and spark_wl is not None:
            # One Spark session and FPE serve both Spark workloads.
            wl.spark, wl.fpe, wl.setup_layers = spark_wl.spark, spark_wl.fpe, spark_wl.setup_layers
            setup_s = spark_setup_s
        else:
            setup_s = wl.setup()
            if wl.uses_spark:
                spark_wl, spark_setup_s = wl, setup_s
        for trace in (False, True):
            rec = run.execute(wl, setup_s, 0.1, trace, host, calib)
            check_metrics(rec, layers if trace else e2e, trace)
        print(f"selftest: {name} ok", file=sys.stderr)
    if spark_wl is not None:
        spark_wl.close()


def check_bare_directory() -> None:
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "afebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "afebench/run.py", "--workload", "nfs_german", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    print("selftest: bare directory ok", file=sys.stderr)


def main() -> int:
    tmp = run._prepare_env()
    try:
        check_wrapping()
        check_workloads()
        check_bare_directory()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest: all ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
