"""The reproduction entrypoint, ``jobs/run_all.py``, on a cached grid."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
JOB = ROOT / "jobs" / "run_all.py"


def test_cached_run_needs_no_spark_and_no_fpe(tmp_path):
    """With results/grid.csv present and no ``--refresh``, the job imports
    no pyspark (blocked as in ``test_feature_modules_import_without_pyspark``)
    and trains no FPE, and the Tables III-VI it builds from the cached grid
    equal the committed ones byte for byte."""
    shutil.copy(ROOT / "results" / "grid.csv", tmp_path / "grid.csv")
    code = (
        "import importlib.util, pathlib, sys; sys.modules['pyspark'] = None\n"
        f"spec = importlib.util.spec_from_file_location('run_all', {str(JOB)!r})\n"
        "job = importlib.util.module_from_spec(spec); spec.loader.exec_module(job)\n"
        f"job.RESULTS_DIR = pathlib.Path({str(tmp_path)!r})\n"
        "def no_fpe(*a, **k): raise AssertionError('a cached run trained FPE models')\n"
        "job.train_fpe_models = no_fpe\n"
        "sys.argv = [spec.origin]\n"
        "job.main()\n"
        "loaded = [m for m in sys.modules if m.startswith(('pyspark.', 'py4j'))]\n"
        "assert sys.modules['pyspark'] is None and not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    for n in (3, 4, 5, 6):
        name = f"table{n}.csv"
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes(), name
    assert (tmp_path / "table1.csv").exists() and (tmp_path / "tables.md").exists()
