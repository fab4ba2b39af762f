"""Cold start: which scipy subpackages each entry point loads, and when the pool starts.

The package imports scipy's top-level package, which loads a subpackage on
first use, and each call site names its subpackage, so a command loads only
what it runs.  Importing the package loads neither ``fractions`` nor
``decimal``.  The harness's worker pool starts at the first call with more
than one worker.  Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specrisk

PACKAGE = Path(specrisk.__file__).resolve().parent
GUARDED = ("scipy.integrate", "scipy.signal", "scipy.special", "scipy.stats")


def _fresh(script: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str) -> list[str]:
    """The guarded subpackages loaded after ``code`` runs in a fresh interpreter."""
    return _fresh(
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {GUARDED!r} if m in sys.modules]))"
    )


@pytest.fixture
def claims_file(tmp_path):
    path = tmp_path / "claims.csv"
    rows = [f"{1.0 + 0.37 * i:.2f},{0.05 * (i % 7):.2f},{int(i % 5 != 0)}" for i in range(40)]
    path.write_text("y,t,delta\n" + "\n".join(rows) + "\n")
    return path


def _estimate(path: Path, out: Path, estimators: str) -> str:
    argv = ["estimate", "--input", str(path), "--estimators", estimators,
            "--bootstrap", "60", "--out", str(out)]
    return f"from specrisk.cli import main\nassert main({argv!r}) == 0"


def test_import_loads_no_subpackage():
    assert _loaded_after("import specrisk, specrisk.cli") == []


def test_import_loads_no_rational_arithmetic():
    # the product-limit fit is float arithmetic; exact rationals are test oracles
    loaded = _fresh(
        "import json, sys\nimport specrisk, specrisk.cli\n"
        "print(json.dumps([m for m in ('fractions', 'decimal') if m in sys.modules]))"
    )
    assert loaded == []


def test_product_limit_estimate_loads_no_subpackage(claims_file, tmp_path):
    assert _loaded_after(_estimate(claims_file, tmp_path / "out", "prod,emp")) == []


def test_edgeworth_cdf_loads_no_stats():
    code = (
        "from specrisk import EdgeworthDiagnostics, edgeworth_cdf\n"
        "diag = EdgeworthDiagnostics(sigma01_sq=1.0, kappa3=0.5, sigma0_sq=1.0, "
        "sigma1_sq=0.25, n=50, level=0.5)\n"
        "assert 0.0 < edgeworth_cdf(diag, 0.3) < 1.0"
    )
    assert "scipy.stats" not in _loaded_after(code)


def test_kernel_estimate_loads_integrate_only_as_needed(claims_file, tmp_path):
    loaded = _loaded_after(_estimate(claims_file, tmp_path / "out", "kernel"))
    assert "scipy.integrate" in loaded
    assert "scipy.signal" not in loaded


def test_sources_name_subpackages_at_the_call_site():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "from scipy import" not in text, path.name
        assert "scipy.signal" not in text, path.name


def test_only_a_pooled_call_starts_the_pool():
    # [pool kept, Python threads, child processes] after import, after an
    # in-process run and after a run at two workers
    script = (
        "import dataclasses, json, multiprocessing, threading\n"
        "import specrisk\n"
        "from specrisk import harness\n"
        "def state():\n"
        "    return [harness._pool is not None, threading.active_count(),"
        " len(multiprocessing.active_children())]\n"
        "states = [state()]\n"
        "plan = harness.ExperimentPlan(design='iid-exp', n_grid=(20,), k_grid=(1.0,),"
        " replicates=4)\n"
        "harness.run_iid_experiment(plan)\n"
        "states.append(state())\n"
        "harness.run_iid_experiment(dataclasses.replace(plan, workers=2))\n"
        "states.append(state())\n"
        "print(json.dumps(states))"
    )
    imported, in_process, pooled = _fresh(script)
    assert imported == in_process == [False, 1, 0]
    assert pooled[0] and pooled[1] > 1 and pooled[2] == min(2, os.cpu_count() or 1)
