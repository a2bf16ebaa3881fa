import os
import subprocess
import sys

import hdffm
from test_cli import write_synthetic_mortality

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hdffm.__file__)))
NO_SCIPY = (
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "assert not loaded, loaded\n"
)


def run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_package_and_cli_import_no_scipy():
    # scipy costs about half a second per process, and the package runs on numpy alone
    code = (
        "import sys, hdffm, hdffm.cli\n" + NO_SCIPY +
        "basis = hdffm.build_bspline((0.0, 95.0), dim=9)\n"
        "assert abs(basis.evaluate([0.0, 47.5, 95.0]).sum(axis=1) - 1.0).max() < 1e-12\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_mortality_forecast_loads_no_scipy(tmp_path):
    path = tmp_path / "mort.csv"
    write_synthetic_mortality(path, n_pref=2, n_years=20)
    argv = ["forecast", "--mortality", str(path), "--horizon", "1", "--p-max", "2",
            "--fixed-r", "1", "--out", str(tmp_path / "table.csv")]
    # the process pool, and with it multiprocessing, belongs to bench alone
    proc = run_python(f"import sys\nfrom hdffm.cli import main\nassert main({argv!r}) == 0\n"
                      + NO_SCIPY + "assert 'multiprocessing' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "table.csv").exists()
