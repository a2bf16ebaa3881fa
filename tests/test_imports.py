import os
import subprocess
import sys

import hdffm

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hdffm.__file__)))


def test_package_and_cli_import_no_scipy():
    # scipy costs about a second per process; only B-spline bases load it, on first use
    code = (
        "import sys, hdffm, hdffm.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "basis = hdffm.build_bspline((0.0, 95.0), dim=9)\n"
        "assert abs(basis.evaluate([0.0, 47.5, 95.0]).sum(axis=1) - 1.0).max() < 1e-12\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
