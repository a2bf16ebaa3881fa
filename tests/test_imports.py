import ast
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


def src_modules() -> dict:
    """The syntax tree of every ``src/hdffm/*.py``, by module name."""
    package = os.path.join(SRC, "hdffm")
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def imported_names(tree) -> list:
    """(module, name) of every name an import statement of ``tree`` binds; a
    plain ``import`` binds the module itself, with name None."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [("." * node.level + (node.module or ""), alias.name) for alias in node.names]
    return out


def test_no_module_imports_a_private_name_of_files():
    # hdffm.files owns every document; its underscore names stay inside it
    leaks = []
    for module, tree in src_modules().items():
        for source, name in imported_names(tree):
            if source in (".files", "hdffm.files") and (name or "").startswith("_"):
                leaks.append(f"{module}: {name}")
            if source in (".", "hdffm") and name == "files":
                leaks += [f"{module}: files.{node.attr}" for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                          and node.value.id == "files" and node.attr.startswith("_")]
    assert leaks == []


def test_model_modules_read_and_write_no_files():
    # the JSON and CSV formats live in hdffm.files, not beside the numerics
    trees = src_modules()
    for module in ("panel", "estimate", "select"):
        modules = {source for source, _ in imported_names(trees[module])}
        assert not modules & {"json", "csv"}, module


def test_only_files_reads_csv():
    # which rows of a CSV are data is decided once, in hdffm.files.csv_rows
    readers = [module for module, tree in src_modules().items()
               if "csv" in {source for source, _ in imported_names(tree)}]
    assert readers == ["files"]


def test_metrics_imports_only_panel_at_run_time():
    # the error functionals name fits and ground truths in annotations only,
    # so importing them loads neither the estimator nor the generator
    tree = src_modules()["metrics"]
    guarded = {id(node) for stmt in tree.body if isinstance(stmt, ast.If)
               and ast.unparse(stmt.test) == "TYPE_CHECKING" for node in ast.walk(stmt)}
    run_time = {source for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in guarded
                for source, _ in imported_names(node) if source.startswith(".")}
    assert run_time == {".panel"}


def test_every_file_parses_as_python_3_10():
    # pyproject.toml requires Python >= 3.10: no grammar newer than 3.10 (such
    # as except*) in the package, its tests or the benchmark; names the 3.10
    # standard library lacks are not checked here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(folder, name) for top in ("src", "tests", "perfbench")
             for folder, _, names in os.walk(os.path.join(root, top))
             for name in sorted(names) if name.endswith(".py")]
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), path, feature_version=(3, 10))
