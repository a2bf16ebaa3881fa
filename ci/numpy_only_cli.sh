#!/usr/bin/env bash
# The README's CLI lines on numpy alone, pyproject.toml's one dependency:
# simulate, estimate, tuned select-r with its trace and variance CSV, bench,
# forecast --panel, forecast --mortality by tnh and by cf on a table that
# perfbench's generator writes, both --help pages and the flags built from the
# SELECT and FORECAST tables.  Each must exit 0.
#
#   ci/numpy_only_cli.sh --venv   installs the package, without the test extra,
#                                 into a fresh venv (needs the package index)
#   ci/numpy_only_cli.sh          runs src/ on this Python with `import scipy`
#                                 blocked (offline)
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
if [ "${1:-}" = --venv ]; then
  mode="a fresh venv without scipy"
  python -m venv "$work/venv"
  "$work/venv/bin/pip" install "$repo"
  py="$work/venv/bin/python"
  hdffm=("$work/venv/bin/hdffm")
  "$py" -c "import importlib.util as u; assert not u.find_spec('scipy')"
else
  mode="this Python with scipy's import blocked"
  mkdir "$work/block"
  echo 'raise ImportError("scipy is blocked: the CLI runs on numpy alone")' > "$work/block/scipy.py"
  export PYTHONPATH="$work/block:$repo/src"
  py=python
  hdffm=("$py" -m hdffm.cli)
  if "$py" -c "import scipy" 2>/dev/null; then
    echo "scipy still imports" >&2
    exit 1
  fi
fi
echo "numpy-only CLI on $mode"
cd "$work"
echo '{"dgp": 1, "N": 50, "T": 100, "seed": 7}' > dgp.json
"${hdffm[@]}" simulate --config dgp.json --out-panel panel.json --out-truth truth.json
"${hdffm[@]}" estimate --panel panel.json --k 3 --out fit.json
"${hdffm[@]}" select-r --panel panel.json --trace trace.json --variance-csv profile.csv
echo '{"dgps":[1],"N":[10,25],"T":[50],"replications":10,"k":[3],"seed":0}' > bench.json
"${hdffm[@]}" bench --spec bench.json --out bench.csv
"${hdffm[@]}" forecast --panel panel.json --horizon 3 --out forecast.json
"$py" -c "import sys; sys.path.insert(0, '$repo/perfbench'); import mortality_csv; mortality_csv.write_csv('rates.csv', 1, 4, 26)"
"${hdffm[@]}" forecast --mortality rates.csv --sex F --horizon 5 --method tnh --out table.csv
"${hdffm[@]}" forecast --mortality rates.csv --sex F --horizon 5 --method cf --out table_cf.csv
"${hdffm[@]}" select-r --help > /dev/null
"${hdffm[@]}" forecast --help > /dev/null
"${hdffm[@]}" select-r --panel panel.json --method fixed --c 1.0 --k-max 8
"${hdffm[@]}" forecast --panel panel.json --horizon 2 --method cf --n-components 3 --p-max 3
echo "numpy-only CLI: 12 commands exited 0 on $mode"
