#!/usr/bin/env bash
# Tier-1 tests on other OpenBLAS kernels, one run per kernel named in
# OPENBLAS_CORETYPE (space-separated; by default Haswell, SandyBridge and
# Nehalem: AVX2, AVX and SSE4.2).  Every test runs but the ones marked
# kernel_bytes, whose byte pins hold on one kernel only (ROADMAP item 1), and
# acceptance criterion 3, which fails by design; a test that comes to depend
# on the kernel fails here.  Each kernel's counts are printed at the end, and
# the script fails if any kernel's run does.  Extra arguments go to pytest.
set -uo pipefail
cd "$(dirname "$0")/.."
kernels=${OPENBLAS_CORETYPE:-Haswell SandyBridge Nehalem}
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
counts=()
for kernel in $kernels; do
  echo "OPENBLAS_CORETYPE=$kernel"
  OPENBLAS_CORETYPE=$kernel PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    -m "not kernel_bytes" \
    --deselect tests/test_acceptance.py::TestCriterion3::test_misspecified_k_means "$@" \
    | tee "$log" || status=1
  counts+=("$kernel: $(tail -n 1 "$log")")
done
printf '%s\n' "${counts[@]}"
exit $status
