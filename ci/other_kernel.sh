#!/usr/bin/env bash
# Tier-1 tests on other OpenBLAS kernels, one run per kernel named in
# OPENBLAS_CORETYPE (space-separated; by default Haswell, SandyBridge and
# Nehalem: AVX2, AVX and SSE4.2).  Every test runs but the ones marked
# kernel_bytes, whose byte pins hold on one kernel only (ROADMAP item 1), and
# acceptance criterion 3, which fails by design; a test that comes to depend
# on the kernel fails here.  OpenBLAS loads its detected kernel for a name it
# does not know, so each kernel's run first reads the "Core:" line that
# OPENBLAS_VERBOSE=2 prints at import, and fails unless it names that kernel
# (in any case).  Each kernel's loaded core and counts are printed at the end,
# and the script fails if any kernel's run does.  Extra arguments go to pytest.
set -uo pipefail
cd "$(dirname "$0")/.."
kernels=${OPENBLAS_CORETYPE:-Haswell SandyBridge Nehalem}
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
counts=()
for kernel in $kernels; do
  core=$(OPENBLAS_VERBOSE=2 OPENBLAS_CORETYPE=$kernel python -c "import numpy" 2>&1 >/dev/null |
         sed -n 's/^Core: //p')
  echo "OPENBLAS_CORETYPE=$kernel loads core ${core:-(none named)}"
  if [ "${core,,}" != "${kernel,,}" ]; then
    status=1
    counts+=("$kernel: core ${core:-(none named)} loaded instead; not run")
    continue
  fi
  OPENBLAS_CORETYPE=$kernel PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q \
    -m "not kernel_bytes" \
    --deselect tests/test_acceptance.py::TestCriterion3::test_misspecified_k_means "$@" \
    | tee "$log" || status=1
  counts+=("$kernel (core $core): $(tail -n 1 "$log")")
done
printf '%s\n' "${counts[@]}"
exit $status
