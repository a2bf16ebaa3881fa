#!/usr/bin/env bash
# Tier-1 tests on another OpenBLAS kernel: Haswell (AVX2) unless
# OPENBLAS_CORETYPE names one.  Every test runs but the ones marked
# kernel_bytes, whose byte pins hold on one kernel only (ROADMAP item 1), and
# acceptance criterion 3, which fails by design; a test that comes to depend
# on the kernel fails here.  Extra arguments go to pytest.
set -euo pipefail
cd "$(dirname "$0")/.."
export OPENBLAS_CORETYPE=${OPENBLAS_CORETYPE:-Haswell}
echo "OPENBLAS_CORETYPE=$OPENBLAS_CORETYPE"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python -m pytest -q -m "not kernel_bytes" \
  --deselect tests/test_acceptance.py::TestCriterion3::test_misspecified_k_means "$@"
