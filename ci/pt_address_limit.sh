#!/usr/bin/env bash
# CI step: pt refuses an oversized ground manifold with exit 2 under a 2 GB address-space limit, without a traceback
set -e
echo '{"num_spins": 16, "couplings": [[0, 1, 1]]}' > "$RUNNER_TEMP/free16.json"
code=0
(ulimit -v 2000000; PYTHONPATH=src python -m qa_fairsample pt "$RUNNER_TEMP/free16.json") \
  > "$RUNNER_TEMP/free16.out" 2> "$RUNNER_TEMP/free16.err" || code=$?
cat "$RUNNER_TEMP/free16.err"
test "$code" -eq 2
test ! -s "$RUNNER_TEMP/free16.out"
grep -q '^error: ' "$RUNNER_TEMP/free16.err"
if grep -q Traceback "$RUNNER_TEMP/free16.err"; then exit 1; fi
