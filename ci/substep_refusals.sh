#!/usr/bin/env bash
# CI step: anneals whose Taylor loops pass the amplitude budget but would never finish exit 2 at once, without a traceback
set -e
echo '{"num_spins": 2, "couplings": []}' > "$RUNNER_TEMP/free2.json"
for args in "$RUNNER_TEMP/free2.json --tau 1e9 --steps 3" \
            "matsuda5 --embedding matsuda5_embedded --jf 1e6 --tau 1"; do
  code=0
  PYTHONPATH=src timeout 20 python -m qa_fairsample anneal $args \
    > "$RUNNER_TEMP/substeps.out" 2> "$RUNNER_TEMP/substeps.err" || code=$?
  cat "$RUNNER_TEMP/substeps.err"
  test "$code" -eq 2
  test ! -s "$RUNNER_TEMP/substeps.out"
  grep -q '^error: ' "$RUNNER_TEMP/substeps.err"
  if grep -q Traceback "$RUNNER_TEMP/substeps.err"; then exit 1; fi
done
