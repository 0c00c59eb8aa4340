#!/usr/bin/env bash
# CI step: the shortest anneal takes the default policy's floor of 2 steps, so its coarse run of 1 step gives a finite error estimate
set -e
code=0
PYTHONPATH=src python -m qa_fairsample anneal matsuda5 --embedding matsuda5_embedded --jf 2 --tau 0.001 \
  > "$RUNNER_TEMP/floor.out" 2> "$RUNNER_TEMP/floor.err" || code=$?
cat "$RUNNER_TEMP/floor.err"
test "$code" -eq 0
test ! -s "$RUNNER_TEMP/floor.err"
python -c "import json, math, sys; r = json.load(open(sys.argv[1])); assert r['steps'] == 2, r; assert math.isfinite(r['error_estimate']) and r['error_estimate'] <= 1e-6, r" "$RUNNER_TEMP/floor.out"
