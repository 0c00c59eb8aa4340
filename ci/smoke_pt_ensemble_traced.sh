#!/usr/bin/env bash
# CI step: traced pt-ensemble smoke (PT sweep and its perfbench mirror agree)
set -e
python perfbench/run.py --workload pt-ensemble --seed 1 --seconds 1 --trace 1 \
  | tail -n 1 \
  | python -c "import json, sys; r = json.load(sys.stdin); assert r['correct'] is True; assert r['metrics']['trace.csv_mismatch']['value'] == 0, r['metrics']['trace.csv_mismatch']"
