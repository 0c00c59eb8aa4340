#!/usr/bin/env bash
# CI step: pt-ensemble benchmark smoke
set -e
python perfbench/run.py --workload pt-ensemble --seed 1 --seconds 1 --trace 0 \
  | tail -n 1 \
  | python -c "import json, sys; assert json.load(sys.stdin)['correct'] is True"
