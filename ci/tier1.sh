#!/usr/bin/env bash
# CI step: tier-1 tests
set -e
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q --continue-on-collection-errors --durations=15
