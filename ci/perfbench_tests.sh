#!/usr/bin/env bash
# CI step: benchmark self-tests
set -e
python -m pytest -q perfbench
