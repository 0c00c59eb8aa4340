#!/usr/bin/env bash
# CI step: install the test dependencies
set -e
python -m pip install numpy pytest hypothesis
