#!/usr/bin/env bash
# CI step: README Python API example
set -e
PYTHONPATH=src python -c 'import re; exec(re.search(r"^```python\n(.*?)^```", open("README.md").read(), re.S | re.M).group(1))'
