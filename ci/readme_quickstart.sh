#!/usr/bin/env bash
# CI step: README quick-start commands
set -e
cd "$RUNNER_TEMP"
grep '^\$ qa-fairsample ' "$GITHUB_WORKSPACE/README.md" | cut -c3- > quickstart.sh
test -s quickstart.sh
bash -e -x quickstart.sh < /dev/null > /dev/null
