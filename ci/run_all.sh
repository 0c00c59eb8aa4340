#!/usr/bin/env bash
# Run the CI steps of .github/workflows/ci.yml here, in workflow order, each
# as the workflow runs it, with RUNNER_TEMP a fresh temporary directory.
# Skipped: install_deps.sh, which installs the test dependencies from the
# network, and the two steps that need the package installed by
# `pip install .` (installed_package.sh, readme_quickstart.sh): pip builds it
# with setuptools 68+ and `wheel`, which an offline host may lack. Usage:
# bash ci/run_all.sh
set -e
cd "$(dirname "$0")/.."
export OPENBLAS_NUM_THREADS=1
RUNNER_TEMP="$(mktemp -d)"
export RUNNER_TEMP
trap 'rm -rf "$RUNNER_TEMP"' EXIT
for script in $(grep -o 'ci/[a-z0-9_]*\.sh' .github/workflows/ci.yml); do
    case "$script" in
        ci/install_deps.sh | ci/installed_package.sh | ci/readme_quickstart.sh)
            echo "== $script: skipped"
            continue
            ;;
    esac
    echo "== $script"
    bash "$script"
done
echo "== every step passed"
