#!/usr/bin/env bash
# CI step: installed package outside the checkout
set -e
python -m pip install .
cd "$RUNNER_TEMP"
python -c "import qa_fairsample as q; assert 'site-packages' in q.__file__, q.__file__"
qa-fairsample reproduce fig3b --out /tmp/f.csv
cmp /tmp/f.csv "$GITHUB_WORKSPACE/tests/data/fig3b.csv"
# every CLI golden of tier-1, from the installed script; validate
# reads only the packaged files, so its golden checks what ships
PYTHONPATH="$GITHUB_WORKSPACE/tests" python - <<'EOF'
import subprocess
from test_cli import CLI_GOLDENS, assert_output_matches_golden
for name, argv in CLI_GOLDENS.items():
    done = subprocess.run(["qa-fairsample", *argv], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), (name, done.stderr)
    assert_output_matches_golden(done.stdout, name)
    print(f"{name}: matches tests/data/{name}")
EOF
