#!/usr/bin/env bash
# CI step: full fig3a and fig2 presets (warnings are errors; every SE row within the accuracy budget; each matches its golden CSV)
set -e
PYTHONPATH=src python -W error -m qa_fairsample reproduce fig3a --out "$RUNNER_TEMP/fig3a.csv"
PYTHONPATH=src python -W error -m qa_fairsample reproduce fig2 --out "$RUNNER_TEMP/fig2.csv"
python - "$RUNNER_TEMP/fig3a.csv" "$RUNNER_TEMP/fig2.csv" <<'EOF'
import csv, math, sys
for path in sys.argv[1:]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["method"] == "SE"]
    assert rows, f"{path}: no SE rows"
    for r in rows:
        where = f"{path}: {r['model']} at {r['parameter']}"
        cells = [v for k, v in r.items() if k.startswith("P_")]
        assert cells and all(v != "" for v in cells), f"{where}: error row"
        assert all(math.isfinite(float(v)) for v in cells), where
        assert float(r["norm_drift"]) <= 1e-6, f"{where}: {r['norm_drift']}"
    print(f"{path}: {len(rows)} SE rows within budget")
EOF
PYTHONPATH=src:tests python - "$RUNNER_TEMP" <<'EOF'
import sys
from test_cli import assert_matches_golden
for name in ("fig3a.csv", "fig2.csv"):
    assert_matches_golden(f"{sys.argv[1]}/{name}", name)
    print(f"{name}: matches tests/data/{name}")
EOF
