#!/usr/bin/env bash
# CI step: anneal a split 22-spin model component by component (two 11-spin trees with 3 more couplings each; a joint 2^21-amplitude run does not finish in the time)
set -e
python - "$RUNNER_TEMP/split22.json" <<'EOF'
import json, random, sys
rng = random.Random(22)
couplings = {}
for spins in (list(range(0, 22, 2)), list(range(1, 22, 2))):
    rng.shuffle(spins)
    pairs = [(spins[rng.randrange(k)], spins[k]) for k in range(1, 11)]
    while len(pairs) < 13:
        pair = tuple(rng.sample(spins, 2))
        if {pair, pair[::-1]}.isdisjoint(pairs):
            pairs.append(pair)
    for a, b in pairs:
        couplings[min(a, b), max(a, b)] = rng.choice((-1.0, 1.0))
couplings = [[i, j, J] for (i, j), J in sorted(couplings.items())]
json.dump({"num_spins": 22, "couplings": couplings}, open(sys.argv[1], "w"))
EOF
code=0
PYTHONPATH=src timeout 30 python -m qa_fairsample anneal "$RUNNER_TEMP/split22.json" --tau 2 \
  > "$RUNNER_TEMP/split22.out" 2> "$RUNNER_TEMP/split22.err" || code=$?
cat "$RUNNER_TEMP/split22.err"
test "$code" -eq 0
test ! -s "$RUNNER_TEMP/split22.err"
python -c "import json, sys; r = json.load(open(sys.argv[1])); assert r['error_estimate'] <= 1e-6, r" "$RUNNER_TEMP/split22.out"
