#!/usr/bin/env bash
# CLI checks through the installed `bellwire` console script, run by every
# CI job (with and without SciPy): `eval sc` on the four-setting Tsirelson
# box (the epigraph polish, the maximin input and its JSON), the paper's two
# reproductions, `eval su` on the same box, `eval apply` of a seeded WPICC
# wiring file to the PR box, and exit status 2 for a truncated wiring file,
# an apply with no --in2 and `eval snl` on a behavior file with a
# non-numeric entry.
set -euo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"

bellwire eval sc --in tsirelson-four > /dev/null
bellwire reproduce-thm2 --epsilon 0.125 > /dev/null
bellwire reproduce-thm5 > /dev/null
bellwire eval su --in tsirelson-four > /dev/null

python -c "import bellwire as bw; sc = bw.Scenario(2, 2, 2, 2); print(bw.jsonio.wiring_to_json(bw.random_wpicc_wiring(sc, sc, 3)))" > "$tmp/w.json"
bellwire eval apply --in "$tmp/w.json" --in2 pr-box > /dev/null
head -c 500 "$tmp/w.json" > "$tmp/truncated.json"
code=0
bellwire eval apply --in "$tmp/truncated.json" --in2 pr-box || code=$?
test "$code" -eq 2
code=0
bellwire eval apply --in feedback-wpicc || code=$?
test "$code" -eq 2

python -c "import json; print(json.dumps({'sA': 2, 'sB': 2, 'rA': 2, 'rB': 2, 'p': ['x'] + [0.25] * 15}))" > "$tmp/bad_behavior.json"
code=0
bellwire eval snl --in "$tmp/bad_behavior.json" || code=$?
test "$code" -eq 2
