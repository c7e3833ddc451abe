#!/usr/bin/env bash
# CLI checks through the installed `bellwire` console script, run by every
# CI job (with and without SciPy): `eval sc` on the four-setting Tsirelson
# box (the epigraph polish, the maximin input and its JSON), the paper's two
# reproductions, `eval su` on the same box (which `s_u` after `s_c` in one
# process, reading the uniform start that `s_c` solved, must equal bit for
# bit), `eval snl` on it (which `s_nl` after `s_u` in one process, reading
# the start that `s_u` solved, must equal bit for bit), `eval suc` on it
# (product inputs are a subset of all inputs, so its value, less its gap,
# must be at most the `s_nl` value), `eval snl` on the PR box (half of
# its outcomes have probability zero; its certified bracket must hold the
# closed form log2(4/3)), `eval local_check` on the PR box (the
# membership LP and its Bell certificate, whose bound is re-checked by
# the best-response maximum), the same eval as CSV, whose
# certificate cell must load through `jsonio.certificate_from_json`, `eval
# local_check` on a random local 4343 box written by
# `jsonio.behavior_to_json` (Bland's rule over the best-fit vertex order,
# 1,789 pivots from the crash basis; the local model's weights must load
# through `jsonio.local_model_from_json` and, in canonical vertex order,
# reconstruct the box), `eval local_check` on a signaling 4343 box (the
# crash basis on the infeasible path: it must not be local, and its Bell
# certificate must load through `jsonio.certificate_from_json` and
# separate the box), `eval su` on the
# same box (a cold inner minimization by Newton's method on the dual over
# 6561 vertices; its value must be at most 1e-6 and its gap at most the
# engine's start gap 1e-6/32 for 16 settings), `eval snl` on nonlocal
# 3333 and 4343 generalized PR mixtures written by
# `jsonio.behavior_to_json` (the epigraph polish on an active set of their
# 729 and 6561 vertices, grown by pricing; each gap must be at most 1e-6),
# `--tol 1e-14 eval snl` on the 3333 mixture (a tol near rounding, where
# every inner minimization is one Newton run on the dual; its gap must be
# at most 1e-14),
# `eval apply` of a seeded WPICC wiring file to the PR box, the four
# campaign suites that run the minimax engine (`snl_monotonicity`,
# `suc_monotonicity`, `convexity` and `minimax_identity`, 10 trials at
# seed 7, each of which must exit 0: no violation and no error), and exit
# status 2 for a truncated wiring file, an apply with no --in2, `eval snl`
# on a behavior file with a non-numeric entry, a negative --tol, a
# negative `eval suc` seed and a `campaign` with a negative --trials or
# --seed.
#
# Outside CI (CI unset), a source checkout with no `bellwire` on PATH runs
# the CLI module from src/ instead: `bash .github/cli-checks.sh` from any
# directory. CI sets CI=true and so always tests the installed script.
set -euo pipefail
if [ -z "${CI:-}" ] && ! command -v bellwire > /dev/null; then
  PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
  export PYTHONPATH
  bellwire() { python -m bellwire.cli "$@"; }
fi
tmp="${RUNNER_TEMP:-$(mktemp -d)}"

bellwire eval sc --in tsirelson-four > /dev/null
bellwire reproduce-thm2 --epsilon 0.125 > /dev/null
bellwire reproduce-thm5 > /dev/null
bellwire eval su --in tsirelson-four > "$tmp/su.json"
# s_u after s_c in one process is the uniform start that s_c solved and
# the box's tables kept; it must equal the fresh `eval su` above bit for bit
python - "$tmp/su.json" <<'EOF_PY'
import json
import sys

import bellwire as bw
from bellwire import jsonio

p = bw.tsirelson_four_setting()
bw.s_c(p)
shared = json.loads(jsonio.monotone_result_to_json(bw.s_u(p)))
with open(sys.argv[1]) as f:
    fresh = json.load(f)
for key in ("value", "gap_estimate", "iterations", "optimizer_local"):
    assert shared[key] == fresh[key], f"s_u after s_c differs from eval su in {key}"
EOF_PY
bellwire eval snl --in tsirelson-four > "$tmp/snl.json"
# s_nl after s_u in one process starts from the uniform start that s_u
# solved and the box's tables kept; it must equal the fresh `eval snl`
# above bit for bit
python - "$tmp/snl.json" <<'EOF_PY'
import json
import sys

import bellwire as bw
from bellwire import jsonio

p = bw.tsirelson_four_setting()
bw.s_u(p)
shared = json.loads(jsonio.monotone_result_to_json(bw.s_nl(p)))
with open(sys.argv[1]) as f:
    fresh = json.load(f)
for key in ("value", "gap_estimate", "iterations", "optimizer_local"):
    assert shared[key] == fresh[key], f"s_nl after s_u differs from eval snl in {key}"
EOF_PY
bellwire eval suc --in tsirelson-four > "$tmp/suc.json"
python -c "import json, sys; uc, nl = (json.load(open(f)) for f in sys.argv[1:]); assert uc['value'] <= nl['value'] + uc['gap_estimate'], f\"s_uc {uc['value']} above s_nl {nl['value']}\"" "$tmp/suc.json" "$tmp/snl.json"
bellwire eval snl --in pr-box > "$tmp/snl_pr.json"
python -c "import json, math, sys; r = json.load(open(sys.argv[1])); v, g = r['value'], r['gap_estimate']; assert v - g <= math.log2(4 / 3) <= v, f'PR box s_nl bracket [{v - g}, {v}]'" "$tmp/snl_pr.json"
bellwire eval local_check --in pr-box | grep -q '"is_local":false'
bellwire eval local_check --in pr-box --format csv > "$tmp/local_check.csv"
python -c "import csv, sys; from bellwire import jsonio; cells = dict(csv.reader(open(sys.argv[1]))); jsonio.certificate_from_json(cells['certificate'])" "$tmp/local_check.csv"
python -c "import bellwire as bw; print(bw.jsonio.behavior_to_json(bw.random_ns_behavior(bw.Scenario(4, 3, 4, 3), 5)))" > "$tmp/box4343.json"
bellwire eval local_check --in "$tmp/box4343.json" > "$tmp/local4343.json"
python - "$tmp/box4343.json" "$tmp/local4343.json" <<'EOF_PY'
import json
import sys

from bellwire import jsonio

with open(sys.argv[1]) as f:
    p = jsonio.behavior_from_json(f.read())
with open(sys.argv[2]) as f:
    report = json.load(f)
assert report["is_local"] is True, "the random 4343 box is local"
model = jsonio.local_model_from_json(json.dumps(report["model"]))
assert model.matches(p), "the local model does not reconstruct the 4343 box"
EOF_PY
python -c "import bellwire as bw; print(bw.jsonio.behavior_to_json(bw.random_behavior(bw.Scenario(4, 3, 4, 3), 1)))" > "$tmp/signaling4343.json"
bellwire eval local_check --in "$tmp/signaling4343.json" > "$tmp/nonlocal4343.json"
python - "$tmp/signaling4343.json" "$tmp/nonlocal4343.json" <<'EOF_PY'
import json
import sys

from bellwire import jsonio

with open(sys.argv[1]) as f:
    p = jsonio.behavior_from_json(f.read())
with open(sys.argv[2]) as f:
    report = json.load(f)
assert report["is_local"] is False, "the signaling 4343 box is not local"
cert = jsonio.certificate_from_json(json.dumps(report["certificate"]))
assert cert.value_on(p) > cert.local_bound, "the certificate does not separate the 4343 box"
EOF_PY
bellwire eval su --in "$tmp/box4343.json" > "$tmp/su4343.json"
python -c "import json, sys; r = json.load(open(sys.argv[1])); v, g = r['value'], r['gap_estimate']; assert v <= 1e-6 and g <= 1e-6 / 32, f'4343 s_u value {v}, gap {g}'" "$tmp/su4343.json"

for box in 3333 4343; do
  python - "$box" > "$tmp/gpm$box.json" <<'EOF_PY'
import itertools
import sys

import numpy as np

import bellwire as bw

# a generalized PR mixture: b - a = px(x) py(y) + shift (mod d) at weight
# 0.696, plus a Dirichlet mixture of 32 random deterministic boxes
sc, w = bw.Scenario(*map(int, sys.argv[1])), 0.696
d = sc.rA
rng = np.random.default_rng([73, 1])
px, py = rng.permutation(sc.sA), rng.permutation(sc.sB)
shift = int(rng.integers(d))
t = np.zeros(sc.shape)
for x, y, a in itertools.product(range(sc.sA), range(sc.sB), range(d)):
    t[x, y, a, (a + px[x] * py[y] + shift) % d] = 1.0 / d
V = bw.local_vertex_matrix(sc)
idx = rng.choice(V.shape[0], size=32, replace=False)
loc = (rng.dirichlet(np.ones(32)) @ V[idx]).reshape(sc.shape)
print(bw.jsonio.behavior_to_json(bw.Behavior(sc, w * t + (1.0 - w) * loc)))
EOF_PY
  bellwire eval snl --in "$tmp/gpm$box.json" > "$tmp/snl$box.json"
  python -c "import json, sys; gap = json.load(open(sys.argv[1]))['gap_estimate']; assert gap <= 1e-6, f'{sys.argv[2]} s_nl gap {gap}'" "$tmp/snl$box.json" "$box"
done
bellwire --tol 1e-14 eval snl --in "$tmp/gpm3333.json" > "$tmp/snl3333_tight.json"
python -c "import json, sys; gap = json.load(open(sys.argv[1]))['gap_estimate']; assert gap <= 1e-14, f'3333 s_nl gap {gap} at tol 1e-14'" "$tmp/snl3333_tight.json"

python -c "import bellwire as bw; sc = bw.Scenario(2, 2, 2, 2); print(bw.jsonio.wiring_to_json(bw.random_wpicc_wiring(sc, sc, 3)))" > "$tmp/w.json"
bellwire eval apply --in "$tmp/w.json" --in2 pr-box > /dev/null
head -c 500 "$tmp/w.json" > "$tmp/truncated.json"
code=0
bellwire eval apply --in "$tmp/truncated.json" --in2 pr-box || code=$?
test "$code" -eq 2
code=0
bellwire eval apply --in feedback-wpicc || code=$?
test "$code" -eq 2

for suite in snl_monotonicity suc_monotonicity convexity minimax_identity; do
  bellwire campaign --suite "$suite" --trials 10 --seed 7 > /dev/null
done

python -c "import json; print(json.dumps({'sA': 2, 'sB': 2, 'rA': 2, 'rB': 2, 'p': ['x'] + [0.25] * 15}))" > "$tmp/bad_behavior.json"
code=0
bellwire eval snl --in "$tmp/bad_behavior.json" || code=$?
test "$code" -eq 2
code=0
bellwire --tol -1 eval snl --in pr-box || code=$?
test "$code" -eq 2
code=0
bellwire eval suc --in pr-box --seed -1 || code=$?
test "$code" -eq 2
code=0
bellwire campaign --suite losr_closure --trials -3 || code=$?
test "$code" -eq 2
code=0
bellwire campaign --suite losr_closure --trials 2 --seed -1 || code=$?
test "$code" -eq 2
