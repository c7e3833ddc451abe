"""Input pools, units of work and per-unit correctness checks.

Each workload owns a fixed pool of inputs built here from fixed pool
seeds; the run's --seed only fixes the order in which the pool is
visited. Every run therefore does the same work in whole passes, which
keeps heavy-tailed solves (an SLSQP-bound unit can cost 100x a cheap
one) from turning run-to-run spread into input luck, and lets
every pool entry carry reference values recorded at the commit that
defined the benchmark (reference.json, written by record.py).

A unit is one pool entry taken through the whole workload step; its
checks use public functions only and run outside the timed region.
"""

from __future__ import annotations

import itertools
import signal

import numpy as np

import bellwire as bw
from bellwire.errors import BellwireError

TOL = 1e-6
#: wall-time budget of one membership unit (Bland solve, then Dantzig):
#: twice the ~3 s that two Dantzig-speed solves need on a 4343 box
MEMBERSHIP_BUDGET_S = 6.0

SC2222 = bw.Scenario(2, 2, 2, 2)


class BudgetExceeded(Exception):
    """Raised from the alarm handler when a unit overruns its budget."""


class CheckFailed(Exception):
    """A unit's output disagrees with its certificate or reference."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Box generators
# ---------------------------------------------------------------------------


def deterministic_boxes(sc: bw.Scenario) -> np.ndarray:
    """All deterministic strategy pairs a = f(x), b = g(y) as flat rows."""
    rows = []
    for f in itertools.product(range(sc.rA), repeat=sc.sA):
        for g in itertools.product(range(sc.rB), repeat=sc.sB):
            t = np.zeros(sc.shape)
            for x in range(sc.sA):
                for y in range(sc.sB):
                    t[x, y, f[x], g[y]] = 1.0
            rows.append(t.reshape(-1))
    return np.array(rows)


def pr_relabeling(k: int) -> np.ndarray:
    """The k-th of the 8 PR boxes: a xor b = xy xor alpha.x xor beta.y
    xor gamma, with (alpha, beta, gamma) the bits of k."""
    alpha, beta, gamma = (k >> 2) & 1, (k >> 1) & 1, k & 1
    t = np.zeros(SC2222.shape)
    for x, y, a in itertools.product(range(2), repeat=3):
        b = a ^ (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
        t[x, y, a, b] = 0.5
    return t


def chsh_k(table: np.ndarray, k: int) -> float:
    """The CHSH expression matched to PR relabeling k: 4 on that PR box,
    at most 2 on every local box."""
    ref = pr_relabeling(k)
    corr = 0.0
    for x, y in itertools.product(range(2), repeat=2):
        win = float(np.sum(table[x, y][ref[x, y] > 0]))
        corr += 2.0 * win - 1.0
    return corr


def box_2222(rng: np.random.Generator, nonlocal_: bool) -> tuple[bw.Behavior, int]:
    """A point of the 24-vertex 2222 no-signaling polytope: PR relabeling
    k at weight w plus a Dirichlet mixture of the 16 deterministic boxes.
    Any w > 2/3 certifies nonlocality, since the matching CHSH value is
    at least 6w - 2 > 2; local boxes take w = 0."""
    k = int(rng.integers(8))
    w = float(rng.uniform(0.7, 0.95)) if nonlocal_ else 0.0
    mix = rng.dirichlet(np.ones(16)) @ deterministic_boxes(SC2222)
    table = w * pr_relabeling(k) + (1.0 - w) * mix.reshape(SC2222.shape)
    return bw.Behavior(SC2222, table), k


def tsirelson_pattern(sc: bw.Scenario, rng: np.random.Generator, vis: float) -> bw.Behavior:
    """The tsirelson_four_setting pattern on sc, with settings permuted,
    outcomes jointly flipped, and local noise at weight 1 - vis."""
    base = bw.TSIRELSON_P
    t = np.empty(sc.shape)
    for x, y in itertools.product(range(sc.sA), range(sc.sB)):
        prod = x * y
        same = 0.5 if prod > 1 else (base / 2 if prod == 0 else (1 - base) / 2)
        t[x, y] = [[same, 0.5 - same], [0.5 - same, same]]
    t = t[rng.permutation(sc.sA)][:, rng.permutation(sc.sB)]
    if rng.integers(2):
        t = t[:, :, ::-1, ::-1]
    V = deterministic_boxes(sc)
    noise = (rng.dirichlet(np.ones(V.shape[0])) @ V).reshape(sc.shape)
    return bw.Behavior(sc, vis * t + (1.0 - vis) * noise)


def generalized_pr_mixture(sc: bw.Scenario, rng: np.random.Generator, w: float) -> bw.Behavior:
    """No-signaling box: b - a = px(x) * py(y) + shift (mod d) at weight w,
    plus a Dirichlet mixture of 32 random deterministic boxes."""
    d = sc.rA
    px, py = rng.permutation(sc.sA), rng.permutation(sc.sB)
    shift = int(rng.integers(d))
    t = np.zeros(sc.shape)
    for x, y, a in itertools.product(range(sc.sA), range(sc.sB), range(d)):
        t[x, y, a, (a + px[x] * py[y] + shift) % d] = 1.0 / d
    V = deterministic_boxes(sc)
    idx = rng.choice(V.shape[0], size=min(32, V.shape[0]), replace=False)
    loc = (rng.dirichlet(np.ones(idx.size)) @ V[idx]).reshape(sc.shape)
    return bw.Behavior(sc, w * t + (1.0 - w) * loc)


def signaling_box(sc: bw.Scenario, rng: np.random.Generator) -> bw.Behavior:
    cols = rng.dirichlet(np.ones(sc.rA * sc.rB), size=sc.sA * sc.sB)
    return bw.Behavior(sc, cols.reshape(sc.shape))


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

POOL_SEED = 20051


def _rng(tag: int, i: int) -> np.random.Generator:
    return np.random.default_rng([POOL_SEED, tag, i])


def _wiring_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def pool_minimax_2222() -> list[dict]:
    n, n_nl = 40, 30
    out = []
    for i in range(n):
        rng = _rng(1, i)
        nonlocal_ = i < n_nl
        p, k = box_2222(rng, nonlocal_)
        p2, _ = box_2222(rng, False)
        out.append({
            "p": p, "k": k, "nonlocal": nonlocal_, "p2": p2,
            "wpicc": bw.random_wpicc_wiring(SC2222, SC2222, _wiring_seed(rng)),
            "gw": bw.random_global_wiring(SC2222, SC2222, _wiring_seed(rng)),
        })
    return out


def pool_snl_tsirelson() -> list[dict]:
    # s_nl(tsirelson_four) itself takes 6-10 s, which no pass of a 30 s
    # run can repeat; its setting-fold image (the reproduce-thm5 box)
    # stays. The relabelings keep Alice's four settings and give Bob
    # two: 64 vertices, visibility 0.7-0.8, so a unit costs 0.1-1.5 s
    # with SLSQP still about 55% of it
    t4 = bw.tsirelson_four_setting()
    out = [{"p": bw.apply_losr(bw.setting_fold_wiring(), t4),
            "label": "tsirelson-four-folded"}]
    sc = bw.Scenario(4, 2, 2, 2)
    for i in range(19):
        rng = _rng(3, i)
        vis = float(rng.uniform(0.7, 0.8))
        out.append({"p": tsirelson_pattern(sc, rng, vis), "label": f"tsirelson-4222-{i}"})
    for e in out:
        e["nonlocal"] = True
    return out


MEMBERSHIP_MIX = [
    # (scenario key, no-signaling boxes, signaling boxes)
    ((3, 2, 3, 2), 4, 4),
    ((4, 2, 4, 2), 4, 4),
    # signaling 3333/5252 boxes cost 20-50 ms each; enough of them puts
    # the median inside a dense cluster instead of between two sparse ones
    ((3, 3, 3, 3), 6, 10),
    ((5, 2, 5, 2), 6, 10),
    # Bland overruns the budget here while Dantzig needs about 1.4 s, so
    # this unit ends over budget, by design, until membership is fixed
    ((4, 3, 4, 3), 1, 0),
]


def pool_membership_mixed() -> list[dict]:
    out = []
    for tag, (key, n_ns, n_sig) in enumerate(MEMBERSHIP_MIX):
        sc = bw.Scenario(*key)
        for i in range(n_ns + n_sig):
            rng = _rng(10 + tag, i)
            if i < n_ns:
                # alternate nonlocal-leaning and local-leaning weights
                w = float(rng.uniform(0.35, 0.6) if i % 2 == 0 else rng.uniform(0.0, 0.15))
                p, kind = generalized_pr_mixture(sc, rng, w), "ns"
            else:
                p, kind = signaling_box(sc, rng), "signaling"
            out.append({"p": p, "kind": kind, "scenario": "".join(map(str, key))})
    return out


POOLS = {
    "minimax_2222": pool_minimax_2222,
    "snl_tsirelson": pool_snl_tsirelson,
    "membership_mixed": pool_membership_mixed,
}


def certify_pool(workload: str, pool: list[dict]) -> None:
    """Set-up checks on the inputs themselves, before any timing."""
    for i, e in enumerate(pool):
        if workload == "minimax_2222" and e["nonlocal"]:
            if not chsh_k(e["p"].p, e["k"]) > 2.0 + 1e-9:
                raise CheckFailed(f"pool entry {i} is not CHSH-certified nonlocal")
        if workload == "snl_tsirelson":
            if bw.is_local(e["p"], pivot="dantzig").is_local:
                raise CheckFailed(f"pool entry {i} ({e['label']}) is local")


def warm_up(pool: list[dict]) -> None:
    """Pay lazy one-time costs before timing: the lru_cached vertex
    matrices of every scenario in the pool, and SciPy's import on the
    first SLSQP call."""
    import scipy.optimize  # noqa: F401

    for key in {e["p"].scenario.key() for e in pool}:
        bw.local_vertex_matrix(bw.Scenario(*key))


def stratified_order(pool: list[dict], seed: int) -> list[int]:
    """A seeded permutation of the pool in which nonlocal entries are
    spread evenly, so every prefix keeps the pool's nonlocal share."""
    rng = np.random.default_rng(seed)
    nl = [i for i, e in enumerate(pool) if e.get("nonlocal")]
    lo = [i for i, e in enumerate(pool) if not e.get("nonlocal")]
    rng.shuffle(nl)
    rng.shuffle(lo)
    order = []
    n, k = len(pool), len(nl)
    for j in range(n):
        take_nl = (j + 1) * k // n > j * k // n
        order.append(nl.pop() if take_nl else lo.pop())
    return order


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


def unit_minimax_2222(e: dict) -> dict:
    p = e["p"]
    r_c = bw.s_c(p, TOL)
    r_u = bw.s_u(p, TOL)
    audit = bw.monotonicity_audit("snl", p, [e["wpicc"]], TOL)
    g = e["gw"]
    before = bw.behavior_re(p, e["p2"]).bits
    after = bw.behavior_re(bw.apply_gw(g, p), bw.apply_gw(g, e["p2"])).bits
    return {"s_c": r_c, "s_u": r_u, "audit": audit, "gw": (before, after)}


def unit_snl_tsirelson(e: dict) -> dict:
    p = e["p"]
    return {"s_u": bw.s_u(p, TOL), "s_nl": bw.s_nl(p, TOL)}


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def unit_membership_mixed(e: dict) -> dict:
    p = e["p"]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, MEMBERSHIP_BUDGET_S)
    try:
        bland = bw.is_local(p, pivot="bland")
        dantzig = bw.is_local(p, pivot="dantzig")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return {"bland": bland, "dantzig": dantzig}


def finish_overrun(e: dict) -> dict:
    """The verdict of a membership unit whose Bland solve overran: Dantzig
    alone, under the same budget. It runs outside the timed region, so an
    overrun still ends in a checked verdict."""
    p = e["p"]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, MEMBERSHIP_BUDGET_S)
    try:
        dantzig = bw.is_local(p, pivot="dantzig")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return {"bland": None, "dantzig": dantzig}


UNITS = {
    "minimax_2222": unit_minimax_2222,
    "snl_tsirelson": unit_snl_tsirelson,
    "membership_mixed": unit_membership_mixed,
}

#: exceptions that make a unit fail without making its output wrong
UNIT_FAILURES = (BellwireError, BudgetExceeded)


# ---------------------------------------------------------------------------
# Reference values and checks
# ---------------------------------------------------------------------------


def reference_record(workload: str, out: dict) -> dict:
    """The values of one unit's output that reference.json stores."""
    if workload == "minimax_2222":
        row = out["audit"].rows[0]
        return {
            "s_c": out["s_c"].value, "s_c_gap": out["s_c"].gap_estimate,
            "s_u": out["s_u"].value, "s_u_gap": out["s_u"].gap_estimate,
            "s_nl": row.value_before, "s_nl_wired": row.value_after,
        }
    if workload == "snl_tsirelson":
        return {
            "s_u": out["s_u"].value, "s_u_gap": out["s_u"].gap_estimate,
            "s_nl": out["s_nl"].value, "s_nl_gap": out["s_nl"].gap_estimate,
        }
    return {"is_local": out["dantzig"].is_local}


def _close(value: float, ref: float, slack: float) -> bool:
    return abs(value - ref) <= slack + 1e-12


def _check_certificate_nl(p: bw.Behavior, r) -> None:
    """s_nl / s_c re-derived from the local optimizer it certifies."""
    _require(r.gap_estimate <= TOL, f"gap {r.gap_estimate} above tol")
    rederived = bw.behavior_re(p, r.optimizer_local.reconstruct()).bits
    _require(_close(rederived, r.value, 1e-9),
             f"value {r.value} vs re-derived {rederived}")


def _check_certificate_u(p: bw.Behavior, r) -> None:
    _require(r.gap_estimate <= TOL, f"s_u gap {r.gap_estimate} above tol")
    uniform = bw.InputDistribution.uniform(p.scenario)
    rederived = bw.conditional_re(p, r.optimizer_local.reconstruct(), uniform).bits
    _require(_close(rederived, r.value, 1e-9),
             f"s_u {r.value} vs re-derived {rederived}")


def check_unit(workload: str, e: dict, out: dict, ref: dict) -> None:
    """Raise CheckFailed unless the unit's output is certified correct
    and agrees with its reference within the summed certified gaps."""
    p = e["p"]
    if workload == "minimax_2222":
        r_c, r_u = out["s_c"], out["s_u"]
        row = out["audit"].rows[0]
        s_nl = row.value_before
        _check_certificate_nl(p, r_c)
        _check_certificate_u(p, r_u)
        _require(abs(s_nl - r_c.value) <= 2 * TOL, "s_nl and s_c disagree")
        _require(r_u.value <= s_nl + r_u.gap_estimate + TOL, "s_u above s_nl")
        _require(not out["audit"].any_violation, "s_nl increased under WPICC")
        _require(row.value_after <= row.value_before + row.slack, "audit row slack")
        before, after = out["gw"]
        _require(after <= before + 1e-9, "behavior_re grew under a global wiring")
        if e["nonlocal"]:
            _require(s_nl > TOL, "certified-nonlocal box has s_nl <= tol")
        else:
            _require(s_nl <= TOL, "local box has s_nl > tol")
        _require(_close(r_c.value, ref["s_c"], r_c.gap_estimate + ref["s_c_gap"]),
                 f"s_c {r_c.value} vs reference {ref['s_c']}")
        _require(_close(r_u.value, ref["s_u"], r_u.gap_estimate + ref["s_u_gap"]),
                 f"s_u {r_u.value} vs reference {ref['s_u']}")
        _require(_close(s_nl, ref["s_nl"], 2 * TOL),
                 f"s_nl {s_nl} vs reference {ref['s_nl']}")
        _require(_close(row.value_after, ref["s_nl_wired"], 2 * TOL),
                 f"wired s_nl {row.value_after} vs reference {ref['s_nl_wired']}")
    elif workload == "snl_tsirelson":
        r_u, r_nl = out["s_u"], out["s_nl"]
        _check_certificate_nl(p, r_nl)
        _check_certificate_u(p, r_u)
        _require(r_u.value <= r_nl.value + r_u.gap_estimate + r_nl.gap_estimate,
                 "s_u above s_nl")
        _require(r_nl.value > TOL, "nonlocal box has s_nl <= tol")
        _require(_close(r_nl.value, ref["s_nl"], r_nl.gap_estimate + ref["s_nl_gap"]),
                 f"s_nl {r_nl.value} vs reference {ref['s_nl']}")
        _require(_close(r_u.value, ref["s_u"], r_u.gap_estimate + ref["s_u_gap"]),
                 f"s_u {r_u.value} vs reference {ref['s_u']}")
    else:
        verdicts = []
        # "bland" is None when the Bland solve overran its budget
        for res in (out["bland"] or out["dantzig"], out["dantzig"]):
            if res.is_local:
                _require(res.model.matches(p), "local model does not reconstruct")
            else:
                cert = res.certificate
                _require(_close(cert.value_on(p), cert.value_on_behavior, 1e-9),
                         "certificate value does not re-check")
                _require(cert.value_on(p) > cert.local_bound + 1e-9,
                         "certificate does not separate")
            verdicts.append(res.is_local)
        _require(verdicts[0] == verdicts[1], "Bland and Dantzig disagree")
        _require(verdicts[1] == ref["is_local"], "verdict differs from reference")
        if e["kind"] == "signaling":
            _require(not verdicts[1], "signaling box reported local")


def answered_nonlocal(workload: str, out: dict) -> bool:
    """Whether the unit's own answer says its box is nonlocal."""
    if workload == "minimax_2222":
        return out["audit"].rows[0].value_before > TOL
    if workload == "snl_tsirelson":
        return out["s_nl"].value > TOL
    return not out["dantzig"].is_local

