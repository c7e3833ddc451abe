import math

import numpy as np
import pytest

import bellwire as bw
from bellwire import monotones
from bellwire.errors import NoConvergence

SC2222 = bw.Scenario(2, 2, 2, 2)
TOL = 1e-6

# Known closed form: the nearest local box to the PR box under uniform
# inputs matches the CHSH game at win rate 3/4 in every setting, giving
# KL((1/2,0,0,1/2) || (3/8,1/8,1/8,3/8)) = log2(4/3) per setting.
PR_STRENGTH = math.log2(4.0 / 3.0)


def noisy_pr(mu: float) -> bw.Behavior:
    table = mu * bw.pr_box().p + (1 - mu) * bw.white_noise(SC2222).p
    return bw.Behavior(SC2222, table)


def test_s_u_pr_box_closed_form():
    r = bw.s_u(bw.pr_box(), TOL)
    assert r.value == pytest.approx(PR_STRENGTH, abs=2e-6)
    assert r.gap_estimate <= TOL
    assert bw.is_local(r.optimizer_local.reconstruct()).is_local


def test_s_u_local_behavior_vanishes():
    for seed in range(5):
        p, _ = bw.random_local_behavior(SC2222, seed)
        assert bw.s_u(p, TOL).value <= TOL


def test_s_nl_pr_box_equals_s_u_by_symmetry():
    # the PR box is setting-symmetric, so the worst setting equals the
    # average and the two quantifiers coincide
    assert bw.s_nl(bw.pr_box(), TOL).value == pytest.approx(PR_STRENGTH, abs=2e-6)


def test_s_nl_local_behaviors_vanish():
    for seed in range(8):
        p, _ = bw.random_local_behavior(SC2222, seed)
        r = bw.s_nl(p, TOL)
        assert r.value <= TOL
        assert r.gap_estimate <= TOL


def test_s_nl_certificate_is_local_model():
    r = bw.s_nl(noisy_pr(0.8), TOL)
    model = r.optimizer_local
    assert bw.is_local(model.reconstruct()).is_local
    # the reported value is the worst-setting divergence at the optimizer
    recon = model.reconstruct()
    assert bw.behavior_re(noisy_pr(0.8), recon).bits == pytest.approx(
        r.value, abs=1e-9
    )


def test_s_nl_vanishes_below_visibility_threshold():
    # mu = 1/2 is the local visibility of the PR box against white noise
    assert bw.is_local(noisy_pr(0.49)).is_local
    assert bw.s_nl(noisy_pr(0.49), TOL).value <= TOL
    assert not bw.is_local(noisy_pr(0.52)).is_local
    assert bw.s_nl(noisy_pr(0.52), TOL).value > TOL


def assert_maximin_certificate(p: bw.Behavior, r) -> None:
    """The reported input D is a max-min certificate: the minimum over
    local models at D, re-solved from the reported local model, is
    within the bracket of the value. (A cold start at D can run into
    MAX_INNER_ITER on 4222 boxes.)"""
    from bellwire.monotones import _DivergenceTables, _fw_minimize

    assert r.optimizer_inputs is not None
    assert r.optimizer_inputs.kind == "general"
    inner = _fw_minimize(_DivergenceTables(p), r.optimizer_inputs.d.reshape(-1),
                         gap_tol=TOL, lam0=r.optimizer_local.weights)
    assert inner.converged
    assert inner.value - inner.gap >= r.value - r.gap_estimate - TOL


def fresh(quantifier, p: bw.Behavior, tol: float = TOL):
    """quantifier(p, tol) from a minimax solve of its own: the record of
    the last shared `s_nl`/`s_c` solve is cleared first."""
    monotones._last_solve = None
    return quantifier(p, tol)


def test_s_c_equals_s_nl():
    for p in (bw.pr_box(), noisy_pr(0.7), pr_relabeling_mixture(7, 0.8, 1),
              tsirelson_4222(0)):
        a = fresh(bw.s_nl, p)
        c = fresh(bw.s_c, p)
        assert abs(a.value - c.value) <= 2 * TOL
        assert a.value > 1e-3
        assert_maximin_certificate(p, c)


def pr_relabeling_mixture(k: int, w: float, vertex: int) -> bw.Behavior:
    """PR relabeling k (a xor b = xy xor k0*x xor k1*y xor k2) at weight
    w, mixed with one deterministic box; nonlocal for w > 2/3."""
    t = np.zeros(SC2222.shape)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                b = a ^ (x * y) ^ ((k & 1) * x) ^ (((k >> 1) & 1) * y) ^ (k >> 2)
                t[x, y, a, b] = 0.5
    det = bw.local_vertex_matrix(SC2222)[vertex].reshape(SC2222.shape)
    return bw.Behavior(SC2222, w * t + (1 - w) * det)


def test_s_c_alternating_agrees():
    # random_ns_behavior draws are almost surely local, so the nonlocal
    # boxes are what reach the shared epigraph polish; on the 4222 box
    # the ascent alone does not close the bracket in ALTERNATING_STEPS
    cases = [(bw.random_ns_behavior(SC2222, seed), False) for seed in (0, 5, 92)]
    cases += [(p, True) for p in (noisy_pr(0.7), pr_relabeling_mixture(7, 0.7, 1),
                                  pr_relabeling_mixture(6, 0.95, 1), tsirelson_4222(1))]
    for p, nonlocal_ in cases:
        a = bw.s_nl(p, TOL)
        b = bw.s_c_alternating(p, TOL)
        assert abs(a.value - b.value) <= 2 * TOL
        assert a.value > 1e-3 or not nonlocal_
        assert_maximin_certificate(p, b)


def test_ordering_chain():
    for p in (bw.pr_box(), noisy_pr(0.75)):
        su = bw.s_u(p, TOL)
        suc = bw.s_uc(p, TOL, restarts=8, seed=0)
        scv = bw.s_c(p, TOL)
        assert su.value <= suc.value + TOL
        assert suc.value <= scv.value + TOL


def test_s_uc_flags_lower_bound():
    r = bw.s_uc(bw.pr_box(), TOL, restarts=8, seed=0)
    assert r.lower_bound
    assert r.optimizer_inputs.kind == "product"
    # for the setting-symmetric PR box the uniform product is stationary
    assert r.value == pytest.approx(PR_STRENGTH, abs=1e-5)


def test_s_uc_local_vanishes_from_every_start():
    p, _ = bw.random_local_behavior(SC2222, 3)
    r = bw.s_uc(p, TOL, restarts=6, seed=1)
    assert r.value <= TOL


def test_s_uc_grid_cross_check():
    # dense grid over product distributions on the 2x2 setting simplex;
    # the PR-relabeling mixture is setting-asymmetric, so its best
    # product input is not the uniform one
    from bellwire.monotones import _DivergenceTables, _fw_minimize

    for p in (noisy_pr(0.8), pr_relabeling_mixture(7, 0.8, 1)):
        tables = _DivergenceTables(p)
        best = 0.0
        for ax in np.linspace(0, 1, 21):
            for by in np.linspace(0, 1, 21):
                D = np.outer([ax, 1 - ax], [by, 1 - by]).reshape(-1)
                inner = _fw_minimize(tables, D, gap_tol=1e-7)
                best = max(best, max(0.0, inner.value - inner.gap))
        r = bw.s_uc(p, TOL, restarts=8, seed=0)
        assert best > 1e-3
        assert r.value >= best - 1e-4


def test_tsirelson_s_u_strictly_positive():
    p0 = bw.tsirelson_four_setting()
    r0 = bw.s_u(p0, TOL)
    assert r0.value > 1e-3
    # random-restart weighted local search must not find anything better
    from bellwire.geometry import local_vertex_matrix

    V = local_vertex_matrix(p0.scenario)
    rng = np.random.default_rng(7)
    P = p0.flat()
    D = np.full(16, 1.0 / 16.0)
    entry_w = np.repeat(D, 4) * P
    act = entry_w > 0
    best = math.inf
    for _ in range(40):
        w = rng.dirichlet(np.ones(V.shape[0]) * 0.5)
        q = w @ V
        if np.any(q[act] <= 0):
            continue
        val = float(np.sum(entry_w[act] * np.log2(P[act] / q[act])))
        best = min(best, val)
    assert r0.value <= best + 1e-9


def test_fold_wiring_quadruples_s_u():
    p0 = bw.tsirelson_four_setting()
    pf = bw.apply_losr(bw.setting_fold_wiring(), p0)
    r0 = bw.s_u(p0, TOL)
    rf = bw.s_u(pf, TOL)
    slack = 2.0 * (4.0 * r0.gap_estimate + rf.gap_estimate)
    assert rf.value >= 4.0 * r0.value - slack
    assert r0.value > TOL


def test_monotonicity_audit_flags_s_u_increase():
    p0 = bw.tsirelson_four_setting()
    rep = bw.monotonicity_audit("su", p0, [bw.setting_fold_wiring()], TOL)
    assert rep.any_violation
    row = rep.rows[0]
    assert row.value_after / row.value_before >= 4.0 - 1e-3


def test_monotonicity_audit_snl_under_losr():
    p = noisy_pr(0.9)
    wirings = [bw.random_losr_wiring(SC2222, SC2222, s, n_lambda=2) for s in range(5)]
    rep = bw.monotonicity_audit("snl", p, wirings, TOL)
    assert not rep.any_violation


def test_monotonicity_audit_snl_under_wpicc():
    p = bw.random_ns_behavior(SC2222, 11)
    wirings = [bw.random_wpicc_wiring(SC2222, SC2222, s) for s in range(5)]
    rep = bw.monotonicity_audit("snl", p, wirings, TOL)
    assert not rep.any_violation


def test_quantifier_keywords_reach_the_quantifier():
    # a keyword the quantifier does not take is a TypeError, for every
    # name, before anything is solved
    p = bw.pr_box()
    for name in ("snl", "su", "sc", "suc"):
        with pytest.raises(TypeError):
            bw.evaluate_quantifier(name, p, TOL, bogus=1)
    with pytest.raises(TypeError):
        bw.evaluate_quantifier("snl", p, TOL, restarts=3)
    with pytest.raises(TypeError):
        bw.monotonicity_audit("su", p, [bw.setting_fold_wiring()], TOL, seed=5)


def test_unknown_quantifier_is_a_parameter_error():
    from bellwire.errors import ParameterOutOfRange

    with pytest.raises(ParameterOutOfRange):
        bw.evaluate_quantifier("sx", bw.pr_box(), TOL)


def test_convexity_audit_snl():
    rep = bw.convexity_audit(
        "snl", bw.pr_box(), bw.white_noise(SC2222), [0.0, 0.25, 0.5, 0.75, 1.0], TOL
    )
    assert not rep.any_violation


def test_convexity_audit_degenerate_mixture():
    p = noisy_pr(0.8)
    rep = bw.convexity_audit("snl", p, p, [0.3, 0.7], TOL)
    assert not rep.any_violation
    for row in rep.rows:
        assert abs(row.value_after - row.value_before) <= row.slack


def test_convexity_audit_suc_pr_vs_relabeled():
    table = np.array(bw.pr_box().p, copy=True)
    anti = bw.Behavior(SC2222, table[:, :, ::-1, :])
    rep = bw.convexity_audit("suc", bw.pr_box(), anti, [0.5], TOL,
                             restarts=8, seed=2)
    assert not rep.any_violation
    # the balanced mixture is white noise, so its value collapses to zero
    assert rep.rows[0].value_after <= TOL


def test_s_nl_hard_nonlocal_instances_certified():
    # asymmetric mixtures stress the degenerate-face tiebreak machinery
    for seed in (16, 28, 43):
        qb = bw.random_ns_behavior(SC2222, seed)
        p = bw.Behavior(SC2222, 0.5 * bw.pr_box().p + 0.5 * qb.p)
        r = bw.s_nl(p, TOL)
        assert r.gap_estimate <= TOL


def tsirelson_4222(i: int) -> bw.Behavior:
    """The tsirelson_four_setting correlation pattern on Scenario(4,2,2,2)
    with permuted settings, possibly flipped outcomes and Dirichlet local
    noise: entry tsirelson-4222-i of the perfbench snl_tsirelson pool."""
    sc = bw.Scenario(4, 2, 2, 2)
    rng = np.random.default_rng([20051, 3, i])
    vis = float(rng.uniform(0.7, 0.8))
    base = bw.TSIRELSON_P
    t = np.empty(sc.shape)
    for x in range(sc.sA):
        for y in range(sc.sB):
            prod = x * y
            same = 0.5 if prod > 1 else (base / 2 if prod == 0 else (1 - base) / 2)
            t[x, y] = [[same, 0.5 - same], [0.5 - same, same]]
    t = t[rng.permutation(sc.sA)][:, rng.permutation(sc.sB)]
    if rng.integers(2):
        t = t[:, :, ::-1, ::-1]
    V = bw.local_vertex_matrix(sc)
    noise = (rng.dirichlet(np.ones(V.shape[0])) @ V).reshape(sc.shape)
    return bw.Behavior(sc, vis * t + (1.0 - vis) * noise)


def test_s_nl_closes_when_first_polish_misses():
    # this box has needed a second polish round under some BLAS thread
    # counts; whichever path it takes, it must close without a long
    # detour (the bound is on work, not wall time)
    r = bw.s_nl(tsirelson_4222(4), TOL)
    assert r.gap_estimate <= TOL
    # the box's reference value and certified gap in perfbench/reference.json
    assert abs(r.value - 0.004230582926677485) <= r.gap_estimate + 3.6e-10
    assert r.iterations < 100_000


def test_s_uc_blocks_close_on_four_settings():
    # each coordinate-ascent block is a saddle problem over one marginal
    # with 4 (Alice) or 2 (Bob) input coordinates; the block solver must
    # close it in bounded work and land between s_u and s_nl
    p = tsirelson_4222(0)
    su = bw.s_u(p, TOL)
    snl = bw.s_nl(p, TOL)
    r = bw.s_uc(p, TOL, restarts=8, seed=0)
    gaps = su.gap_estimate + r.gap_estimate + snl.gap_estimate
    assert su.value - gaps <= r.value <= snl.value + gaps
    assert r.iterations < 1_000_000


def test_results_deterministic():
    p = noisy_pr(0.8)
    a = fresh(bw.s_nl, p)
    b = fresh(bw.s_nl, p)
    assert a.value == b.value
    r1 = bw.s_uc(p, TOL, restarts=8, seed=5)
    r2 = bw.s_uc(p, TOL, restarts=8, seed=5)
    assert r1.value == r2.value


def test_s_uc_final_resolve_must_converge(monkeypatch):
    # s_uc re-solves the inner problem at its best product input; a
    # re-solve that stops above the gap must raise, as s_u's does
    from dataclasses import replace

    from bellwire import monotones

    real = monotones._fw_minimize
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(monotones, "_fw_minimize", counting)
    p = noisy_pr(0.8)
    r = bw.s_uc(p, TOL, restarts=1, seed=0)
    assert r.value > 1e-3 and r.gap_estimate <= TOL
    last = len(calls)

    def stalled_last(*args, **kwargs):
        calls.append(None)
        inner = real(*args, **kwargs)
        if len(calls) == 2 * last:
            return replace(inner, converged=False, gap=1e-3)
        return inner

    monkeypatch.setattr(monotones, "_fw_minimize", stalled_last)
    with pytest.raises(NoConvergence) as err:
        bw.s_uc(p, TOL, restarts=1, seed=0)
    assert len(calls) == 2 * last
    # the error reports the final bracket's width: the stalled inner gap
    # plus the rounding between the exact rows and the inner value
    assert 1e-3 <= err.value.gap <= 1e-3 + 1e-12


def test_s_uc_builds_the_tables_once(monkeypatch):
    # every block solve and the final solve read one set of the box's
    # tables, and the result counts the inner iterations of all of them
    real_init, real_fw = monotones._DivergenceTables.__init__, monotones._fw_minimize
    builds, inner_iterations = [], []

    def counting_init(self, p):
        builds.append(p)
        real_init(self, p)

    def counting_fw(*args, **kwargs):
        inner = real_fw(*args, **kwargs)
        inner_iterations.append(inner.iterations)
        return inner

    monkeypatch.setattr(monotones._DivergenceTables, "__init__", counting_init)
    monkeypatch.setattr(monotones, "_fw_minimize", counting_fw)
    r = bw.s_uc(noisy_pr(0.8), TOL)
    assert len(builds) == 1
    assert len(inner_iterations) > 100
    assert r.iterations == sum(inner_iterations)
    assert r.gap_estimate <= TOL


@pytest.mark.parametrize("quantifier", ["su", "suc", "snl", "sc"])
def test_value_minus_gap_is_a_nonnegative_lower_bound(quantifier):
    # every value is the upper end of a closed bracket whose lower end,
    # value - gap_estimate, bounds a divergence and so is never below 0
    boxes = [bw.random_local_behavior(SC2222, seed)[0] for seed in range(6)]
    boxes += [noisy_pr(0.8), pr_relabeling_mixture(7, 0.8, 1)]
    kwargs = {"restarts": 1} if quantifier == "suc" else {}
    for p in boxes:
        r = monotones.evaluate_quantifier(quantifier, p, TOL, **kwargs)
        assert r.gap_estimate <= TOL
        assert r.value - r.gap_estimate >= 0.0


# ---------------------------------------------------------------------------
# The barrier epigraph solve and its divergence tables
# ---------------------------------------------------------------------------


def _kls_grads_hessian_oracle(P, V, m, lam, c=None, clamp_kls=False):
    """Per-setting divergences, their gradients in the vertex weights and
    (given setting weights c) the c-weighted sum of their Hessians, one
    setting at a time. A supported outcome that lam leaves uncovered
    makes its setting's divergence +inf, or, with clamp_kls, takes
    q = 1e-300 there; the gradients and Hessian always take the clamp."""
    n, dim = V.shape
    k = dim // m
    Ps = P.reshape(m, k)
    qs = (lam @ V).reshape(m, k)
    kls = np.empty(m)
    grads = np.zeros((m, n))
    hess = np.zeros((n, n))
    for s in range(m):
        mask = Ps[s] > 0.0
        pe = Ps[s][mask]
        qe = np.maximum(qs[s][mask], 1e-300)
        if clamp_kls or np.all(qs[s][mask] > 0.0):
            kls[s] = float(np.sum(pe * np.log2(pe / qe)))
        else:
            kls[s] = math.inf
        Vs = V[:, s * k + np.where(mask)[0]]
        grads[s] = -(Vs @ (pe / qe)) / math.log(2.0)
        if c is not None:
            hess += c[s] * ((Vs * (pe / (qe * qe))) @ Vs.T)
    return kls, grads, hess / math.log(2.0)


class _OracleTables(monotones._DivergenceTables):
    """The box's tables with `kls` and `derivatives` read off the
    per-setting loop."""

    def __init__(self, p, clamp_kls=False):
        super().__init__(p)
        self.args = (p.flat(), self.V, self.shape[0])
        self.clamp_kls = clamp_kls

    def kls(self, lam):
        return _kls_grads_hessian_oracle(*self.args, lam, clamp_kls=self.clamp_kls)[0]

    def grads(self, lam):
        return _kls_grads_hessian_oracle(*self.args, lam)[1]

    def derivatives(self, lam, c):
        _, grads, hess = _kls_grads_hessian_oracle(*self.args, lam, c)
        return grads * lam, lam[:, None] * hess * lam


def _random_lams(n: int, seed: int, count: int = 6) -> list[np.ndarray]:
    # half of them with exact zeros, as the weights pairwise exchanges
    # leave (and the barrier's warm starts) have
    rng = np.random.default_rng([41, seed])
    lams = []
    for j in range(count):
        lam = rng.dirichlet(np.full(n, 0.3))
        if j % 2:
            lam[rng.random(n) < 0.5] = 0.0
            lam[rng.integers(n)] = 0.5
            lam /= lam.sum()
        lams.append(lam)
    return lams


def _assert_close_to_largest(got, want, rtol=1e-12):
    """Equal inf and NaN entries; finite entries within rtol of the
    largest finite entry of want."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    if finite.any():
        scale = np.abs(want[finite]).max()
        assert np.abs(got[finite] - want[finite]).max() <= rtol * scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_tables_match_per_setting_loop():
    # weights with exact zeros can leave a supported outcome uncovered:
    # its divergence is +inf and its curvature inf or nan, alike on both
    from bellwire.monotones import _DivergenceTables

    boxes = [bw.pr_box(), noisy_pr(0.8)]
    boxes += [pr_relabeling_mixture(k, w, v)
              for k, w, v in ((7, 0.8, 1), (6, 0.95, 1), (3, 0.7, 9), (0, 0.5, 14))]
    boxes += [tsirelson_4222(i) for i in (0, 4)]
    for seed, p in enumerate(boxes):
        m = p.scenario.sA * p.scenario.sB
        tables, oracle = _DivergenceTables(p), _OracleTables(p)
        c = np.random.default_rng([43, seed]).dirichlet(np.ones(m))
        for lam in _random_lams(tables.n, seed):
            assert np.array_equal(tables.kls(lam), oracle.kls(lam))
            for got, want in zip(tables.derivatives(lam, c), oracle.derivatives(lam, c)):
                _assert_close_to_largest(got, want)
    # settings of 9 outcome pairs, beyond the 8 that numpy sums in order
    # (so kls equals the loop to rounding), and a setting of weight zero
    assert np.any(bw.pr_box().flat() == 0.0)
    sc = bw.Scenario(2, 3, 2, 3)
    p = bw.Behavior(sc, 0.6 * bw.local_vertex_matrix(sc)[5].reshape(sc.shape)
                    + 0.4 * bw.random_ns_behavior(sc, 1).p)
    tables, oracle = _DivergenceTables(p), _OracleTables(p)
    c = np.array([0.5, 0.0, 0.25, 0.25])
    for lam in _random_lams(tables.n, 99):
        np.testing.assert_allclose(tables.kls(lam), oracle.kls(lam), rtol=1e-13, atol=1e-15)
        for got, want in zip(tables.derivatives(lam, c), oracle.derivatives(lam, c)):
            _assert_close_to_largest(got, want)


def test_minimax_rows_infinite_exactly_where_uncovered():
    # a supported outcome with no weight on any vertex that produces it
    # makes every row that weighs its setting +inf, not a large finite
    # value read off a floored q
    rng = np.random.default_rng(47)
    seen = set()
    for p, M in ((noisy_pr(0.8), None), (bw.pr_box(), None),
                 (pr_relabeling_mixture(7, 0.8, 1), np.kron([1.0, 0.0], np.eye(2))),
                 (tsirelson_4222(0), np.kron([0.0, 0.2, 0.0, 0.8], np.eye(2)))):
        P = p.flat()
        m = p.scenario.sA * p.scenario.sB
        tables = monotones._DivergenceTables(p)
        solver = monotones._MinimaxSolver(tables, TOL, M)
        for size in range(1, 9):
            lam = np.zeros(tables.n)
            lam[rng.choice(tables.n, size, replace=False)] = rng.dirichlet(np.ones(size))
            uncovered = ((P > 0.0) & (lam @ tables.V == 0.0)).reshape(m, -1).any(axis=1)
            want = (solver.M[:, uncovered] > 0.0).any(axis=1)
            rows = solver.rows(lam)
            assert np.array_equal(np.isinf(rows), want)
            assert np.all(np.isfinite(rows[~want]))
            seen.update(want.tolist())
    assert seen == {True, False}


def _slsqp_epigraph_oracle(p, M, lam0):
    """SciPy's SLSQP on the epigraph program min t s.t. every row value of
    M @ (per-setting divergences) is <= t, over the weight simplex, with
    the per-setting loop's divergences and gradients; returns the worst
    row value at its (clipped, renormalized) weights. SLSQP takes no
    +inf or NaN, so its divergences take the clamp."""
    from scipy.optimize import minimize

    tables = _OracleTables(p, clamp_kls=True)
    n = tables.n
    lam0 = (1.0 - 1e-9) * np.clip(lam0, 0.0, None) + 1e-9 / n
    lam0 = lam0 / lam0.sum()
    x0 = np.concatenate([lam0, [float(np.max(M @ tables.kls(lam0))) + 1e-3]])

    def cons_j(x):
        J = np.zeros((M.shape[0], n + 1))
        J[:, :n] = -(M @ tables.grads(np.clip(x[:n], 0.0, None)))
        J[:, -1] = 1.0
        return J

    res = minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: np.concatenate([np.zeros(n), [1.0]]),
        method="SLSQP",
        bounds=[(0.0, None)] * n + [(None, None)],
        constraints=[
            {"type": "ineq", "jac": cons_j,
             "fun": lambda x: x[-1] - M @ tables.kls(np.clip(x[:n], 0.0, None))},
            {"type": "eq", "fun": lambda x: np.sum(x[:n]) - 1.0,
             "jac": lambda x: np.concatenate([np.ones(n), [0.0]])},
        ],
        options={"maxiter": 400, "ftol": 1e-16},
    )
    lam = np.clip(res.x[:n], 0.0, None)
    return float(np.max(M @ tables.kls(lam / lam.sum())))


def _barrier_cases():
    """(behavior, input map M) pairs: settings as rows on the Tsirelson
    4222 pool and PR-relabeling mixtures, and s_uc's two block maps, one
    with zero entries in the fixed marginal."""
    cases = [(tsirelson_4222(i), None) for i in range(5)]
    cases += [(pr_relabeling_mixture(k, w, v), None)
              for k, w, v in ((7, 0.8, 1), (6, 0.95, 1), (3, 0.7, 9))]
    p = tsirelson_4222(0)
    cases.append((p, np.kron(np.eye(4), [0.3, 0.7])))
    cases.append((p, np.kron([0.49, 0.51, 0.0, 0.0], np.eye(2))))
    cases.append((p, np.kron([0.0, 0.2, 0.0, 0.8], np.eye(2))))
    cases.append((pr_relabeling_mixture(7, 0.8, 1), np.kron([1.0, 0.0], np.eye(2))))
    return cases


def test_barrier_epigraph_matches_slsqp_oracle():
    # from the minimizer at a point mass on the first row, far from the
    # saddle point: the bracket starts open by 0.18 to 1.07 bits
    from bellwire import monotones

    for p, M in _barrier_cases():
        solver = monotones._MinimaxSolver(monotones._DivergenceTables(p), TOL, M)
        solver.solve_at(np.eye(solver.k)[0], 1e-4)
        assert solver.gap > 0.1
        M = solver.M
        lam, D = monotones._barrier_epigraph(solver.tables, M, solver.lam_best,
                                             solver.gap, TOL)
        upper = float(np.max(solver.rows(lam)))
        oracle = _slsqp_epigraph_oracle(p, M, solver.lam_best)
        assert abs(upper - oracle) <= TOL / 8.0
        inner = monotones._fw_minimize(solver.tables, D @ M, gap_tol=TOL / 8.0, lam0=lam)
        assert inner.converged
        assert upper - (inner.value - inner.gap) <= TOL


def test_epigraph_polish_matches_per_setting_loop():
    # the fused tables and the per-setting loop round differently, so the
    # barrier takes slightly different paths: its weights must give the
    # same exact rows, and the solver must close the same bracket
    from bellwire import monotones

    p = tsirelson_4222(4)
    tables = monotones._DivergenceTables(p)
    solvers = [monotones._MinimaxSolver(t, TOL) for t in (tables, _OracleTables(p))]
    m = solvers[0].k
    lam0 = monotones._fw_minimize(tables, np.full(m, 1.0 / m), gap_tol=1e-4).lam
    got, want = (monotones._barrier_epigraph(s.tables, np.eye(m), lam0, 1e-3, TOL)
                 for s in solvers)
    rows = solvers[0].rows
    np.testing.assert_allclose(rows(got[0]), rows(want[0]), rtol=0.0, atol=1e-9)
    for s in solvers:
        s.run()
        assert s.closed
    a, b = solvers
    assert max(a.lower, b.lower) <= min(a.upper, b.upper)


# ---------------------------------------------------------------------------
# The pairwise-exchange line search of the inner Frank-Wolfe solver
# ---------------------------------------------------------------------------


def _phi(cE, qE, d, g):
    denom = qE + g * d
    return math.inf if denom.min() <= 0.0 else -float(np.sum(cE * np.log(denom)))


def _dphi(cE, qE, d, g):
    denom = qE + g * d
    return math.inf if denom.min() <= 0.0 else -float(np.sum(cE * d / denom))


def _exchange_case(kind: str, seed: int):
    """Random (cE, qE, d, gamma_max) shaped like a pairwise exchange
    (d = toward vertex - away vertex, entries in {-1, 0, 1}), drawn until
    the line search falls in the named regime."""
    rng = np.random.default_rng([31, seed])
    k = 16
    for _ in range(1000):
        d = rng.choice([-1.0, 0.0, 1.0], size=k)
        if not (np.any(d > 0) and np.any(d < 0)):
            continue
        gamma_max = float(rng.uniform(0.05, 0.5))
        qE = rng.uniform(0.01, 0.5, size=k) + np.where(d < 0, gamma_max, 0.0)
        if kind == "pole":
            # an entry only the away vertex covers: its denominator
            # reaches 0 exactly at the full step
            qE[np.flatnonzero(d < 0)[0]] = gamma_max
        cE = rng.uniform(0.01, 1.0, size=k)
        at_max = _dphi(cE, qE, d, gamma_max)
        regime = ("pole" if math.isinf(at_max)
                  else "full" if at_max <= 0.0 else "interior")
        if regime == kind and _dphi(cE, qE, d, 0.0) < 0.0:
            return cE, qE, d, gamma_max
    raise AssertionError(f"no {kind} case drawn")


def _line_search_oracle(cE, qE, d, gamma_max):
    """SciPy's bounded Brent search, refined in a second search around
    its first answer x0: in the offset s, phi(x0 + s) - phi(x0) =
    -sum cE log1p(s d / (qE + x0 d)) keeps full relative precision, and
    the search's sqrt(eps)*|s| tolerance becomes negligible."""
    from scipy.optimize import minimize_scalar

    x0 = minimize_scalar(lambda g: _phi(cE, qE, d, g), bounds=(0.0, gamma_max),
                         method="bounded", options={"xatol": 1e-12 * gamma_max}).x
    ratio = d / (qE + x0 * d)

    def offset_phi(s):
        arg = s * ratio
        return math.inf if arg.min() <= -1.0 else -float(np.sum(cE * np.log1p(arg)))

    w = 1e-6 * gamma_max
    s = minimize_scalar(offset_phi, bounds=(max(-x0, -w), min(gamma_max - x0, w)),
                        method="bounded", options={"xatol": 1e-13 * gamma_max}).x
    # the refined optimum must lie inside the refinement window
    assert abs(s) < 0.99 * w or x0 + s > gamma_max * (1 - 1e-9)
    return x0 + s


@pytest.mark.parametrize("kind", ["interior", "full", "pole"])
def test_exchange_step_matches_bounded_oracle(kind):
    from bellwire.monotones import _exchange_step

    for seed in range(20):
        cE, qE, d, gamma_max = _exchange_case(kind, seed)
        gamma, evals = _exchange_step(cE, qE, d, gamma_max)
        assert 0.0 <= gamma <= gamma_max
        assert _phi(cE, qE, d, gamma) <= _phi(cE, qE, d, 0.0)
        assert abs(gamma - _line_search_oracle(cE, qE, d, gamma_max)) <= 1e-9 * gamma_max
        if kind == "full":
            assert gamma == gamma_max and evals == 1
        else:
            assert gamma < gamma_max
            # a 50-step bisection takes 51 evaluations
            assert evals <= 16


def test_exchange_step_bounded_at_rounding_noise():
    # an interior case cut down to a window of 1e-6..1e-10 of its full
    # step around the minimizer, as when the away vertex has little
    # weight left: phi' reaches rounding noise long before the bracket is
    # 1e-15 of gamma_max wide, and the search must still end, near the
    # minimizer
    from bellwire.monotones import LINE_SEARCH_EVALS, _exchange_step

    for seed in range(20):
        cE, qE, d, gamma_max = _exchange_case("interior", seed)
        rng = np.random.default_rng([37, seed])
        width = gamma_max * 10.0 ** rng.uniform(-10.0, -6.0)
        offset = rng.uniform(0.1, 0.9) * width
        start = _line_search_oracle(cE, qE, d, gamma_max) - offset
        gamma, evals = _exchange_step(cE, qE + start * d, d, width)
        assert 0.0 <= gamma < width
        assert abs(gamma - offset) <= 1e-9 * gamma_max
        assert evals <= LINE_SEARCH_EVALS


def assert_same_result(a, b) -> None:
    assert (a.value, a.gap_estimate, a.iterations) == (b.value, b.gap_estimate, b.iterations)
    assert np.array_equal(a.optimizer_local.weights, b.optimizer_local.weights)
    if a.optimizer_inputs is None:
        assert b.optimizer_inputs is None
    else:
        assert np.array_equal(a.optimizer_inputs.d, b.optimizer_inputs.d)


@pytest.fixture
def solves(monkeypatch):
    """Counts `_MinimaxSolver.run` and `solve_at` calls, starting from an
    empty record of the last shared solve."""
    counts = {"run": 0, "solve_at": 0}
    for name in counts:
        real = getattr(monotones._MinimaxSolver, name)

        def counting(self, *args, _real=real, _name=name):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(monotones._MinimaxSolver, name, counting)
    monkeypatch.setattr(monotones, "_last_solve", None)
    return counts


def test_s_c_then_s_nl_share_one_solve(solves):
    p = pr_relabeling_mixture(7, 0.8, 1)
    c = bw.s_c(p, TOL)
    n = bw.s_nl(p, TOL)
    assert solves["run"] == 1
    assert n.value == c.value and n.optimizer_inputs is None
    # the shared solve's results are those of fresh solves
    assert_same_result(c, fresh(bw.s_c, p))
    assert_same_result(n, fresh(bw.s_nl, p))
    assert solves["run"] == 3


def test_a_new_box_or_tol_solves_again(solves):
    p, q = pr_relabeling_mixture(7, 0.8, 1), noisy_pr(0.8)
    bw.s_nl(p, TOL)
    bw.s_c(p, TOL / 2)
    assert solves["run"] == 2
    bw.s_c(q, TOL)
    assert solves["run"] == 3
    # only the last solve is kept
    bw.s_nl(p, TOL)
    assert solves["run"] == 4
    # an equal table in a new Behavior is the same box
    bw.s_c(bw.Behavior(p.scenario, np.array(p.p)), TOL)
    assert solves["run"] == 4


def test_independent_routes_do_not_share_the_solve(solves):
    p = pr_relabeling_mixture(7, 0.8, 1)
    bw.s_nl(p, TOL)
    before = solves["solve_at"]
    bw.s_c_alternating(p, TOL)
    assert solves["solve_at"] > before
    runs = solves["run"]
    bw.s_uc(p, TOL, restarts=1, seed=0)
    assert solves["run"] > runs
    # neither replaced the record of the last s_nl solve
    runs = solves["run"]
    bw.s_c(p, TOL)
    assert solves["run"] == runs


def test_a_failed_solve_is_not_kept(solves, monkeypatch):
    p = pr_relabeling_mixture(7, 0.8, 1)
    bw.s_nl(noisy_pr(0.8), TOL)
    with monkeypatch.context() as m:
        m.setattr(monotones, "POLISH_ROUNDS", 0)
        with pytest.raises(NoConvergence):
            bw.s_nl(p, TOL)
    assert monotones._last_solve is None
    bw.s_c(p, TOL)
    assert solves["run"] == 3
