import itertools
import math
import warnings

import numpy as np
import pytest

import bellwire as bw
from bellwire import monotones
from bellwire.errors import NoConvergence, ParameterOutOfRange, ScenarioMismatch

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
    within the bracket of the value."""
    from bellwire.monotones import _DivergenceTables, _inner_minimize

    assert r.optimizer_inputs is not None
    assert r.optimizer_inputs.kind == "general"
    inner = _inner_minimize(_DivergenceTables(p), r.optimizer_inputs.d.reshape(-1),
                            gap_tol=TOL, lam0=r.optimizer_local.weights)
    assert inner.gap <= TOL
    assert inner.value - inner.gap >= r.value - r.gap_estimate - TOL


def fresh(quantifier, p: bw.Behavior, tol: float = TOL):
    """quantifier(p, tol) from solves of its own: the module's tables of
    the most recent box (with its uniform starts and `s_c`'s results)
    are dropped first."""
    monotones._box = None
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
    from bellwire.monotones import _DivergenceTables, _inner_minimize

    for p in (noisy_pr(0.8), pr_relabeling_mixture(7, 0.8, 1)):
        tables = _DivergenceTables(p)
        best = 0.0
        for ax in np.linspace(0, 1, 21):
            for by in np.linspace(0, 1, 21):
                D = np.outer([ax, 1 - ax], [by, 1 - by]).reshape(-1)
                inner = _inner_minimize(tables, D, gap_tol=1e-7)
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


def test_apply_wiring_rejects_a_non_wiring():
    from bellwire.errors import ParameterOutOfRange

    with pytest.raises(ParameterOutOfRange, match="not a wiring"):
        bw.apply_wiring("x", bw.pr_box())


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


def test_convexity_audit_refuses_another_scenario_and_mu_outside_0_1():
    # a 1222 p_prime broadcasts against a 2222 p, and mu = 1.5 is no mixture
    p_other = bw.white_noise(bw.Scenario(1, 2, 2, 2))
    with pytest.raises(ScenarioMismatch):
        bw.convexity_audit("snl", bw.pr_box(), p_other, [0.5], TOL)
    for mu in (1.5, -0.25, math.nan):
        with pytest.raises(ParameterOutOfRange):
            bw.convexity_audit("snl", bw.pr_box(), bw.white_noise(SC2222), [0.5, mu], TOL)


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

    real = monotones._inner_minimize
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(monotones, "_inner_minimize", counting)
    p = noisy_pr(0.8)
    r = bw.s_uc(p, TOL, restarts=1, seed=0)
    assert r.value > 1e-3 and r.gap_estimate <= TOL
    last = len(calls)

    def stalled_last(*args, **kwargs):
        calls.append(None)
        inner = real(*args, **kwargs)
        if len(calls) == 2 * last:
            return replace(inner, gap=1e-3)
        return inner

    monkeypatch.setattr(monotones, "_inner_minimize", stalled_last)
    with pytest.raises(NoConvergence) as err:
        bw.s_uc(p, TOL, restarts=1, seed=0)
    assert len(calls) == 2 * last
    # the error reports the final bracket's width: the stalled inner gap
    # plus the rounding between the exact rows and the inner value
    assert 1e-3 <= err.value.gap <= 1e-3 + 1e-12


def test_s_uc_builds_the_tables_once(monkeypatch):
    # every block solve and the final solve read one set of the box's
    # tables, and the result counts the inner iterations of all of them:
    # every inner minimization is a `_inner_minimize` call
    real_init, real_fw = monotones._DivergenceTables.__init__, monotones._inner_minimize
    builds, inner_iterations = [], []

    def counting_init(self, p):
        builds.append(p)
        real_init(self, p)

    def counting_fw(*args, **kwargs):
        inner = real_fw(*args, **kwargs)
        inner_iterations.append(inner.iterations)
        return inner

    monkeypatch.setattr(monotones._DivergenceTables, "__init__", counting_init)
    monkeypatch.setattr(monotones, "_inner_minimize", counting_fw)
    monkeypatch.setattr(monotones, "_box", None)
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


@pytest.mark.filterwarnings("error")
def test_no_bracket_reports_a_negative_width():
    # at tols below rounding the two ends of a bracket can cross: a
    # quantifier returns their distance, never a negative width, or
    # raises NoConvergence when that distance is above tol
    boxes = [bw.pr_box(), bw.random_local_behavior(SC2222, 0)[0]]
    boxes += [noisy_pr(v) for v in (0.6, 0.7, 0.8, 0.9)]
    calls = [(monotones.evaluate_quantifier, (q, p)) for p in boxes for q in ("su", "snl", "sc")]
    calls.append((bw.s_u, (tsirelson_4222(3),)))
    cases = [(f, args, tol) for tol in (1e-16, 1e-17, 1e-18) for f, args in calls]
    cases.append((bw.s_nl, (pr_relabeling_mixture(3, 0.8, 1),), 1e-17))
    returned = 0
    for f, args, tol in cases:
        try:
            r = f(*args, tol)
        except NoConvergence as err:
            assert err.gap > tol
            continue
        returned += 1
        assert 0.0 <= r.gap_estimate <= tol
    assert returned > 0


def test_a_tol_below_rounding_ends_in_no_convergence():
    # the brackets of the PR box and of noisy_pr(0.9) cannot close to
    # 1e-18, below the float spacing at their values: the call raises the
    # typed error, and no division by a zero slack warns on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            fresh(bw.s_nl, bw.pr_box(), 1e-18)
        with pytest.raises(NoConvergence):
            fresh(bw.s_nl, noisy_pr(0.9), 1e-18)


@pytest.mark.parametrize("box", ["pr_box", "noisy_pr", 0, 1, 2, 3])
def test_s_u_value_is_its_inner_value_bit_for_bit(box):
    # the inner minimization's value and the engine's one row read one
    # evaluator, so s_u's bracket closes on its inner value exactly
    if box == "pr_box":
        p = bw.pr_box()
    else:
        p = noisy_pr(0.8) if box == "noisy_pr" else tsirelson_4222(box)
    r = fresh(bw.s_u, p)
    inner = monotones._box.uniform_start(TOL)
    assert r.value == inner.value
    assert r.gap_estimate >= 0.0


# ---------------------------------------------------------------------------
# The barrier epigraph solve and its divergence tables
# ---------------------------------------------------------------------------


def _kls_grads_hessian_oracle(P, V, m, q, c=None, clamp_kls=False):
    """Per-setting divergences at the image q of some vertex weights,
    their gradients in the vertex weights and (given setting weights c)
    the c-weighted sum of their Hessians, one setting at a time. A
    supported outcome that q leaves uncovered makes its setting's
    divergence +inf, or, with clamp_kls, takes q = 1e-300 there; the
    gradients and Hessian always take the clamp."""
    n, dim = V.shape
    k = dim // m
    Ps = P.reshape(m, k)
    qs = q.reshape(m, k)
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
    per-setting loop. `kls` runs it from the caller's q; `derivatives`
    forms its own q from lam and ignores the caller's."""

    def __init__(self, p, clamp_kls=False):
        super().__init__(p)
        self.args = (p.flat(), self.V, self.shape[0])
        self.clamp_kls = clamp_kls

    def kls(self, q):
        return _kls_grads_hessian_oracle(*self.args, q, clamp_kls=self.clamp_kls)[0]

    def grads(self, lam):
        return _kls_grads_hessian_oracle(*self.args, lam @ self.V)[1]

    def derivatives(self, lam, c, q):
        _, grads, hess = _kls_grads_hessian_oracle(*self.args, lam @ self.V, c)
        return grads * lam, lam[:, None] * hess * lam


def _random_lams(n: int, seed: int, count: int = 6) -> list[np.ndarray]:
    # half of them with exact zeros, which leave outcomes uncovered and
    # so reach the +inf divergences and the floor on q
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
            q = lam @ tables.V
            assert np.array_equal(tables.kls(q), oracle.kls(q))
            for got, want in zip(tables.derivatives(lam, c, q), oracle.derivatives(lam, c, q)):
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
        q = lam @ tables.V
        np.testing.assert_allclose(tables.kls(q), oracle.kls(q), rtol=1e-13, atol=1e-15)
        for got, want in zip(tables.derivatives(lam, c, q), oracle.derivatives(lam, c, q)):
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
            rows = tables.rows(lam @ tables.V, solver.M)
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
    x0 = np.concatenate([lam0, [float(np.max(M @ tables.kls(lam0 @ tables.V))) + 1e-3]])

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
             "fun": lambda x: x[-1] - M @ tables.kls(np.clip(x[:n], 0.0, None) @ tables.V)},
            {"type": "eq", "fun": lambda x: np.sum(x[:n]) - 1.0,
             "jac": lambda x: np.concatenate([np.ones(n), [0.0]])},
        ],
        options={"maxiter": 400, "ftol": 1e-16},
    )
    lam = np.clip(res.x[:n], 0.0, None)
    return float(np.max(M @ tables.kls(lam / lam.sum() @ tables.V)))


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
        upper = float(np.max(solver.tables.rows(lam @ solver.tables.V, M)))
        oracle = _slsqp_epigraph_oracle(p, M, solver.lam_best)
        assert abs(upper - oracle) <= TOL / 8.0
        inner = monotones._inner_minimize(solver.tables, D @ M, gap_tol=TOL / 8.0, lam0=lam)
        assert inner.gap <= TOL / 8.0
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
    lam0 = monotones._inner_minimize(tables, np.full(m, 1.0 / m), gap_tol=1e-4).lam
    got, want = (monotones._barrier_epigraph(s.tables, np.eye(m), lam0, 1e-3, TOL)
                 for s in solvers)
    M = solvers[0].M
    np.testing.assert_allclose(tables.rows(got[0] @ tables.V, M),
                               tables.rows(want[0] @ tables.V, M), rtol=0.0, atol=1e-9)
    for s in solvers:
        s.run()
        assert s.closed
    a, b = solvers
    assert max(a.lower, b.lower) <= min(a.upper, b.upper)


def generalized_pr_mixture(sc: bw.Scenario, rng: np.random.Generator, w: float) -> bw.Behavior:
    """b - a = px(x) py(y) + shift (mod d) at weight w, plus a Dirichlet
    mixture of 32 random deterministic boxes: the generalized PR mixture
    of the perfbench pools, with the same draws from rng."""
    d = sc.rA
    px, py = rng.permutation(sc.sA), rng.permutation(sc.sB)
    shift = int(rng.integers(d))
    t = np.zeros(sc.shape)
    for x, y, a in itertools.product(range(sc.sA), range(sc.sB), range(d)):
        t[x, y, a, (a + px[x] * py[y] + shift) % d] = 1.0 / d
    V = bw.local_vertex_matrix(sc)
    idx = rng.choice(V.shape[0], size=min(32, V.shape[0]), replace=False)
    loc = (rng.dirichlet(np.ones(idx.size)) @ V[idx]).reshape(sc.shape)
    return bw.Behavior(sc, w * t + (1.0 - w) * loc)


def test_s_nl_closes_a_nonlocal_3333_box():
    # 729 vertices: the staged log-barrier polish left this box's bracket
    # open by 4.2e-2, and s_nl raised NoConvergence after about 8 s
    p = generalized_pr_mixture(bw.Scenario(3, 3, 3, 3), np.random.default_rng([73, 1]), 0.696)
    r = fresh(bw.s_nl, p)
    assert r.gap_estimate <= TOL
    assert r.value > 0.1
    assert bw.behavior_re(p, r.optimizer_local.reconstruct()).bits == pytest.approx(
        r.value, abs=1e-9)


def test_s_nl_closes_a_nonlocal_4343_box():
    # 6561 vertices: an epigraph polish over all of them did not finish in
    # 120 s; on its active set it closes in about half a second
    p = generalized_pr_mixture(bw.Scenario(4, 3, 4, 3), np.random.default_rng([73, 1]), 0.696)
    r = fresh(bw.s_nl, p)
    assert r.gap_estimate <= TOL
    assert r.value > 0.1
    assert bw.behavior_re(p, r.optimizer_local.reconstruct()).bits == pytest.approx(
        r.value, abs=1e-9)


@pytest.mark.parametrize("box", ["tsirelson", "pr_relabeling"])
def test_pricing_repairs_a_start_set_that_misses_the_saddle(box, monkeypatch):
    # with the floor at half the largest weight, the first active set is
    # the heaviest start vertices and the rows' best responses; the
    # saddle point's weights live on vertices outside it, which pricing
    # must bring in within the polish rounds
    p = tsirelson_4222(0) if box == "tsirelson" else pr_relabeling_mixture(7, 0.8, 1)
    want = fresh(bw.s_nl, p)
    sets = []
    barrier = monotones._barrier_epigraph

    def recorded(tables, *args):
        sets.append({tuple(row) for row in tables.V})
        return barrier(tables, *args)

    monkeypatch.setattr(monotones, "ACTIVE_FLOOR", 0.5)
    monkeypatch.setattr(monotones, "_barrier_epigraph", recorded)
    tables = monotones._DivergenceTables(p)
    solver = monotones._MinimaxSolver(tables, TOL)
    solver.run(tables.uniform_start(TOL))
    assert solver.closed
    assert solver.lower <= solver.upper
    weights = solver.lam_best
    support = {tuple(row) for row in tables.V[weights > 1e-3 * weights.max()]}
    assert support - sets[0]
    assert abs(solver.upper - want.value) <= solver.gap + want.gap_estimate


@pytest.mark.parametrize("fails", ["second", "after_first"])
def test_a_failed_later_barrier_solve_keeps_the_earlier_one(fails, monkeypatch):
    # this box's first polish solves the barrier on three growing active
    # sets. When a later solve fails, the polish keeps the bracket the
    # earlier solve left; when only the second fails, the run still
    # closes
    p = generalized_pr_mixture(bw.Scenario(3, 3, 3, 3), np.random.default_rng([73, 1]), 0.696)
    barrier = monotones._barrier_epigraph
    returned, brackets = [], []

    def failing(tables, *args):
        brackets.append((solver.lower, solver.upper))
        returned.append(None)
        if len(returned) == 1 or (fails == "second" and len(returned) > 2):
            returned[-1] = barrier(tables, *args)
        return returned[-1]

    tables = monotones._DivergenceTables(p)
    solver = monotones._MinimaxSolver(tables, TOL)
    solver.take(np.full(solver.k, 1.0 / solver.k), tables.uniform_start(TOL))
    monkeypatch.setattr(monotones, "_barrier_epigraph", failing)
    assert solver.polish()
    assert len(returned) == 2 and returned[1] is None
    # the first solve lowered the upper end, and the failed one kept it
    assert brackets[1][1] < brackets[0][1]
    assert (solver.lower, solver.upper) == brackets[1]
    assert solver.lower <= solver.upper
    if fails == "second":
        solver.run(tables.uniform_start(TOL))
        assert solver.closed


def test_s_nl_closes_at_1e_14_in_one_polish(monkeypatch):
    # the lower end of each barrier solve is its own pricing: the
    # D-weighted divergence at its weights less their Frank-Wolfe gap
    # over every vertex. An inner minimization at D, run after the polish,
    # once left this bracket open, and a second polish was needed on the
    # support of that minimizer
    polish = monotones._MinimaxSolver.polish
    polishes = []

    def counted(self):
        polishes.append(self)
        return polish(self)

    monkeypatch.setattr(monotones._MinimaxSolver, "polish", counted)
    r = fresh(bw.s_nl, tsirelson_4222(0), 1e-14)
    assert r.gap_estimate <= 1e-14
    assert len(polishes) == 1


@pytest.mark.parametrize("box", ["tsirelson_4222", "3333"])
def test_s_nl_closes_tight_tols_in_few_iterations(box):
    # Newton runs left open were once finished by multiplicative steps:
    # tsirelson_4222(0) at 1e-15 raised NoConvergence after hundreds of
    # thousands of them, and the 3333 box at 1e-14 closed after 46,335
    # gap checks. One Newton run per inner minimization closes both
    if box == "3333":
        p = generalized_pr_mixture(bw.Scenario(3, 3, 3, 3), np.random.default_rng([73, 1]),
                                   0.696)
        tol = 1e-14
    else:
        p, tol = tsirelson_4222(0), 1e-15
    r = fresh(bw.s_nl, p, tol)
    assert r.gap_estimate <= tol
    assert r.iterations <= monotones.NEWTON_STEPS


def test_a_polish_that_changes_nothing_ends_the_run(monkeypatch):
    # at 1e-16 the bracket of noisy_pr(0.9) is open by a rounding step
    # that no barrier solve moves, and pricing grows no set: the next
    # polish would repeat this one exactly, so the engine raises after it
    barrier = monotones._barrier_epigraph
    sizes = []

    def recorded(tables, *args):
        sizes.append(tables.n)
        return barrier(tables, *args)

    monkeypatch.setattr(monotones, "_barrier_epigraph", recorded)
    with pytest.raises(NoConvergence) as err:
        fresh(bw.s_nl, noisy_pr(0.9), 1e-16)
    assert len(sizes) == 1
    assert err.value.lower <= err.value.upper


def test_a_polish_never_writes_the_box_tables():
    # every polish reads a restricted copy of the vertex matrix; the box's
    # tables keep the scenario's one shared V and its vertex count
    p = tsirelson_4222(2)
    sc = p.scenario
    monotones._box = None
    bw.s_nl(p, TOL)
    tables = monotones._box
    n = tables.n
    bw.s_uc(p, TOL, restarts=1)
    assert monotones._box is tables
    assert tables.V is bw.local_vertex_matrix(sc)
    assert tables.n == n == tables.V.shape[0]


# ---------------------------------------------------------------------------
# Inner minimizations: Newton on the dual and the multiplicative steps
# ---------------------------------------------------------------------------


def _brackets_overlap(a, b) -> bool:
    return max(a.value - a.gap, b.value - b.gap) <= min(a.value, b.value)


def _em_oracle(cE, VE, lam, gap_tol, max_iter=100_000):
    """Multiplicative (expectation-maximization) steps from the positive
    weights lam, an independent solve of the inner minimization: each
    step multiplies every weight by its vertex's (VE cE / q) / C, which
    keeps the weights on the simplex. Stops at the first iterate whose
    Frank-Wolfe gap is at most gap_tol, or at the max_iter-th; returns
    the weights, their q, their gap and the number of gap checks."""
    it = 0
    while True:
        it += 1
        q = lam @ VE
        back = VE @ (cE / q)
        gap = float(back.max() - lam @ back) / monotones.LN2
        if gap <= gap_tol or it >= max_iter:
            return lam, q, gap, it
        lam = lam * back
        lam /= lam.sum()


@pytest.mark.parametrize("box", [0, 1, 2, 3, "noisy_pr"])
def test_cold_inner_minimization_agrees_with_frank_wolfe(box):
    # a cold solve runs Newton on the dual; the multiplicative steps of
    # the EM oracle, from the barycenter, are an independent solve. Each value
    # is exact at its weights and certified within its gap, so the
    # brackets overlap
    p = noisy_pr(0.8) if box == "noisy_pr" else tsirelson_4222(box)
    tables = monotones._DivergenceTables(p)
    m = tables.shape[0]
    uniform, gap_tol = np.full(m, 1.0 / m), TOL / (2.0 * m)
    newton = monotones._inner_minimize(tables, uniform, gap_tol=gap_tol)
    c = np.repeat(uniform, tables.shape[1]) * tables.P
    active = c > 0.0
    lam, qE, gap, it = _em_oracle(c[active], tables.V[:, active],
                                  np.full(tables.n, 1.0 / tables.n), gap_tol)
    value = float(np.sum(c[active] * np.log2(tables.P[active] / qE)))
    fw = monotones._InnerSolution(lam, value, gap, it, tables.kls(lam @ tables.V))
    for inner in (newton, fw):
        assert inner.gap <= gap_tol
        assert inner.value == pytest.approx(float(uniform @ tables.kls(inner.lam @ tables.V)),
                                            abs=1e-12)
    assert _brackets_overlap(newton, fw)
    assert newton.iterations < fw.iterations


def _uniform_inner(p):
    """The active weights c and vertex columns of p's inner minimization
    at uniform setting weights, and the engine's start gap there."""
    tables = monotones._DivergenceTables(p)
    m = tables.shape[0]
    c = np.repeat(np.full(m, 1.0 / m), tables.shape[1]) * tables.P
    active = c > 0.0
    return c[active], tables.V[:, active], TOL / (2.0 * m)


def test_a_warm_start_far_from_the_optimum_is_the_cold_start():
    # a vertex leaves entries uncovered, where its gap check reads no
    # number, so the barycenter is mixed in at theta = 1: after that one
    # check, the run is the cold run, bit for bit
    cE, VE, gap_tol = _uniform_inner(tsirelson_4222(0))
    lam0 = np.zeros(VE.shape[0])
    lam0[0] = 1.0
    cold = monotones._dual_newton(cE, VE, gap_tol)
    lam, q, gap, it = monotones._dual_newton(cE, VE, gap_tol, lam0)
    assert cold[2] <= gap_tol
    _assert_same_newton((lam, q, gap, it - 1), cold)


def test_a_warm_start_within_its_gap_returns_after_one_check():
    cE, VE, gap_tol = _uniform_inner(tsirelson_4222(0))
    cold = monotones._dual_newton(cE, VE, gap_tol)
    lam, q, gap, it = monotones._dual_newton(cE, VE, gap_tol, cold[0])
    assert it == 1
    assert gap == pytest.approx(cold[2], abs=1e-15) and gap <= gap_tol
    np.testing.assert_array_equal(lam, cold[0] / cold[0].sum())


def test_s_c_alternating_closes_the_four_setting_box_in_few_iterations():
    # its probes are warm solves; before they handed over to Newton, the
    # multiplicative steps took 7,475 iterations here
    p = bw.tsirelson_four_setting()
    alt = fresh(bw.s_c_alternating, p)
    assert alt.iterations < 2000
    assert abs(alt.value - fresh(bw.s_c, p).value) <= 2 * TOL


def test_cold_inner_minimization_closes_a_degenerate_dual():
    # s_uc's first block on this local box in criterion 6: at the dual
    # optimum nu = c / q is 1/4 on every entry, so C - V nu cancels to 0
    # up to rounding (to -1.3e-14) at 12 of the 16 vertices, and a slack
    # recomputed from nu is not positive there. Carried as an iterate, s
    # stays positive, and Newton closes the gap
    p = bw.random_ns_behavior(SC2222, 6_200_198)
    inner = monotones._inner_minimize(monotones._DivergenceTables(p), np.full(4, 0.25),
                                      gap_tol=TOL / 8.0)
    assert inner.gap <= TOL / 8.0
    assert np.all(np.isfinite(inner.lam)) and inner.lam.min() >= 0.0
    assert inner.value <= TOL / 8.0


@pytest.mark.parametrize("cut", [0, 3, "singular"])
def test_a_newton_run_left_open_leaves_the_bracket_open(monkeypatch, cut):
    # the NEWTON_STEPS cap or a singular system ends the Newton run above
    # its gap: the inner minimization returns that gap, and the engine,
    # whose barrier solves are cut or fail as well, raises NoConvergence
    # with a bracket that still holds the value
    p = tsirelson_4222(0)
    want = fresh(bw.s_nl, p)
    tables = monotones._DivergenceTables(p)
    m = tables.shape[0]
    uniform, gap_tol = np.full(m, 1.0 / m), TOL / (2.0 * m)
    if cut == "singular":
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
    else:
        monkeypatch.setattr(monotones, "NEWTON_STEPS", cut)
    inner = monotones._inner_minimize(tables, uniform, gap_tol=gap_tol)
    assert inner.gap > gap_tol
    assert inner.iterations == (1 if cut == "singular" else cut + 1)
    with pytest.raises(NoConvergence) as err:
        fresh(bw.s_nl, p)
    lower, upper = err.value.lower, err.value.upper
    assert lower <= want.value and upper >= want.value - want.gap_estimate


def test_s_u_closes_a_local_4343_box_in_few_newton_steps():
    # 6561 vertices and 144 entries: the Frank-Wolfe steps from the
    # barycenter took 965 iterations here, the Newton method 26 steps
    p = bw.random_ns_behavior(bw.Scenario(4, 3, 4, 3), 5)
    r = fresh(bw.s_u, p)
    assert r.value <= TOL
    assert r.gap_estimate <= TOL / 32.0
    assert r.iterations <= 60


def assert_same_result(a, b) -> None:
    assert (a.value, a.gap_estimate, a.iterations) == (b.value, b.gap_estimate, b.iterations)
    assert np.array_equal(a.optimizer_local.weights, b.optimizer_local.weights)
    if a.optimizer_inputs is None:
        assert b.optimizer_inputs is None
    else:
        assert np.array_equal(a.optimizer_inputs.d, b.optimizer_inputs.d)


@pytest.fixture
def solves(monkeypatch):
    """Counts `_MinimaxSolver.run` and `solve_at` calls, starting from a
    module that keeps no tables of a recent box."""
    counts = {"run": 0, "solve_at": 0}
    for name in counts:
        real = getattr(monotones._MinimaxSolver, name)

        def counting(self, *args, _real=real, _name=name):
            counts[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(monotones._MinimaxSolver, name, counting)
    monkeypatch.setattr(monotones, "_box", None)
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


def test_calls_on_one_box_build_its_tables_once(solves, monkeypatch):
    # every quantifier reads the box's tables through one lookup, so s_c,
    # s_u and s_nl on one box build them once and solve the saddle
    # problem once
    real_init = monotones._DivergenceTables.__init__
    builds = []

    def counting_init(self, p):
        builds.append(p)
        real_init(self, p)

    monkeypatch.setattr(monotones._DivergenceTables, "__init__", counting_init)
    p = noisy_pr(0.8)
    for quantifier in (bw.s_c, bw.s_u, bw.s_nl):
        quantifier(p, TOL)
    assert len(builds) == 1
    assert solves["run"] == 1


def test_independent_routes_do_not_share_the_solve(solves):
    p = pr_relabeling_mixture(7, 0.8, 1)
    bw.s_nl(p, TOL)
    before = solves["solve_at"]
    bw.s_c_alternating(p, TOL)
    assert solves["solve_at"] > before
    runs = solves["run"]
    bw.s_uc(p, TOL, restarts=1, seed=0)
    assert solves["run"] > runs
    # neither dropped the result of the last s_nl solve
    runs = solves["run"]
    bw.s_c(p, TOL)
    assert solves["run"] == runs


def test_no_convergence_carries_the_open_bracket(monkeypatch):
    # without a polish the uniform start leaves this box's bracket open;
    # the error reports both of its ends, and they bracket the value
    p = pr_relabeling_mixture(7, 0.8, 1)
    value = fresh(bw.s_nl, p).value
    monkeypatch.setattr(monotones, "POLISH_ROUNDS", 0)
    with pytest.raises(NoConvergence) as err:
        fresh(bw.s_nl, p)
    e = err.value
    assert e.lower <= value <= e.upper
    assert e.upper - e.lower == e.gap > TOL
    assert f"[{e.lower:.9g}, {e.upper:.9g}]" in str(e)
    # a solver that does not bracket its value reports no ends
    plain = NoConvergence(10, 1e-3)
    assert plain.lower is None and plain.upper is None
    assert "bracket" not in str(plain)


def test_a_failed_solve_is_not_kept(solves, monkeypatch):
    p = pr_relabeling_mixture(7, 0.8, 1)
    bw.s_nl(noisy_pr(0.8), TOL)
    with monkeypatch.context() as m:
        m.setattr(monotones, "POLISH_ROUNDS", 0)
        with pytest.raises(NoConvergence):
            bw.s_nl(p, TOL)
    assert TOL not in monotones._box.maximin
    bw.s_c(p, TOL)
    assert solves["run"] == 3


# ---------------------------------------------------------------------------
# The shared uniform start
# ---------------------------------------------------------------------------


COLD_START_QUANTIFIERS = (bw.s_u, bw.s_c, bw.s_nl, bw.s_c_alternating)


def test_shared_cold_run_is_bit_identical_in_every_order():
    # s_u is the engine's uniform start, which the first of them solves
    # and the box's tables keep; every call order gives what fresh solves
    # give
    for p in (noisy_pr(0.8), tsirelson_4222(0)):
        want = {q: fresh(q, p) for q in COLD_START_QUANTIFIERS}
        for order in itertools.permutations(COLD_START_QUANTIFIERS):
            monotones._box = None
            for q in order:
                assert_same_result(q(p, TOL), want[q])


def test_s_u_weights_survive_a_resume():
    # the kept start's weights are read-only: s_nl, which goes on from
    # them, leaves the weights s_u read, and the start that a later s_u
    # reads, as they were
    p = tsirelson_4222(0)
    monotones._box = None
    tables = monotones._tables_of(p)
    m = p.scenario.sA * p.scenario.sB
    solver = monotones._MinimaxSolver(tables, TOL, np.full((1, m), 1.0 / m))
    solver.take(np.ones(1), tables.uniform_start(TOL))
    lam, kept = solver.lam_best, solver.lam_best.copy()
    assert not lam.flags.writeable
    first = bw.s_u(p, TOL)
    bw.s_nl(p, TOL)
    assert np.array_equal(lam, kept)
    assert_same_result(bw.s_u(p, TOL), first)
    assert_same_result(first, fresh(bw.s_u, p))


def test_a_solver_on_its_own_tables_makes_its_own_cold_run(monkeypatch):
    # the shared start lives on the module's tables of the box: tables a
    # caller built, here the per-setting oracle's, solve a start of their
    # own, though the box is the same and s_nl left one on the module's
    p = noisy_pr(0.8)
    monkeypatch.setattr(monotones, "_box", None)
    bw.s_nl(p, TOL)
    real = monotones._inner_minimize
    runs = []

    def counting(tables, *args, **kwargs):
        runs.append(tables)
        return real(tables, *args, **kwargs)

    monkeypatch.setattr(monotones, "_inner_minimize", counting)
    solver = monotones._MinimaxSolver(_OracleTables(p), TOL)
    assert solver.tables.start == {}
    solver.run(solver.tables.uniform_start(TOL))
    assert runs and all(t is solver.tables for t in runs)
    assert solver.tables.start[TOL] is not monotones._box.start[TOL]


def test_a_new_box_or_tol_gets_a_new_run():
    p, q = noisy_pr(0.8), pr_relabeling_mixture(7, 0.8, 1)
    monotones._box = None
    bw.s_u(p, TOL)
    first = monotones._box.start[TOL]
    by_tol = bw.s_nl(p, TOL / 2)
    assert set(monotones._box.start) == {TOL, TOL / 2}
    assert monotones._box.start[TOL] is first
    by_box = bw.s_nl(q, TOL)
    assert set(monotones._box.start) == {TOL}
    assert monotones._box.start[TOL] is not first
    assert_same_result(by_tol, fresh(bw.s_nl, p, TOL / 2))
    assert_same_result(by_box, fresh(bw.s_nl, q, TOL))


@pytest.mark.parametrize("box", ["tsirelson_four", "noisy_pr"])
def test_s_u_stops_at_the_engine_start_gap(box):
    # s_u is the engine's start at uniform setting weights: its gap is at
    # most tol/(2m) for m settings, and its local model and iterations
    # are those of a solver's inner minimization there
    p = bw.tsirelson_four_setting() if box == "tsirelson_four" else noisy_pr(0.8)
    m = p.scenario.sA * p.scenario.sB
    r = fresh(bw.s_u, p)
    assert r.gap_estimate <= TOL / (2.0 * m)
    solver = monotones._MinimaxSolver(monotones._DivergenceTables(p), TOL)
    solver.solve_at(np.full(m, 1.0 / m), TOL / (2.0 * m))
    assert np.array_equal(r.optimizer_local.weights, solver.lam_best / solver.lam_best.sum())
    assert r.iterations == solver.iterations


def test_shared_run_saves_the_steps_of_s_u(monkeypatch):
    # the steps actually taken, counted by the iterations of the inner
    # solves: s_nl reads the start that s_u solved, so it repeats none
    # of its steps, and s_u after s_c reads the start s_c solved without
    # a step
    real = monotones._inner_minimize
    steps = []

    def counting(*args, **kwargs):
        inner = real(*args, **kwargs)
        steps.append(inner.iterations)
        return inner

    monkeypatch.setattr(monotones, "_inner_minimize", counting)
    p = tsirelson_4222(0)
    fresh(bw.s_u, p)
    s_u_steps = sum(steps)
    fresh(bw.s_nl, p)
    cold = sum(steps)
    fresh(bw.s_u, p)
    bw.s_nl(p, TOL)
    assert s_u_steps > 0
    assert sum(steps) - cold == cold - s_u_steps
    fresh(bw.s_c, p)
    before = sum(steps)
    bw.s_u(p, TOL)
    assert sum(steps) == before


@pytest.mark.parametrize("tol", [-1e-6, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("quantifier", [bw.s_u, bw.s_nl, bw.s_c, bw.s_c_alternating, bw.s_uc])
def test_a_bad_tol_raises_parameter_out_of_range(quantifier, tol):
    # a tol that is not positive and finite is refused before any solve
    with pytest.raises(ParameterOutOfRange):
        fresh(quantifier, bw.pr_box(), tol)


def test_a_negative_s_uc_seed_raises_parameter_out_of_range():
    with pytest.raises(ParameterOutOfRange):
        bw.s_uc(bw.pr_box(), TOL, restarts=1, seed=-1)


def test_a_non_integer_s_uc_seed_or_restarts_raises_parameter_out_of_range():
    for kwargs in ({"seed": 1.5}, {"seed": True}, {"seed": "1"}, {"restarts": "x"},
                   {"restarts": 2.0}, {"restarts": False}, {"restarts": -1}):
        with pytest.raises(ParameterOutOfRange):
            bw.s_uc(bw.pr_box(), TOL, **{"restarts": 1, "seed": 0, **kwargs})
    # numpy integers are integers
    r = bw.s_uc(bw.pr_box(), TOL, restarts=np.int64(1), seed=np.uint8(3))
    assert r.lower_bound


# ---------------------------------------------------------------------------
# The tables read the shared vertex matrix
# ---------------------------------------------------------------------------


def pr_box_with_an_unused_outcome() -> bw.Behavior:
    """The PR box with a third outcome for Alice that never occurs."""
    sc = bw.Scenario(2, 3, 2, 2)
    t = np.zeros(sc.shape)
    t[:, :, :2, :] = bw.pr_box().p
    return bw.Behavior(sc, t)


@pytest.mark.parametrize("box", ["unused_outcome", "tsirelson_4222"])
def test_tables_read_the_shared_vertex_matrix_in_place(box):
    # the one array with a row per vertex that the tables hold is the
    # scenario's vertex matrix itself, zero-probability outcomes or not
    p = pr_box_with_an_unused_outcome() if box == "unused_outcome" else tsirelson_4222(0)
    tables = monotones._DivergenceTables(p)
    assert tables.V is bw.local_vertex_matrix(p.scenario)
    # more vertices than table entries, so no other table has n rows
    assert tables.n > tables.V.shape[1]
    with_a_row_per_vertex = [name for name, value in vars(tables).items()
                             if isinstance(value, np.ndarray) and value.ndim
                             and value.shape[0] == tables.n]
    assert with_a_row_per_vertex == ["V"]


def test_tables_of_returns_its_own_box_when_another_thread_swaps_them():
    # another thread's call may replace the module's tables between the
    # lookup and the return; a trace hook does so at the return line, and
    # the call still reads its own box
    import linecache
    import sys

    p, other = noisy_pr(0.95), noisy_pr(0.8)
    want = fresh(bw.s_u, p, 1e-3)
    other_tables = monotones._DivergenceTables(other)

    def swap(frame, event, arg):
        line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
        if event == "line" and line.strip().startswith("return"):
            monotones._box = other_tables
        return swap

    def hook(frame, event, arg):
        return swap if frame.f_code is monotones._tables_of.__code__ else None

    monotones._box = None
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        got = bw.s_u(p, 1e-3)
    finally:
        sys.settrace(previous)
    assert monotones._box is other_tables
    assert_same_result(got, want)


def test_quantifier_calls_in_threads_return_their_own_boxes_results():
    # more threads than cores, each calling s_u on its own box, with a
    # short switch interval so that threads swap the module's tables
    # between each other's lookups and returns
    import sys
    import threading

    boxes = [noisy_pr(w) for w in (0.8, 0.85, 0.9, 0.95)]
    want = [fresh(bw.s_u, p, 1e-3).value for p in boxes]
    got = [[] for _ in boxes]

    def work(i):
        for _ in range(150):
            got[i].append(bw.s_u(boxes[i], 1e-3).value)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(boxes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [set(values) for values in got] == [{v} for v in want]
    assert all(len(values) == 150 for values in got)


# ---------------------------------------------------------------------------
# The two interior-point step loops against their allocating oracles
# ---------------------------------------------------------------------------


def _dual_newton_oracle(cE, VE, gap_tol, lam0=None):
    """`monotones._dual_newton` written with a fresh array for every
    intermediate: the same floating-point operations on the same operands
    in the same order as the library's in-place loop, so the two agree
    bit for bit."""
    n, d = VE.shape
    C = float(cE.sum())
    mu_end = gap_tol * monotones.LN2 / (8.0 * n)
    block = max(1, (1 << 20) // d)
    z, dz = np.empty(d + 2 * n), np.empty(d + 2 * n)
    nu, s, lam = z[:d], z[d:d + n], z[d + n:]
    dnu, ds, dlam = dz[:d], dz[d:d + n], dz[d + n:]
    lam[:] = 1.0 / n
    best = (None, None, math.inf)
    it = 0
    theta = 1.0
    alpha = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if lam0 is not None:
            it = 1
            lam_hat = lam0 / lam0.sum()
            q = lam_hat @ VE
            gap = (float((VE @ (cE / q)).max()) - C) / monotones.LN2
            if gap < best[2]:
                best = (lam_hat, q, gap)
            if gap <= gap_tol:
                return best + (it,)
            theta = min(1.0, gap)
            if theta < 1.0:
                lam[:] = theta / n + (1.0 - theta) * lam_hat
        start = it + 1
        while True:
            it += 1
            lam_hat = lam / lam.sum()
            q = lam_hat @ VE
            gap = (float((VE @ (cE / q)).max()) - C) / monotones.LN2
            if gap < best[2]:
                best = (lam_hat, q, gap)
            if gap <= gap_tol or it > monotones.NEWTON_STEPS:
                break
            if it == start:
                nu[:] = cE / q
                mu = max(theta * C / n, mu_end)
                s[:] = C if theta == 1.0 else np.maximum(C - VE @ nu, mu / lam)
            r = C - VE @ nu - s
            sigma = max((1.0 - alpha) ** 3, monotones.SIGMA_MIN)
            mu = max(sigma * float(lam @ s) / n, mu_end)
            w, mu_s, c_nu = lam / s, mu / s, cE / nu
            H = np.zeros((d, d))
            for lo in range(0, n, block):
                X = VE[lo:lo + block].T * np.sqrt(w[lo:lo + block])
                H += X @ X.T
            H.reshape(-1)[::d + 1] += c_nu / nu
            try:
                dnu[:] = np.linalg.solve(H, c_nu - VE.T @ (mu_s - w * r))
            except np.linalg.LinAlgError:
                break
            np.subtract(r, VE @ dnu, out=ds)
            np.subtract(mu_s - lam, w * ds, out=dlam)
            if not np.isfinite(dz).all():
                break
            shrink = float((dz / z).min())
            alpha = 1.0 if shrink >= 0.0 else min(1.0, (1.0 - min(0.01, n * mu)) / -shrink)
            z += alpha * dz
    return best + (it,)


def _barrier_epigraph_oracle(tables, M, lam0, gap0, tol):
    """`monotones._barrier_epigraph` written with a fresh array for every
    intermediate, concatenating its residual, right-hand side and
    fraction-to-boundary pair at every step: the same floating-point
    operations on the same operands in the same order as the library's
    in-place loop, so the two agree bit for bit."""
    n, k = lam0.size, M.shape[0]
    gap0 = min(gap0, 1.0)
    lam = (1.0 - gap0) * np.clip(lam0, 0.0, None) + gap0 / n
    lam = lam / lam.sum()
    mu_end = tol / (8.0 * (k + n))
    q = lam @ tables.V
    g = tables.rows(q, M)
    t = float(np.max(g)) + k * gap0 / (k + n)
    if not np.all(t > g):
        return None
    mu = 1.0 / float(np.sum(1.0 / (t - g)))
    D, z = mu / (t - g), mu / lam
    grads, H = tables.derivatives(lam, M.T @ D, q)
    G = M @ grads
    nu = float(z @ lam - D @ G.sum(1))

    def residual(lam, t, g, D, z, nu, G):
        return np.concatenate([G.T @ D + (nu - z) * lam, [1.0 - D.sum()],
                               D * (t - g), z * lam, [lam.sum() - 1.0]])

    centering = np.zeros(2 * n + k + 2)
    centering[n + 1:-1] = 1.0
    kkt = np.zeros((n + k + 2, n + k + 2))
    diagonal = kkt.reshape(-1)[::n + k + 3]
    kkt[n, n + 1:-1] = kkt[n + 1:-1, n] = -1.0
    r = residual(lam, t, g, D, z, nu, G)
    alpha = 0.0
    for _ in range(monotones.NEWTON_STEPS):
        s = t - g
        sigma = max((1.0 - alpha) ** 3, monotones.SIGMA_MIN)
        mu = max(sigma * float(r[n + 1:-1].sum()) / (k + n), mu_end)
        r = r - mu * centering
        norm = float(np.linalg.norm(r))
        if mu == mu_end and norm <= mu_end:
            break
        kkt[:n, :n] = H
        diagonal[:n] += z * lam
        diagonal[n + 1:-1] = -s / D
        kkt[n + 1:-1, :n] = G
        kkt[:n, n + 1:-1] = G.T
        kkt[:n, -1] = kkt[-1, :n] = lam
        rhs = np.concatenate([-(r[:n] + r[n + k + 1:-1]), -r[n:n + 1], r[n + 1:n + k + 1] / D,
                              -r[-1:]])
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        u, dt, dD, dnu = step[:n], step[n], step[n + 1:-1], step[-1]
        ds = dt - G @ u
        dz = mu / lam - z - z * u
        x, dx = np.concatenate([np.ones(n), s, D, z]), np.concatenate([u, ds, dD, dz])
        shrinking = dx < 0.0
        alpha = 1.0
        if np.any(shrinking):
            alpha = min(1.0, (1.0 - min(0.01, (k + n) * mu))
                        * float(np.min(x[shrinking] / -dx[shrinking])))
        while alpha >= 1e-12:
            lam_new, t_new = lam * (1.0 + alpha * u), t + alpha * dt
            q_new = lam_new @ tables.V
            g_new = tables.rows(q_new, M)
            if np.all(t_new - g_new > 0.0):
                D_new, z_new, nu_new = D + alpha * dD, z + alpha * dz, nu + alpha * dnu
                grads, H_new = tables.derivatives(lam_new, M.T @ D_new, q_new)
                G_new = M @ grads
                r_new = residual(lam_new, t_new, g_new, D_new, z_new, nu_new, G_new)
                if np.linalg.norm(r_new - mu * centering) <= (1.0 - 0.01 * alpha) * norm:
                    break
            alpha *= 0.5
        else:
            break
        lam, t, g, D, z, nu, G, H = lam_new, t_new, g_new, D_new, z_new, nu_new, G_new, H_new
        r = r_new
    return lam / lam.sum(), D / D.sum()


def _oracle_box(box) -> bw.Behavior:
    if box == "degenerate":
        # the degenerate dual of test_cold_inner_minimization_closes_a_degenerate_dual
        return bw.random_ns_behavior(SC2222, 6_200_198)
    if box == "noisy_pr":
        return noisy_pr(0.8)
    if box == "3333":
        # the box of test_s_nl_closes_a_nonlocal_3333_box
        return generalized_pr_mixture(bw.Scenario(3, 3, 3, 3), np.random.default_rng([73, 1]),
                                      0.696)
    return tsirelson_4222(box)


ORACLE_BOXES = ["degenerate", 0, 1, 2, 3, 4, "noisy_pr", "3333"]


@pytest.fixture
def solve_count(monkeypatch):
    """The number of np.linalg.solve calls so far: one per Newton step."""
    count = [0]
    solve = np.linalg.solve

    def counted(*args):
        count[0] += 1
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return lambda: count[0]


def _assert_same_newton(got, want) -> None:
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


@pytest.mark.parametrize("box", ORACLE_BOXES)
def test_dual_newton_matches_its_oracle_bit_for_bit(box):
    # uniform setting weights read V itself; weights with a zero setting
    # read a copy of its active columns
    tables = monotones._DivergenceTables(_oracle_box(box))
    m = tables.shape[0]
    partial = np.random.default_rng([79, m]).dirichlet(np.ones(m))
    partial[0] = 0.0
    for weights in (np.full(m, 1.0 / m), partial / partial.sum()):
        c = np.repeat(weights, tables.shape[1]) * tables.P
        active = c > 0.0
        VE = tables.V if active.all() else tables.V[:, active]
        for gap_tol in (TOL / (2.0 * m), TOL / 8.0):
            _assert_same_newton(monotones._dual_newton(c[active], VE, gap_tol),
                                _dual_newton_oracle(c[active], VE, gap_tol))


@pytest.mark.parametrize("box", ORACLE_BOXES)
def test_warm_dual_newton_matches_its_oracle_bit_for_bit(box):
    # three warm starts: a vertex (theta = 1), the weights of a solve to
    # 1e-2 (theta below 1) and those of a solve to the gap itself (one
    # check)
    tables = monotones._DivergenceTables(_oracle_box(box))
    m = tables.shape[0]
    c = np.repeat(np.full(m, 1.0 / m), tables.shape[1]) * tables.P
    active = c > 0.0
    cE, VE, gap_tol = c[active], (tables.V if active.all() else tables.V[:, active]), TOL / 8.0
    vertex = np.zeros(tables.n)
    vertex[0] = 1.0
    coarse = monotones._dual_newton(cE, VE, 1e-2)
    closed = monotones._dual_newton(cE, VE, gap_tol)
    assert coarse[2] > gap_tol >= closed[2]
    for lam0 in (vertex, coarse[0], closed[0]):
        _assert_same_newton(monotones._dual_newton(cE, VE, gap_tol, lam0),
                            _dual_newton_oracle(cE, VE, gap_tol, lam0))


def test_dual_newton_multi_block_hessian_matches_its_oracle(monkeypatch):
    # n d > 2^20 sums VE^T diag(w) VE over blocks of 2^20 // d rows, here
    # two full blocks and a short one; in the engine only 4444 and larger
    # boxes take that path. Rows are random vertices of four settings of
    # four outcomes, column-major as the engine's vertex matrix
    rng = np.random.default_rng(83)
    m, r = 4, 4
    d = m * r
    block = (1 << 20) // d
    n = 2 * block + 1000
    VE = np.zeros((n, d), order="F")
    VE[np.arange(n)[:, None], r * np.arange(m) + rng.integers(r, size=(n, m))] = 1.0
    cE = rng.dirichlet(np.ones(d))
    monkeypatch.setattr(monotones, "NEWTON_STEPS", 3)
    got = monotones._dual_newton(cE, VE, 1e-12)
    _assert_same_newton(got, _dual_newton_oracle(cE, VE, 1e-12))
    assert got[3] == monotones.NEWTON_STEPS + 1


def _assert_same_barrier(tables, M, lam0, gap0, solve_count) -> None:
    runs = []
    for barrier in (monotones._barrier_epigraph, _barrier_epigraph_oracle):
        before = solve_count()
        runs.append((barrier(tables, M, lam0, gap0, TOL), solve_count() - before))
    (got, got_steps), (want, want_steps) = runs
    assert got_steps == want_steps
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def _barrier_starts(p, M=None):
    """The barrier's inputs from the minimizer at a point mass on the
    first row, the bracket open by up to about 1 bit, and from the
    minimizer at uniform row weights with the gap at 1e-3."""
    solver = monotones._MinimaxSolver(monotones._DivergenceTables(p), TOL, M)
    solver.solve_at(np.eye(solver.k)[0], 1e-4)
    yield solver.tables, solver.M, solver.lam_best, solver.gap
    uniform = np.full(solver.k, 1.0 / solver.k) @ solver.M
    yield (solver.tables, solver.M,
           monotones._inner_minimize(solver.tables, uniform, gap_tol=1e-4).lam, 1e-3)


@pytest.mark.parametrize("box", ORACLE_BOXES)
def test_barrier_epigraph_matches_its_oracle_bit_for_bit(box, solve_count):
    # the 3333 box's KKT systems are 740 x 740: one start keeps it near 2 s
    starts = _barrier_starts(_oracle_box(box))
    for start in itertools.islice(starts, 1 if box == "3333" else 2):
        _assert_same_barrier(*start, solve_count)


def test_barrier_epigraph_matches_its_oracle_on_every_input_map(solve_count):
    # s_uc's block maps among them, one with zero entries in its marginal
    for p, M in _barrier_cases():
        for start in _barrier_starts(p, M):
            _assert_same_barrier(*start, solve_count)
