import sys

import numpy as np
import pytest
from scipy.optimize import linprog

import bellwire as bw
from bellwire import lp
from bellwire.lp import lp_feasible, solve_lp


def test_known_optimum():
    # min -x1 - 2 x2  s.t.  x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    # optimum at x1 = 3, x2 = 1, value -5
    assert res.objective == pytest.approx(-5.0, abs=1e-9)
    assert np.allclose(res.x[:2], [3.0, 1.0], atol=1e-9)


def test_feasibility_simple():
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.2])
    res = lp_feasible(A, b)
    assert res.feasible
    assert np.allclose(A @ res.x, b, atol=1e-10)


def test_infeasible_gives_farkas_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = lp_feasible(A, b)
    assert res.status == "infeasible"
    y = res.dual
    assert np.all(y @ A <= 1e-9)
    assert y @ b > 1e-9


def test_negative_rhs_handled():
    A = np.array([[1.0, -1.0]])
    b = np.array([-2.0])
    res = lp_feasible(A, b)
    assert res.feasible
    assert res.x[1] - res.x[0] == pytest.approx(2.0, abs=1e-10)


def test_unbounded_detected():
    c = np.array([-1.0, 0.0])
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = solve_lp(c, A, b)
    assert res.status == "unbounded"


@pytest.mark.parametrize("pivot", ["bland", "dantzig"])
def test_matches_scipy_on_random_instances(pivot):
    rng = np.random.default_rng(42)
    for _ in range(60):
        m, n = rng.integers(2, 6), rng.integers(3, 9)
        A = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.1, 1.0, size=n)
        b = A @ x_feas  # feasible by construction
        c = rng.normal(size=n)
        mine = solve_lp(c, A, b, pivot=pivot)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:
            assert mine.status == "unbounded"
        else:
            assert ref.status == 0
            assert mine.status == "optimal"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7)


def test_pivot_rules_agree_on_feasibility():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = 4, 6
        A = rng.normal(size=(m, n))
        if rng.random() < 0.5:
            b = A @ rng.uniform(0.0, 1.0, size=n)
        else:
            b = rng.normal(size=m)
        r1 = lp_feasible(A, b, pivot="bland")
        r2 = lp_feasible(A, b, pivot="dantzig")
        assert r1.feasible == r2.feasible


def test_duals_at_optimum():
    # duals satisfy complementary slackness / reduced-cost signs
    c = np.array([2.0, 3.0, 0.0])
    A = np.array([[1.0, 2.0, 1.0]])
    b = np.array([4.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    # reduced costs c - y A must be >= 0
    rc = c - res.dual @ A
    assert np.all(rc >= -1e-9)


def _random_lps(m, n, seed):
    """A bounded feasible LP (c, A, b) and an infeasible system (A2, b2):
    the same rows plus sum(x) = 0.9 * its least feasible value."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.0, 1.0, size=n)
    c = rng.uniform(0.0, 1.0, size=n)
    least = linprog(np.ones(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs").fun
    return (c, A, b), (np.vstack([A, np.ones(n)]), np.append(b, 0.9 * least))


def _check_optimum(c, A, b, res, x_tol=1e-12):
    assert res.status == "optimal"
    assert np.max(np.abs(A @ res.x - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.all(res.x >= -x_tol)
    assert np.all(c - res.dual @ A >= -1e-9)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)


def test_unknown_pivot_rule_is_a_parameter_error():
    import bellwire as bw
    from bellwire.errors import ParameterOutOfRange

    with pytest.raises(ParameterOutOfRange):
        solve_lp(np.zeros(2), np.ones((1, 2)), np.ones(1), pivot="steepest")
    with pytest.raises(ParameterOutOfRange):
        bw.is_local(bw.pr_box(), pivot="steepest")


def test_inconsistent_dimensions_are_a_length_mismatch():
    from bellwire.errors import LengthMismatch, ParameterOutOfRange

    A = np.ones((2, 3))
    for c, b in ((np.zeros(3), np.ones(3)), (np.zeros(2), np.ones(2)),
                 (np.zeros(3), np.ones((2, 2)))):
        with pytest.raises(LengthMismatch):
            solve_lp(c, A, b)
    with pytest.raises(LengthMismatch):
        lp_feasible(A, np.ones(1))
    # arguments numpy cannot convert are input errors too
    for c, A, b in ((["x", 1, 1], A, np.ones(2)), (np.zeros(3), [[1], [1, 2]], np.ones(2))):
        with pytest.raises(ParameterOutOfRange):
            solve_lp(c, A, b)


def _check_farkas(A, b, res):
    assert res.status == "infeasible"
    assert np.max(res.dual @ A) <= 1e-9
    assert res.dual @ b > 1e-9


@pytest.mark.parametrize("pivot, size", [("bland", (60, 600)), ("dantzig", (80, 800))])
def test_long_solves_cross_refactorizations(pivot, size):
    (c, A, b), (A2, b2) = _random_lps(*size, seed=0)
    res = solve_lp(c, A, b, pivot=pivot)
    assert res.iterations > 3 * lp.REFACTOR_EVERY
    _check_optimum(c, A, b, res)
    res = lp_feasible(A2, b2, pivot=pivot)
    assert res.iterations > 3 * lp.REFACTOR_EVERY
    _check_farkas(A2, b2, res)


def test_verdicts_are_read_on_a_fresh_factorization(monkeypatch):
    # The basic values drift by 1e-9 after every rank-1 update, far above
    # rounding. x and the phase-1 objective must still be exact for the
    # final basis, and that basis must be freshly factorized when the
    # result is read. (Drift in the inverse itself would also perturb the
    # reduced costs of basic columns past RC_TOL, and the no-op pivots
    # that follow end only at the next refactorization.)
    rng = np.random.default_rng(0)
    solves = []

    class Drifting(lp._Basis):
        def __init__(self, *args):
            super().__init__(*args)
            solves.append(self)

        def pivot(self, r, j, alpha):
            super().pivot(r, j, alpha)
            if self.stale:
                self.xB += 1e-9 * rng.standard_normal(self.xB.shape)

    monkeypatch.setattr(lp, "_Basis", Drifting)
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 20)
    (c, A, b), (A2, b2) = _random_lps(40, 400, seed=0)
    for pivot in ("bland", "dantzig"):
        res = solve_lp(c, A, b, pivot=pivot)
        assert res.iterations > 3 * lp.REFACTOR_EVERY
        assert solves[-1].stale == 0
        # the ratio tests saw noisy values, so the final basis may be
        # primal infeasible by the noise level; A x = b holds exactly
        _check_optimum(c, A, b, res, x_tol=1e-7)
        res = lp_feasible(A2, b2, pivot=pivot)
        assert res.iterations > 3 * lp.REFACTOR_EVERY
        assert solves[-1].stale == 0
        _check_farkas(A2, b2, res)
        assert res.phase1_objective == pytest.approx(res.dual @ b2, abs=1e-12)


def test_drift_in_the_inverse_cannot_choose_a_pivot(monkeypatch):
    # Noise of 1e-10 to 1e-9 added to the inverse after every rank-1
    # update lifts exact zeros of alpha = B^-1 a_j past PIV_TOL. On this
    # membership LP (101 rows of rank 36, so many artificials stay basic
    # at zero) such an element can win the ratio test, and pivoting on it
    # made the next refactorization singular in 9 of these 12 solves. A
    # pivot element that small relative to its column is re-read on a
    # fresh factorization first.
    p = bw.random_ns_behavior(bw.Scenario(5, 2, 5, 2), 0)
    expected = bw.is_local(p).is_local
    rng = np.random.default_rng(0)

    class Drifting(lp._Basis):
        def pivot(self, r, j, alpha):
            super().pivot(r, j, alpha)
            if self.stale:
                self.inv += rng.uniform(1e-10, 1e-9) * rng.standard_normal(self.inv.shape)

    monkeypatch.setattr(lp, "_Basis", Drifting)
    for _ in range(6):
        for pivot in ("bland", "dantzig"):
            # the certificate is re-checked on construction
            assert bw.is_local(p, pivot=pivot).is_local == expected


def test_drift_in_the_inverse_cannot_choose_a_drive_out_pivot(monkeypatch):
    # A box inside a face of the 3333 local polytope leaves artificials
    # basic at zero after phase 1. Noise of 1e-9 added to the inverse after
    # every pivot that drives one out lifts zeros of the next artificial's
    # row past PIV_TOL; pivoting on the first such entry made the next
    # refactorization singular in all 12 of these solves. Each row is read
    # on a fresh factorization and pivoted on its largest entry instead.
    sc = bw.Scenario(3, 3, 3, 3)
    V = bw.local_vertex_matrix(sc)
    rng = np.random.default_rng(0)
    drive_outs = []

    class Drifting(lp._Basis):
        def pivot(self, r, j, alpha):
            super().pivot(r, j, alpha)
            if sys._getframe(1).f_code.co_name == "solve_lp":
                drive_outs.append(j)
                self.inv += 1e-9 * rng.standard_normal(self.inv.shape)

    monkeypatch.setattr(lp, "_Basis", Drifting)
    for seed in range(6):
        box_rng = np.random.default_rng([5, 8, seed])
        vertices = box_rng.choice(V.shape[0], 8, replace=False)
        p = bw.Behavior(sc, (box_rng.dirichlet(np.ones(8)) @ V[vertices]).reshape(sc.shape))
        for pivot in ("bland", "dantzig"):
            # the local model is re-checked on construction
            assert bw.is_local(p, pivot=pivot).is_local
    assert len(drive_outs) > 12


def test_bland_terminates_on_beales_cycling_example():
    # Beale (1955): Dantzig's textbook rule cycles on this degenerate LP
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0])
    A = np.array([
        [1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
        [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    res = solve_lp(c, A, b, pivot="bland", max_iter=50)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(ref.fun, abs=1e-12)
    assert res.objective == pytest.approx(-0.05, abs=1e-12)
    assert np.allclose(A @ res.x, b, atol=1e-12)


def test_farkas_dual_with_negative_rhs():
    # row 0 asks a nonnegative combination to equal -1
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
    b = np.array([-1.0, 2.0, -3.0])
    cases = [(A, b)]
    rng = np.random.default_rng(11)
    while len(cases) < 20:
        A = rng.normal(size=(4, 6))
        b = -np.abs(rng.normal(size=4)) * (rng.random(4) < 0.7) + rng.normal(size=4) * 0.1
        if b.min() < 0 and linprog(np.zeros(6), A_eq=A, b_eq=b, bounds=(0, None),
                                   method="highs").status == 2:
            cases.append((A, b))
    for A, b in cases:
        for pivot in ("bland", "dantzig"):
            res = lp_feasible(A, b, pivot=pivot)
            assert res.status == "infeasible"
            assert np.all(res.dual @ A <= 1e-9)
            assert res.dual @ b > 1e-9
