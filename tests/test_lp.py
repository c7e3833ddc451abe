import numpy as np
import pytest
from scipy.optimize import linprog

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
