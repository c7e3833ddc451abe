import numpy as np
import pytest
from scipy.optimize import linprog

import bellwire as bw
from bellwire import lp
from bellwire.errors import ParameterOutOfRange, SolverFailure
from bellwire.lp import solve_lp


def test_feasibility_simple():
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.2])
    res = solve_lp(A, b)
    assert res.feasible
    assert np.allclose(A @ res.x, b, atol=1e-10)


def test_infeasible_gives_farkas_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_lp(A, b)
    assert res.status == "infeasible"
    y = res.dual
    assert np.all(y @ A <= 1e-9)
    assert y @ b > 1e-9


def test_negative_rhs_handled():
    A = np.array([[1.0, -1.0]])
    b = np.array([-2.0])
    res = solve_lp(A, b)
    assert res.feasible
    assert res.x[1] - res.x[0] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("pivot", ["bland", "dantzig"])
def test_matches_scipy_on_random_instances(pivot):
    rng = np.random.default_rng(42)
    verdicts = []
    for _ in range(60):
        m, n = rng.integers(2, 6), rng.integers(3, 9)
        A = rng.normal(size=(m, n))
        if rng.random() < 0.5:
            b = A @ rng.uniform(0.1, 1.0, size=n)  # feasible by construction
        else:
            b = rng.normal(size=m)
        mine = solve_lp(A, b, pivot=pivot)
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status in (0, 2)  # feasible or infeasible, nothing else
        assert mine.feasible == (ref.status == 0)
        if mine.feasible:
            _check_feasible(A, b, mine)
        else:
            _check_farkas(A, b, mine)
        verdicts.append(mine.feasible)
    assert 10 < sum(verdicts) < 50


def test_pivot_rules_agree_on_feasibility():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = 4, 6
        A = rng.normal(size=(m, n))
        if rng.random() < 0.5:
            b = A @ rng.uniform(0.0, 1.0, size=n)
        else:
            b = rng.normal(size=m)
        r1 = solve_lp(A, b, pivot="bland")
        r2 = solve_lp(A, b, pivot="dantzig")
        assert r1.feasible == r2.feasible


def _random_systems(m, n, seed):
    """A feasible system (A, b) and an infeasible one (A2, b2): the same
    rows plus sum(x) = 0.9 * its least feasible value."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.0, 1.0, size=n)
    least = linprog(np.ones(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs").fun
    return (A, b), (np.vstack([A, np.ones(n)]), np.append(b, 0.9 * least))


def _check_feasible(A, b, res, x_tol=1e-12):
    assert res.status == "feasible"
    assert np.max(np.abs(A @ res.x - b)) <= 1e-12 * np.max(np.abs(b))
    assert np.all(res.x >= -x_tol)


def _check_farkas(A, b, res):
    assert res.status == "infeasible"
    assert np.max(res.dual @ A) <= 1e-9
    assert res.dual @ b > 1e-9


def test_unknown_pivot_rule_is_a_parameter_error():
    with pytest.raises(ParameterOutOfRange):
        solve_lp(np.ones((1, 2)), np.ones(1), pivot="steepest")
    with pytest.raises(ParameterOutOfRange):
        bw.is_local(bw.pr_box(), pivot="steepest")


@pytest.mark.parametrize("feas_tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_feas_tol_must_be_positive_and_finite(feas_tol):
    # no artificial total exceeds a NaN tolerance, so this inconsistent
    # system would come back feasible with A x = (1, 1)
    with pytest.raises(ParameterOutOfRange):
        solve_lp(np.ones((2, 2)), np.array([1.0, 2.0]), feas_tol=feas_tol)


def test_inconsistent_dimensions_are_a_length_mismatch():
    from bellwire.errors import LengthMismatch

    A = np.ones((2, 3))
    for b in (np.ones(3), np.ones(1), np.ones((2, 2))):
        with pytest.raises(LengthMismatch):
            solve_lp(A, b)
    # arguments numpy cannot convert are input errors too
    for A, b in ((A, ["x", 1]), ([[1], [1, 2]], np.ones(2))):
        with pytest.raises(ParameterOutOfRange):
            solve_lp(A, b)


@pytest.mark.parametrize("pivot, size", [("bland", (60, 600)), ("dantzig", (80, 800))])
def test_long_solves_cross_refactorizations(pivot, size, monkeypatch):
    # phase 1 takes only 133 Dantzig pivots on the feasible 80 x 800
    # system, so the inverse is refactorized every 20 pivots here, not 100
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 20)
    (A, b), (A2, b2) = _random_systems(*size, seed=0)
    res = solve_lp(A, b, pivot=pivot)
    assert res.iterations > 3 * lp.REFACTOR_EVERY
    _check_feasible(A, b, res)
    res = solve_lp(A2, b2, pivot=pivot)
    assert res.iterations > 3 * lp.REFACTOR_EVERY
    _check_farkas(A2, b2, res)


def test_verdicts_are_read_on_a_fresh_factorization(monkeypatch):
    # The basic values drift by 1e-9 after every rank-1 update, far above
    # rounding. x and the artificial total must still be exact for the
    # exit basis, and that basis must be freshly factorized when the
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
    (A, b), (A2, b2) = _random_systems(60, 600, seed=0)
    for pivot in ("bland", "dantzig"):
        res = solve_lp(A, b, pivot=pivot)
        assert res.iterations > 3 * lp.REFACTOR_EVERY
        assert solves[-1].stale == 0
        # the ratio tests saw noisy values, so the exit basis may be
        # primal infeasible by the noise level; A x = b holds exactly
        _check_feasible(A, b, res, x_tol=1e-7)
        res = solve_lp(A2, b2, pivot=pivot)
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


def test_drift_in_the_inverse_keeps_face_boxes_local(monkeypatch):
    # A box inside a face of the 3333 local polytope leaves artificials
    # basic at zero when phase 1 ends, and their rows of the inverse
    # drift too. With noise of 1e-9 added to the inverse after every
    # stale rank-1 update, the exit basis must still read as feasible on
    # a fresh factorization.
    sc = bw.Scenario(3, 3, 3, 3)
    V = bw.local_vertex_matrix(sc)
    rng = np.random.default_rng(0)
    solves = []

    class Drifting(lp._Basis):
        def __init__(self, *args):
            super().__init__(*args)
            solves.append(self)

        def pivot(self, r, j, alpha):
            super().pivot(r, j, alpha)
            if self.stale:
                self.inv += 1e-9 * rng.standard_normal(self.inv.shape)

    monkeypatch.setattr(lp, "_Basis", Drifting)
    for seed in range(6):
        box_rng = np.random.default_rng([5, 8, seed])
        vertices = box_rng.choice(V.shape[0], 8, replace=False)
        p = bw.Behavior(sc, (box_rng.dirichlet(np.ones(8)) @ V[vertices]).reshape(sc.shape))
        for pivot in ("bland", "dantzig"):
            # the local model is re-checked on construction
            assert bw.is_local(p, pivot=pivot).is_local
    assert len(solves) == 12
    assert sum(bool(np.any(B.basis >= B.n)) for B in solves) > 6


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
            res = solve_lp(A, b, pivot=pivot)
            assert res.status == "infeasible"
            assert np.all(res.dual @ A <= 1e-9)
            assert res.dual @ b > 1e-9


def test_the_pivot_cap_raises_a_solver_failure(monkeypatch):
    monkeypatch.setattr(lp, "MAX_PIVOTS", 5)
    (A, b), _ = _random_systems(10, 40, seed=0)
    for pivot in ("bland", "dantzig"):
        with pytest.raises(SolverFailure, match="exceeded 5 pivots"):
            solve_lp(A, b, pivot=pivot)
