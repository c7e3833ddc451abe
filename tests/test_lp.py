import numpy as np
import pytest
from scipy.optimize import linprog

import bellwire as bw
from bellwire import lp
from bellwire.errors import ParameterOutOfRange, SolverFailure
from bellwire.geometry import Vertices
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


def _random_start(A, b, rng, tries=50):
    """The largest primal-feasible basis among random tries: k random
    columns of A at k random rows, artificials elsewhere."""
    m, n = A.shape
    signed = A * np.where(b < 0, -1.0, 1.0)[:, None]
    best = np.arange(n, n + m)
    for k in rng.integers(1, min(m, n) + 1, size=tries):
        rows, cols = rng.choice(m, k, replace=False), rng.choice(n, k, replace=False)
        B = np.eye(m)
        B[:, rows] = signed[:, cols]
        if abs(np.linalg.det(B)) < 1e-3:
            continue
        if np.all(np.linalg.solve(B, np.abs(b)) >= 0) and k > np.sum(best < n):
            best = np.arange(n, n + m)
            best[rows] = cols
    return best


@pytest.mark.parametrize("pivot", ["bland", "dantzig"])
def test_a_feasible_start_gives_the_verdicts_of_the_artificial_start(pivot):
    # the instances of test_matches_scipy_on_random_instances
    rng = np.random.default_rng(42)
    start_rng = np.random.default_rng(1)
    structurals = []
    for _ in range(60):
        m, n = rng.integers(2, 6), rng.integers(3, 9)
        A = rng.normal(size=(m, n))
        if rng.random() < 0.5:
            b = A @ rng.uniform(0.1, 1.0, size=n)
        else:
            b = rng.normal(size=m)
        start = _random_start(A, b, start_rng)
        structurals.append(int(np.sum(start < n)))
        mine = solve_lp(A, b, pivot=pivot, start=start)
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert mine.feasible == (ref.status == 0) == solve_lp(A, b, pivot=pivot).feasible
        if mine.feasible:
            _check_feasible(A, b, mine)
        else:
            _check_farkas(A, b, mine)
    # most starts hold structural columns, some of them several
    assert sum(k > 0 for k in structurals) > 40 and max(structurals) >= 3


def test_a_start_must_be_a_feasible_basis():
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.2])
    # column 1 on row 0: x1 = 1 and artificial 1 = 1.2
    assert solve_lp(A, b, start=[1, 3]).feasible
    # column 1 on row 1: x1 = -0.2
    with pytest.raises(ParameterOutOfRange, match="start basis is primal infeasible"):
        solve_lp(A, b, start=[2, 1])
    for start in ([2], [2, 2], [2, 4], [-1, 3], [2.0, 3.0]):
        with pytest.raises(ParameterOutOfRange, match="distinct integer columns"):
            solve_lp(A, b, start=start)
    # columns 0 and 1 of [[1, 1], [1, 1]] are one column twice
    with pytest.raises(SolverFailure, match="singular"):
        solve_lp(np.ones((2, 2)), np.ones(2), start=[0, 1])


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


class _Stop(Exception):
    pass


def _basis_after(A, b, pivot, pivots, monkeypatch):
    """The basis phase 1 reaches after `pivots` pivots from the
    artificial start: primal feasible, as every basis it passes."""

    class Recording(lp._Basis):
        done = 0

        def pivot(self, r, j, alpha):
            super().pivot(r, j, alpha)
            self.done += 1
            if self.done == pivots:
                raise _Stop(self.basis.copy())

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_Basis", Recording)
        with pytest.raises(_Stop) as stop:
            solve_lp(A, b, pivot=pivot)
    return stop.value.args[0]


def test_verdicts_are_read_on_a_fresh_factorization(monkeypatch):
    # The basic values drift by 1e-9 after every rank-1 update, far above
    # rounding. x and the artificial total must still be exact for the
    # exit basis, and that basis must be freshly factorized when the
    # result is read. (Drift in the inverse itself would also perturb the
    # reduced costs of basic columns past RC_TOL, and the no-op pivots
    # that follow end only at the next refactorization.) Each system is
    # solved from the artificial basis and from the basis a clean solve
    # reaches after 20 pivots.
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

    monkeypatch.setattr(lp, "REFACTOR_EVERY", 20)
    (A, b), (A2, b2) = _random_systems(60, 600, seed=0)
    for pivot in ("bland", "dantzig"):
        for start, start2 in ((None, None), (_basis_after(A, b, pivot, 20, monkeypatch),
                                             _basis_after(A2, b2, pivot, 20, monkeypatch))):
            with monkeypatch.context() as patch:
                patch.setattr(lp, "_Basis", Drifting)
                res = solve_lp(A, b, pivot=pivot, start=start)
                assert res.iterations > 3 * lp.REFACTOR_EVERY
                assert solves[-1].stale == 0
                # the ratio tests saw noisy values, so the exit basis may
                # be primal infeasible by the noise level; A x = b holds
                # exactly
                _check_feasible(A, b, res, x_tol=1e-7)
                res = solve_lp(A2, b2, pivot=pivot, start=start2)
                assert res.iterations > 3 * lp.REFACTOR_EVERY
                assert solves[-1].stale == 0
                _check_farkas(A2, b2, res)
                assert res.phase1_objective == pytest.approx(res.dual @ b2, abs=1e-12)


@pytest.mark.parametrize("from_start", [False, True])
def test_an_infeasible_exit_basis_is_a_solver_failure(from_start, monkeypatch):
    # Drift in the basic values can make a ratio test choose a leaving
    # row whose true ratio is not the least; the basis is then primal
    # infeasible on every later factorization. Here the last pivot of a
    # solve is misled outright, to the row of the largest ratio. The LP
    # must refuse the exit basis, naming a negative basic value, rather
    # than hand back an x < 0.
    (A, b), _ = _random_systems(60, 600, seed=0)
    for pivot in ("bland", "dantzig"):
        start = _basis_after(A, b, pivot, 20, monkeypatch) if from_start else None
        last = solve_lp(A, b, pivot=pivot, start=start).iterations

        class Misled(lp._Basis):
            done = 0

            def pivot(self, r, j, alpha):
                self.done += 1
                if self.done == last:
                    rows = np.flatnonzero(alpha > lp.PIV_TOL)
                    r = rows[np.argmax(self.xB[rows] / alpha[rows])]
                super().pivot(r, j, alpha)

        with monkeypatch.context() as patch:
            patch.setattr(lp, "_Basis", Misled)
            with pytest.raises(SolverFailure, match="refactorized basis is primal infeasible: "
                               r"basic column \d+ has value -"):
                solve_lp(A, b, pivot=pivot, start=start)


@pytest.mark.parametrize("misled_at", [1, 5])
def test_a_basis_misled_early_fails_within_one_refactorization(misled_at, monkeypatch):
    # A ratio test early in the Bland solve of the infeasible system is
    # misled to the row of the largest ratio, which leaves the basis
    # primal infeasible. Checked only at the exit, the solve ran on from
    # it to the pivot cap (200,000 pivots); every fresh factorization is
    # checked, so it fails at the first. The cap is lowered so that a
    # solve that runs on fails fast, with another message
    _, (A2, b2) = _random_systems(60, 600, seed=0)
    monkeypatch.setattr(lp, "MAX_PIVOTS", 10 * lp.REFACTOR_EVERY)
    done = []

    class Misled(lp._Basis):
        def pivot(self, r, j, alpha):
            done.append(j)
            if len(done) == misled_at:
                rows = np.flatnonzero(alpha > lp.PIV_TOL)
                r = rows[np.argmax(self.xB[rows] / alpha[rows])]
            super().pivot(r, j, alpha)

    monkeypatch.setattr(lp, "_Basis", Misled)
    with pytest.raises(SolverFailure, match="primal infeasible"):
        solve_lp(A2, b2, pivot="bland")
    assert len(done) <= misled_at + lp.REFACTOR_EVERY


def test_drift_in_the_inverse_cannot_choose_a_pivot(monkeypatch):
    # Noise of 1e-10 to 1e-9 added to the inverse after every rank-1
    # update lifts exact zeros of alpha = B^-1 a_j past PIV_TOL. On this
    # membership LP (101 rows of rank 36, so many artificials stay basic
    # at zero) such an element can win the ratio test, and pivoting on it
    # made the next refactorization singular in 9 of these 12 solves from
    # the artificial basis. A pivot element that small relative to its
    # column is re-read on a fresh factorization first. The solves run
    # from the artificial basis, then from the crash basis `is_local`
    # starts from.
    p = bw.random_ns_behavior(bw.Scenario(5, 2, 5, 2), 0)
    expected = bw.is_local(p).is_local
    m, n = Vertices.of(p.scenario).shape
    rng = np.random.default_rng(0)

    class Drifting(lp._Basis):
        def pivot(self, r, j, alpha):
            super().pivot(r, j, alpha)
            if self.stale:
                self.inv += rng.uniform(1e-10, 1e-9) * rng.standard_normal(self.inv.shape)

    monkeypatch.setattr(lp, "_Basis", Drifting)
    for crash in (False, True):
        with monkeypatch.context() as patch:
            if not crash:
                patch.setattr(Vertices, "crash", lambda self, b, order: np.arange(n, n + m))
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


# ---------------------------------------------------------------------------
# Oracle: the phase-1 loop as it was before its entering choice read the
# priced vector directly and before [B^-1 | xB] became one array. It
# gathers a ranked source's prices into LP order and masks an (n + m)
# reduced-cost array; the solver must make the same pivots and read the
# same x, dual and artificial total, bit for bit.
# ---------------------------------------------------------------------------


class _OracleRanked:
    def __init__(self, vertices, order):
        self.vertices, self.order = vertices, order
        self.shape = vertices.shape

    def price(self, y):
        return self.vertices.price(y)[self.order]

    def columns(self, idx):
        return self.vertices.columns(self.order[idx])


class _OracleBasis:
    def __init__(self, cols, sign, b):
        self.cols = cols
        self.sign = None if np.all(sign > 0) else sign
        self.b = b
        self.m, self.n = cols.shape
        self.basis = np.arange(self.n, self.n + self.m)
        self.inv = np.eye(self.m)
        self.xB = b.copy()
        self.stale = 0
        self._outer = np.empty((self.m, self.m))
        self.cost = np.concatenate([np.zeros(self.n), np.ones(self.m)])

    def column(self, j):
        if j < self.n:
            a = self.cols.columns([j])[:, 0]
            return a if self.sign is None else a * self.sign
        e = np.zeros(self.m)
        e[j - self.n] = 1.0
        return e

    def refactor(self):
        s = np.flatnonzero(self.basis < self.n)
        a = np.flatnonzero(self.basis >= self.n)
        covered = self.basis[a] - self.n
        free = np.ones(self.m, dtype=bool)
        free[covered] = False
        S = self.cols.columns(self.basis[s])
        if self.sign is not None:
            S = S * self.sign[:, None]
        S_inv = np.linalg.inv(S[free])
        inv = np.zeros((self.m, self.m))
        inv[s[:, None], free] = S_inv
        inv[a[:, None], free] = -S[covered] @ S_inv
        inv[a, covered] = 1.0
        self.inv = inv
        self.xB = inv @ self.b
        self.stale = 0

    def duals(self):
        return self.cost[self.basis] @ self.inv

    def reduced_costs(self, pi):
        y = pi if self.sign is None else pi * self.sign
        d = np.empty(self.n + self.m)
        np.subtract(self.cost[: self.n], self.cols.price(y), out=d[: self.n])
        np.subtract(self.cost[self.n :], pi, out=d[self.n :])
        return d

    def pivot(self, r, j, alpha):
        theta = self.xB[r] / alpha[r]
        self.xB -= theta * alpha
        self.xB[r] = theta
        row = self.inv[r] / alpha[r]
        self.inv -= np.dot(alpha[:, None], row[None, :], out=self._outer)
        self.inv[r] = row
        self.basis[r] = j
        self.stale += 1
        if self.stale >= lp.REFACTOR_EVERY:
            self.refactor()


def _oracle_entering(d, allowed, pivot):
    improving = allowed & (d < -lp.RC_TOL)
    if pivot == "bland":
        col = int(np.argmax(improving))
    else:
        col = int(np.argmin(np.where(improving, d, np.inf)))
    return col if improving[col] else None


def _oracle_leaving(alpha, xB, basis, pivot):
    rows = np.where(alpha > lp.PIV_TOL)[0]
    if rows.size == 0:
        return None
    ratios = xB[rows] / alpha[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12]
    if pivot == "bland":
        return int(ties[np.argmin(basis[ties])])
    return int(ties[0])


def _oracle_phase1(B, pivot, feas_tol):
    allowed = np.ones(B.n + B.m, dtype=bool)
    iterations = 0
    while True:
        assert B.stale or B.xB.min() >= -feas_tol
        col = _oracle_entering(B.reduced_costs(B.duals()), allowed, pivot)
        if col is None:
            if B.stale:
                B.refactor()
                continue
            return iterations
        alpha = B.inv @ B.column(col)
        row = _oracle_leaving(alpha, B.xB, B.basis, pivot)
        if B.stale and (row is None or alpha[row] < 1e-6 * np.abs(alpha).max()):
            B.refactor()
            continue
        if row is None:
            allowed[col] = False
            continue
        B.pivot(row, col, alpha)
        iterations += 1


def _oracle_solve(cols, b, pivot, feas_tol=1e-9, start=None):
    m, n = cols.shape
    sign = np.where(b < 0, -1.0, 1.0)
    B = _OracleBasis(cols, sign, b * sign)
    if start is not None:
        B.basis = np.array(start, dtype=np.intp)
        B.refactor()
        np.maximum(B.xB, 0.0, out=B.xB)
    iterations = _oracle_phase1(B, pivot, feas_tol)
    z1 = float(B.xB[B.basis >= n].sum())
    if z1 > feas_tol:
        return lp.LpResult("infeasible", None, B.duals() * sign, z1, iterations)
    x = np.zeros(n)
    structural = B.basis < n
    x[B.basis[structural]] = B.xB[structural]
    return lp.LpResult("feasible", x, None, z1, iterations)


def _assert_same_solve(res, ref):
    assert res.status == ref.status
    assert res.iterations == ref.iterations
    assert res.phase1_objective == ref.phase1_objective
    for got, want in ((res.x, ref.x), (res.dual, ref.dual)):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)


@pytest.mark.parametrize("size", [(60, 600), (80, 800)])
@pytest.mark.parametrize("pivot", ["bland", "dantzig"])
def test_phase1_matches_its_oracle_on_random_systems(size, pivot, monkeypatch):
    # the feasible and the infeasible system, from the artificial basis and
    # from the basis a solve reaches after 20 pivots; the inverse is
    # refactorized every 20 pivots, so the solves cross several
    # factorizations
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 20)
    for A, b in _random_systems(*size, seed=0):
        for start in (None, _basis_after(A, b, pivot, 20, monkeypatch)):
            res = solve_lp(A, b, pivot=pivot, start=start)
            assert res.iterations > 3 * lp.REFACTOR_EVERY
            _assert_same_solve(res, _oracle_solve(lp._DenseColumns(A), b, pivot, start=start))


@pytest.mark.parametrize("key, ns_seed, sig_seed", [
    ((3, 2, 3, 2), 2, 8), ((4, 2, 4, 2), 2, 6), ((3, 3, 3, 3), 2, 1),
    ((5, 2, 5, 2), 1, 3), ((4, 3, 4, 3), 2, 7),
])
def test_phase1_matches_its_oracle_on_membership_lps(key, ns_seed, sig_seed):
    # one no-signaling and one signaling box per scenario, over the ranked
    # vertices from the crash basis, as `is_local` solves them (the 5252
    # no-signaling box is nonlocal, the other four are local)
    from bellwire.geometry import _Ranked

    sc = bw.Scenario(*key)
    vertices = Vertices.of(sc)
    verdicts = []
    for p in (bw.random_ns_behavior(sc, ns_seed), bw.random_behavior(sc, sig_seed)):
        b = np.append(p.flat(), 1.0)
        order = np.argsort(-vertices.price(np.append(p.flat(), 0.0)), kind="stable")
        start = vertices.crash(b, order)
        for pivot in ("bland", "dantzig"):
            res = solve_lp(A=_Ranked(vertices, order), b=b, pivot=pivot, feas_tol=1e-8,
                           start=start)
            ref = _oracle_solve(_OracleRanked(vertices, order), b, pivot, 1e-8, start)
            _assert_same_solve(res, ref)
            assert res.iterations > 0
            verdicts.append(res.feasible)
    assert verdicts == [key != (5, 2, 5, 2)] * 2 + [False] * 2


@pytest.mark.parametrize("pivot", ["bland", "dantzig"])
def test_entering_choice_matches_its_oracle_with_barred_columns(pivot, monkeypatch):
    # Phase 1 bars a column whose entering column has no positive entry;
    # the choice must then be the oracle's over the masked reduced costs.
    # Bases: those a dense and a ranked membership solve pass every few
    # pivots; barred: the would-be winner, a few random columns and an
    # artificial, so that both the structural and the artificial winners
    # move
    from bellwire.geometry import _Ranked

    rng = np.random.default_rng(3)
    (A, b), _ = _random_systems(30, 200, seed=1)
    p = bw.random_ns_behavior(bw.Scenario(3, 3, 3, 3), 2)
    vertices = Vertices.of(p.scenario)
    order = np.argsort(-vertices.price(np.append(p.flat(), 0.0)), kind="stable")
    systems = [(lp._DenseColumns(A), b, lp._DenseColumns(A)),
               (_Ranked(vertices, order), np.append(p.flat(), 1.0), _OracleRanked(vertices, order))]
    checked = artificials = 0
    for cols, b, oracle_cols in systems:
        bases = []

        class Recording(lp._Basis):
            def pivot(self, r, j, alpha):
                super().pivot(r, j, alpha)
                if self.stale % 3 == 0:
                    bases.append(self.basis.copy())

        with monkeypatch.context() as patch:
            patch.setattr(lp, "_Basis", Recording)
            solve_lp(cols, b, pivot=pivot)
        sign = np.where(b < 0, -1.0, 1.0)  # the dense system flips rows
        for basis in bases:
            B = lp._Basis(cols, sign, b * sign)
            B.basis[:] = basis
            B.refactor()
            O = _OracleBasis(oracle_cols, sign, b * sign)
            O.basis[:] = basis
            O.refactor()
            d = O.reduced_costs(O.duals())
            barred = []
            while True:
                allowed = np.ones(B.n + B.m, dtype=bool)
                allowed[barred] = False
                col = lp._choose_entering(B, pivot, barred)
                assert col == _oracle_entering(d, allowed, pivot)
                checked += 1
                if col is None or len(barred) > 6:
                    break
                barred += [col, int(rng.integers(B.n)), B.n + int(rng.integers(B.m))]
            # every structural column barred: an artificial or none enters
            allowed = np.arange(B.n + B.m) >= B.n
            col = lp._choose_entering(B, pivot, list(range(B.n)))
            assert col == _oracle_entering(d, allowed, pivot)
            artificials += col is not None
    assert checked > 100 and artificials > 0
