"""Nonlocality quantifiers over the local polytope.

Every quantifier, in bits, minimizes over vertex weights the worst row
of M @ (per-setting divergences) for some input map M, whose rows are
setting weights. One engine, `_MinimaxSolver`, solves and reports them
all: inner minimizations at fixed input weights bound the optimum from
below, the exact rows at any vertex weights bound it from above. Every
value is the upper end of the closed bracket and `gap_estimate` its
width, so value - gap_estimate is a certified lower bound, never below 0.

* `s_u` — divergence from the local set under uniformly chosen inputs:
  the engine with one input row, the uniform setting weights.
* `s_nl` — the input-maximized divergence from the local set, a convex
  min-max problem with one row per setting. The objective is linear in
  the input distribution, so input-side best responses are point
  masses on the worst setting.
* `s_c` — equal to `s_nl` by the minimax theorem; reported with a
  maximin input distribution D, the input weights whose inner
  minimization set the bracket's lower bound: the minimum over vertex
  weights at D is certified to be at least the value minus the gap. A
  direct alternating max-min evaluation (`s_c_alternating`) keeps its
  own ascent dynamics so the two routes can cross-validate.
* `s_uc` — the same game restricted to product input distributions.
  The product set is nonconvex, so the alternating coordinate ascent
  with multi-start reports a certified LOWER bound, flagged as such.
  Each block of the ascent, over one party's marginal with the other
  fixed, is again a convex min-max problem, solved by the engine with
  the settings grouped by the free party's input; the final solve at
  the best product is the engine with that product as its one row.

The module keeps the `_DivergenceTables` of the most recent box, and
every quantifier reads them through `_tables_of`, so calls on one box
build them once: the box's table P and the scenario's vertex matrix,
which they read in place. The inner minimizations, the barrier and
every engine instance read them; `s_uc`'s block solves and its final
solve share them. Their `kls(q)` reads the per-setting divergences at
an image q = lam @ V that the caller formed once, through
`divergence._kl_rows`, and `rows(q, M)` weighs them into row values,
+inf included, under `divergence._weighted_rows`. That one rule gives
every inner minimization's value, and so the bracket's lower ends, as
well as the upper ends and the barrier's rows: a one-row engine's value
and its row are equal bit for bit.
Quantifier calls may run in threads: each call reads the module's
tables once, so it returns its own box's result.

The tables also keep what the box's quantifier calls share. `s_u` and
the uniform start of `s_nl`, `s_c` and `s_c_alternating` are one inner
minimization: at uniform setting weights, from the barycenter, to the
engine's start gap tol/(2m), where m = sA*sB is the number of settings,
so `s_u`'s gap is at most tol/(2m), not tol. The tables keep that solve
per tol (`uniform_start`), and `s_c`'s result of the saddle problem of
`s_nl` and `s_c` per tol, so a later call on the box and tol reads them
without solving again. What is read off the tables is bit-identical to
a fresh solve, iteration counts included; another box gets new tables.

The inner minimization over vertex weights is maximum-likelihood
estimation of mixture proportions, and its stopping certificate is the
Frank-Wolfe gap, whose linear subproblem is exact enumeration over the
deterministic vertices. A cold solve, from the barycenter, runs a
primal-dual interior-point Newton method on the problem's dual, whose
unknowns are one per active entry of the box, not one per vertex, and
whose slack multipliers are the vertex weights: it closes the uniform
start of a 4222 box in about 12 steps where the first-order steps below
take about 430. A warm solve, from weights an earlier solve left, first
makes up to WARM_STEPS multiplicative (expectation-maximization form)
steps, which keep full support and never walk into the +inf boundary.
They close the engine's warm starts in a few steps, each cheaper than a
Newton step; a warm solve they leave open hands over to the Newton
method from the barycenter. A Newton run that stops above its gap (its
step cap or a singular system) is finished by multiplicative steps from
its best weights.

When an inner minimization at uniform input weights leaves a minimax
bracket open, the engine polishes by a primal-dual interior-point
Newton solve of the epigraph program (minimize t subject to every row's
divergence being at most t, over the vertex-weight simplex). Its
iterates carry the multipliers of the row constraints, which are input
weights, and it stops at the central point of the log barrier whose
duality gap is tol/8. The polish's outputs are never trusted as such:
the exact worst-row divergence at its vertex weights bounds the value
from above, and an inner minimization at its multipliers bounds it from
below, so the polish can only tighten the certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .behaviors import Behavior, InputDistribution, _index, _require_same_scenario
from .divergence import _kl_rows, _weighted_rows
from .errors import NoConvergence, ParameterOutOfRange
from .geometry import LocalModel, local_vertex_matrix
from .lp import solve_lp  # noqa: F401 -- perfbench/tracing.py wraps it here
from .wirings import (
    GlobalWiring,
    LosrWiring,
    UclosrWiring,
    WpiccWiring,
    apply_gw,
    apply_losr,
    apply_uclosr,
    apply_wpicc,
)

LN2 = math.log(2.0)

#: Default optimality gap, in bits.
DEFAULT_TOL = 1e-6

#: Gap checks allowed to the multiplicative steps that follow a Newton
#: run left open.
MAX_INNER_ITER = 100000

#: Multiplicative steps a warm inner minimization makes before it hands
#: over to `_dual_newton`.
WARM_STEPS = 128

#: Smallest centering parameter sigma of a primal-dual Newton step.
SIGMA_MIN = 0.01

#: Primal-dual Newton steps allowed per epigraph polish or cold inner
#: minimization.
NEWTON_STEPS = 200

#: Epigraph polishes `_MinimaxSolver.run` tries after its uniform start.
POLISH_ROUNDS = 3

#: Outer ascent steps of `s_c_alternating`.
ALTERNATING_STEPS = 60


@dataclass(frozen=True)
class MonotoneResult:
    """Solver output: the value in bits plus certificates.

    `value` is the upper end of a closed bracket, the exact worst-row
    divergence at `optimizer_local`, and `gap_estimate` its width, never
    negative. When
    `lower_bound` is set, the bracket certifies only the minimization
    over vertex weights; the outer maximization is heuristic.
    `iterations` sums the gap checks of the inner minimizations behind
    the result: a Newton step and a multiplicative step count one each,
    and a warm solve may take both.
    """

    value: float
    optimizer_local: LocalModel
    optimizer_inputs: InputDistribution | None
    gap_estimate: float
    iterations: int
    lower_bound: bool = False


# ---------------------------------------------------------------------------
# A box's divergence tables
# ---------------------------------------------------------------------------


def _box_key(p: Behavior) -> tuple:
    """When two boxes are one: the same scenario and table bytes."""
    return p.scenario.key(), p.p.tobytes()


class _DivergenceTables:
    """A box's data as the engine reads it, built once per box: its
    scenario, the vertex matrix V (n vertices), read in place as the
    scenario's one shared, column-major copy, and P, flat and per
    setting. Inner minimizations read the columns of V where P and its
    setting weights are positive, and every `_MinimaxSolver` on the box
    shares one instance. The tables also keep what the box's quantifier
    calls share, per tol: `start`, the inner minimization at uniform
    setting weights (`uniform_start`), and `maximin`, `s_c`'s result of
    the saddle problem of `s_nl` and `s_c`.

    Each method takes q = lam @ V, which its caller forms once per
    iterate. `kls(q)` gives the per-setting divergences KL(P_s || q_s)
    in bits, one pass of `divergence._kl_rows`, so it is +inf for a
    setting where q leaves a supported outcome uncovered; `rows(q, M)`
    weighs them into row values, and `_inner_minimize` reads its value
    off them. `derivatives(lam, c, q)` scales V by lam once and reads
    every setting's gradient (one product, summed per setting by the 0/1
    setting matrix) and the weighted Hessian (one Gram product) off it,
    with q floored at 1e-300 so that the gradients stay finite; the ratio
    P / q is 0 off the support, so those columns add nothing."""

    def __init__(self, p: Behavior):
        self.scenario = sc = p.scenario
        self.key = _box_key(p)
        # the module-level name, which perfbench/tracing.py wraps
        self.V = V = local_vertex_matrix(sc)
        self.n = V.shape[0]
        self.P = p.flat()
        m = sc.sA * sc.sB
        self.shape = (m, V.shape[1] // m)
        self.P_rows = self.P.reshape(self.shape)
        # the 0/1 matrix that sums the columns of every setting
        self.groups = np.repeat(np.eye(m), self.shape[1], axis=0)
        self.start: dict[float, _InnerSolution] = {}
        self.maximin: dict[float, MonotoneResult] = {}

    def uniform_start(self, tol: float) -> _InnerSolution:
        """The inner minimization at uniform setting weights, from the
        barycenter to gap tol/(2m): `s_u` at tol, and the uniform start of
        the engine at tol with one row per setting."""
        if tol not in self.start:
            m = self.shape[0]
            self.start[tol] = _inner_minimize(self, np.full(m, 1.0 / m), gap_tol=tol / (2.0 * m))
        return self.start[tol]

    def kls(self, q: np.ndarray) -> np.ndarray:
        return _kl_rows(self.P_rows, q.reshape(self.shape))

    def rows(self, q: np.ndarray, M: np.ndarray) -> np.ndarray:
        """Row values M @ kls(q) under `divergence._weighted_rows`: +inf
        where a setting with positive weight in the row has a supported
        outcome that q leaves uncovered, never the NaN of 0 * inf."""
        return _weighted_rows(M, self.kls(q))

    def derivatives(
        self, lam: np.ndarray, c: np.ndarray, q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every setting's gradient and the Hessian of sum_s c_s times its
        divergence in the relative step u of lam -> lam (1 + u), at u = 0,
        where q = lam @ V: row s of the first is lam * grad_s, the second
        diag(lam) H diag(lam) with
        H = sum_s c_s V_s diag(P_s / q_s^2) V_s^T / ln 2."""
        VL = self.V * lam[:, None]
        q = np.maximum(q, 1e-300)
        ratio = self.P / q
        grads = ((VL * ratio) @ self.groups).T / -LN2
        w = np.repeat(c, self.shape[1]) * (ratio / (q * LN2))
        return grads, (VL * w) @ VL.T


# ---------------------------------------------------------------------------
# Inner problem: minimize the weighted divergence over vertex weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _InnerSolution:
    lam: np.ndarray  # read-only
    value: float
    gap: float
    iterations: int
    kls: np.ndarray  # read-only: the per-setting divergences at lam


def _inner_minimize(
    tables: _DivergenceTables,
    setting_weights: np.ndarray,
    *,
    gap_tol: float,
    lam0: np.ndarray | None = None,
) -> _InnerSolution:
    """Minimize sum_s w_s KL(P_s || (V.lam)_s) over the weight simplex,
    from lam0 when given, else from the barycenter. Only the columns of
    V where c, the setting weights times P, is positive enter.

    A warm solve (from lam0) makes up to WARM_STEPS multiplicative steps
    (`_fw_steps`) from lam0, which close the gaps the engine's warm
    starts leave in a few steps. A cold solve, and a warm one those steps
    leave above gap_tol, runs `_dual_newton` from the barycenter. Should
    Newton stop above gap_tol (its step cap or a singular system), the
    multiplicative steps continue from its best weights, up to
    MAX_INNER_ITER gap checks. The value is the weighted sum of the
    tables' `kls` at the returned weights, under the rule of the row
    values, and the gap is their Frank-Wolfe gap; `iterations` counts the
    gap checks of every run, one at each start and one after every step.
    """
    c = np.repeat(setting_weights, tables.shape[1]) * tables.P
    active = c > 0.0
    cE = c[active]
    # a full support reads V itself, not a copy of it
    full = active.all()
    VE = tables.V if full else tables.V[:, active]

    it = 0
    gap = math.inf
    if lam0 is not None:
        lam, qE, gap, it = _fw_steps(cE, VE, _floored(lam0), gap_tol, WARM_STEPS)
    if gap > gap_tol:
        lam, qE, gap, steps = _dual_newton(cE, VE, gap_tol)
        it += steps
    if gap > gap_tol:
        lam, qE, gap, steps = _fw_steps(cE, VE, _floored(lam), gap_tol, MAX_INNER_ITER)
        it += steps

    kls = tables.kls(qE if full else lam @ tables.V)
    value = float(_weighted_rows(setting_weights[None], kls)[0])
    # the tables keep the uniform start, which several solvers read
    lam.setflags(write=False)
    kls.setflags(write=False)
    return _InnerSolution(lam, value, max(gap, 0.0), it, kls)


def _floored(lam: np.ndarray) -> np.ndarray:
    """lam, clipped at 0, normalized and mixed with 1e-6 of the
    barycenter: multiplicative steps cannot revive an exactly-zero
    coordinate on their own."""
    lam = np.clip(np.asarray(lam, dtype=float), 0.0, None)
    lam = lam / lam.sum()
    return (1.0 - 1e-6) * lam + 1e-6 / lam.size


def _dual_newton(
    cE: np.ndarray, VE: np.ndarray, gap_tol: float
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Primal-dual interior-point Newton method on the dual of the inner
    minimization, from the barycenter.

    The inner problem maximizes sum cE log q, q = lam VE, over the
    simplex: the maximum-likelihood mixture proportions. Its dual
    (Lindsay, Ann. Statist. 11, 1983; Koenker & Mizera, JASA 109, 2014)
    is min -sum cE log nu subject to VE nu + s = C, s >= 0, with
    C = sum cE; the vertex weights are the multipliers lam of the
    slacks s, normalized. The start takes lam at the barycenter, nu at
    cE / q there and every slack at C, central for mu = C / n. Each step
    solves the d x d system, d the number of active entries,
        (diag(cE / nu^2) + VE^T diag(lam / s) VE) dnu
            = cE / nu - VE^T (mu / s - (lam / s) r),
    with r = C - VE nu - s, then takes ds = r - VE dnu and
    dlam = mu / s - lam - (lam / s) ds. The slacks are iterates of their
    own, never recomputed as C - VE nu: on degenerate boxes that
    difference cancels to 0, or to rounding below it, where the slack
    must stay positive.
    mu and the step follow `_barrier_epigraph`'s rules: sigma times the
    duality gap lam.s / n, floored at mu_end = gap_tol ln 2 / (8 n),
    the central point whose duality gap is gap_tol / 8 bits, and a step
    a fraction 1 - min(0.01, n mu) of the way to the boundary of nu, s
    and lam.

    It reads the Frank-Wolfe gap at the normalized weights, and their
    image q, at the start and after every step: (max_j (VE cE / q)_j - C)
    / ln 2, since sum_j lam_j (VE cE / q)_j = sum cE = C there. It stops
    once that gap is at most gap_tol, after NEWTON_STEPS steps, or at a
    singular or non-finite system. Returns the weights with the least
    gap read, their q, that gap and the number of gap checks.

    Every work array is a local, allocated once per call, and each step
    writes them in place; so concurrent solves share no buffer, and the
    returned arrays belong to the caller.
    """
    n, d = VE.shape
    C = float(cE.sum())
    mu_end = gap_tol * LN2 / (8.0 * n)
    block = max(1, (1 << 20) // d)
    # the iterate (nu, s, lam) and its step, each one array of views
    z, dz = np.empty(d + 2 * n), np.empty(d + 2 * n)
    nu, s, lam = z[:d], z[d:d + n], z[d + n:]
    dnu, ds, dlam = dz[:d], dz[d:d + n], dz[d + n:]
    lam[:] = 1.0 / n
    # two (lam_hat, q) pairs: a gap check writes the one best does not hold
    checks = [(np.empty(n), np.empty(d)) for _ in range(2)]
    free = 0
    # the step's work arrays, and VE^T diag(w) VE as a sum of symmetric
    # products X X^T over blocks of about 2^20 entries of VE, so that no
    # temporary is the size of VE
    r, w, root_w, mu_s, tmp_n, back = (np.empty(n) for _ in range(6))
    c_nu, rhs, tmp_d, tmp_z = np.empty(d), np.empty(d), np.empty(d), np.empty_like(z)
    H, X = np.empty((d, d)), np.empty(d * min(block, n))
    diagonal = H.reshape(-1)[::d + 1]
    blocks = []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        Xb = X[:d * (hi - lo)].reshape(d, hi - lo)
        blocks.append((VE[lo:hi].T, w[lo:hi], root_w[lo:hi], Xb))
    best = None
    it = 0
    alpha = 0.0  # the first step centers
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            it += 1
            lam_hat, q = checks[free]
            np.divide(lam, lam.sum(), out=lam_hat)
            np.dot(lam_hat, VE, q)
            np.divide(cE, q, out=c_nu)
            gap = (float(np.dot(VE, c_nu, back).max()) - C) / LN2
            if best is None or gap < best[2]:
                best = (lam_hat, q, gap)
                free ^= 1
            if gap <= gap_tol or it > NEWTON_STEPS:
                break
            if it == 1:
                nu[:], s[:] = c_nu, C
            np.subtract(C, np.dot(VE, nu, r), out=r)
            r -= s
            sigma = max((1.0 - alpha) ** 3, SIGMA_MIN)
            mu = max(sigma * float(lam @ s) / n, mu_end)
            np.divide(lam, s, out=w)
            np.divide(mu, s, out=mu_s)
            np.divide(cE, nu, out=c_nu)
            for j, (VT, wb, root_wb, Xb) in enumerate(blocks):
                np.multiply(VT, np.sqrt(wb, out=root_wb), out=Xb)
                if j == 0:
                    np.matmul(Xb, Xb.T, out=H)
                else:
                    H += Xb @ Xb.T
            diagonal += np.divide(c_nu, nu, out=tmp_d)
            np.subtract(mu_s, np.multiply(w, r, out=tmp_n), out=tmp_n)
            np.subtract(c_nu, np.dot(VE.T, tmp_n, rhs), out=rhs)
            try:
                dnu[:] = np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                break
            np.subtract(r, np.dot(VE, dnu, ds), out=ds)
            np.subtract(mu_s, lam, out=dlam)
            dlam -= np.multiply(w, ds, out=tmp_n)
            if not np.isfinite(dz).all():
                break
            # the largest relative decrease sets the step to the boundary
            shrink = float(np.divide(dz, z, out=tmp_z).min())
            alpha = 1.0 if shrink >= 0.0 else min(1.0, (1.0 - min(0.01, n * mu)) / -shrink)
            z += np.multiply(dz, alpha, out=tmp_z)
    return best + (it,)


def _fw_steps(
    cE: np.ndarray, VE: np.ndarray, lam: np.ndarray, gap_tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Multiplicative (expectation-maximization) steps from lam, which
    must be positive and is updated in place. They keep full support and
    never walk into the +inf boundary. Progress is certified by the
    Frank-Wolfe gap, whose linear subproblem is exact enumeration over
    the vertices. The run stops at the first iterate whose gap is at most
    gap_tol, or at the max_iter-th, counting each iterate's gap check as
    an iteration. Returns lam, its q, its gap and the iteration count.
    """
    qE = lam @ VE
    ratio = np.empty_like(qE)
    back = np.empty(VE.shape[0])

    it = 0
    while True:
        it += 1
        # the floor only matters for entries whose target weight is
        # rounding dust; it keeps incremental cancellation from feeding
        # an exact zero into the ratio
        np.divide(cE, np.maximum(qE, 1e-300, out=ratio), out=ratio)
        # back is the vertex gradient, negated and scaled by ln 2
        np.dot(VE, ratio, back)
        gap = float(back.max() - np.dot(lam, back)) / LN2
        if gap <= gap_tol or it >= max_iter:
            return lam, qE, gap, it
        lam *= back
        lam /= np.add.reduce(lam)
        np.dot(lam, VE, qE)


# ---------------------------------------------------------------------------
# The tables of the most recent box
# ---------------------------------------------------------------------------


#: The tables of the most recent box, with its shared solves.
_box: _DivergenceTables | None = None


def _tables_of(p: Behavior) -> _DivergenceTables:
    """The module's tables when they are of p's box, else new ones, which
    replace them; the old tables are dropped before the new are built.
    The module's tables are read once, so a call returns tables of p's
    box even when another thread replaces them meanwhile."""
    global _box
    tables = _box
    if tables is None or tables.key != _box_key(p):
        _box = tables = None
        _box = tables = _DivergenceTables(p)
    return tables


# ---------------------------------------------------------------------------
# The minimax engine
# ---------------------------------------------------------------------------


def _barrier_epigraph(
    tables: _DivergenceTables, M: np.ndarray, lam0: np.ndarray,
    gap0: float, tol: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Primal-dual interior-point solve (Boyd & Vandenberghe, Convex
    Optimization, 11.7) of the epigraph program min t s.t. every row
    value g_j of tables.rows(lam @ V, M) is <= t, lam >= 0, sum lam = 1.

    The iterates carry the row multipliers D, the bound multipliers z
    and the simplex multiplier nu beside (lam, t), with the slacks
    s = t - g kept positive. The start mixes uniform weights into lam0
    at the bracket's gap gap0, puts t k gap0 / (k + n) above the worst
    row, and takes D and z central for the mu that puts D on the
    simplex. Each Newton step targets the central point
    D_j s_j = z_i lam_i = mu, where mu is sigma times the current
    duality gap (D.s + z.lam) / (k + n), floored at
    mu_end = tol / (8 (k + n)): the point of the log barrier whose
    duality gap is tol / 8. sigma is the cube of how far the previous
    step fell short of a full one, at least SIGMA_MIN, so a step cut
    short is followed by one that recenters.

    With the step of z eliminated, each step solves one
    (n + k + 2) x (n + k + 2) KKT system in (u, dt, dD, dnu), where u is
    the relative step of lam -> lam (1 + u), the diag(lam) scaling that
    `tables.derivatives` returns, so the bound's own term is z lam,
    about mu, however close lam comes to its bounds. dD stays in the
    system, whose slack rows carry -s / D on the diagonal: eliminating
    it would add G^T diag(D / s) G to the lam block, with row weights
    D / s that grow like 1 / mu beside the bound's term of about mu, a
    condition number near 1 / mu^2 (1e17 on a 4222 box), and the
    rounding of that solve costs the last steps their quadratic
    convergence. The step goes at most a fraction 1 - min(0.01, (k + n) mu)
    of the way to the boundary of lam, D, z and the linearized slacks,
    then backtracks until the slacks are positive and the norm of the
    KKT residual falls. The solve stops once mu is at mu_end and the
    norm of the KKT residual at mu_end is at most mu_end: then every
    product D_j s_j and z_i lam_i is within mu_end of mu_end, so the
    duality gap D.s + z.lam is at most tol / 4. Steps past that point
    only shrink the residual, after the worst row has stopped moving.
    It also stops after NEWTON_STEPS steps, or when no step lowers the
    residual. The central path is the tiebreaker for degenerate
    optimal faces, where weighted-sum minimizers are not unique and
    plain exchanges stall.

    Returns the final weights and D, normalized, or None when the start
    has a slack that is not positive (gap0 lost in rounding t), a KKT
    system is singular or a step is not finite. Neither output is
    trusted: the caller re-evaluates the rows at the weights and runs
    its own inner minimization at D. As in `_dual_newton`, the work
    arrays, the iterate and its trial point are locals allocated once per
    call and written in place.
    """
    n, k = lam0.size, M.shape[0]
    gap0 = min(gap0, 1.0)
    # mixing in uniform weights at the scale of the bracket's gap puts
    # every weight near where the central point of that gap has it
    lam = (1.0 - gap0) * np.clip(lam0, 0.0, None) + gap0 / n
    lam = lam / lam.sum()
    mu_end = tol / (8.0 * (k + n))
    q = lam @ tables.V
    g = tables.rows(q, M)
    # the start is central for the mu that puts D on the simplex, every
    # slack at least k gap0 / (k + n)
    t = float(np.max(g)) + k * gap0 / (k + n)
    if not np.all(t > g):
        # k gap0 / (k + n) is below the rounding of the worst row
        return None

    def parts(x):
        """The slacks, D and z of an array laid out as (1, s, D, z): the
        1s are lam's bound in the relative step u."""
        return x[n:n + k], x[n + k:n + 2 * k], x[n + 2 * k:]

    # the iterate's (1, s, D, z) and a trial point's, swapped with the
    # weights, row gradients and residual when a step is taken; dx is the
    # step (u, ds, dD, dz)
    x, x_new, dx = np.ones(2 * (n + k)), np.ones(2 * (n + k)), np.empty(2 * (n + k))
    (s, D, z), (s_new, D_new, z_new) = parts(x), parts(x_new)
    u, ds, dD, dz = dx[:n], *parts(dx)
    np.subtract(t, g, out=s)
    mu = 1.0 / float(np.sum(1.0 / s))
    np.divide(mu, s, out=D)
    np.divide(mu, lam, out=z)
    grads, H = tables.derivatives(lam, M.T @ D, q)
    G = M @ grads  # row gradients, scaled by lam
    # the simplex multiplier that makes the dual residual sum to zero
    nu = float(z @ lam - D @ G.sum(1))
    lam_new, G_new = np.empty(n), np.empty_like(G)
    # work arrays of the step
    tmp = np.empty(n)
    ratio, shrinking = np.empty(2 * (n + k)), np.empty(2 * (n + k), dtype=bool)

    def residual(lam, s, D, z, nu, G, out):
        """The KKT residual at mu = 0, written to out: the dual residual
        (scaled by lam), t's stationarity, the products D s and z lam, and
        the simplex."""
        np.dot(G.T, D, out[:n])
        out[:n] += np.multiply(np.subtract(nu, z, out=tmp), lam, out=tmp)
        out[n] = 1.0 - D.sum()
        np.multiply(D, s, out=out[n + 1:n + k + 1])
        np.multiply(z, lam, out=out[n + k + 1:-1])
        out[-1] = lam.sum() - 1.0

    # the KKT system in (u, dt, dD, dnu)
    kkt = np.zeros((n + k + 2, n + k + 2))
    diagonal = kkt.reshape(-1)[::n + k + 3]
    kkt[n, n + 1:-1] = kkt[n + 1:-1, n] = -1.0
    rhs = np.empty(n + k + 2)
    r, r_new, r_mu = (np.empty(2 * n + k + 2) for _ in range(3))
    residual(lam, s, D, z, nu, G, r)
    alpha = 0.0  # the first step centers
    for _ in range(NEWTON_STEPS):
        sigma = max((1.0 - alpha) ** 3, SIGMA_MIN)
        mu = max(sigma * float(r[n + 1:-1].sum()) / (k + n), mu_end)
        # the residual at mu: the products less mu
        r[n + 1:-1] -= mu
        norm = math.sqrt(r.dot(r))
        if mu == mu_end and norm <= mu_end:
            break
        kkt[:n, :n] = H
        diagonal[:n] += np.multiply(z, lam, out=tmp)
        np.negative(np.divide(s, D, out=diagonal[n + 1:-1]), out=diagonal[n + 1:-1])
        kkt[n + 1:-1, :n] = G
        kkt[:n, n + 1:-1] = G.T
        kkt[:n, -1] = kkt[-1, :n] = lam
        # minus the residual at mu, with dz eliminated from the dual rows
        # and the slack rows divided by -D, as the matrix has them
        np.negative(np.add(r[:n], r[n + k + 1:-1], out=rhs[:n]), out=rhs[:n])
        rhs[n], rhs[-1] = -r[n], -r[-1]
        np.divide(r[n + 1:n + k + 1], D, out=rhs[n + 1:-1])
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(step).all():
            return None
        u[:], dt, dD[:], dnu = step[:n], step[n], step[n + 1:-1], step[-1]
        # the slacks' linearized step
        np.subtract(dt, np.dot(G, u, ds), out=ds)
        np.divide(mu, lam, out=dz)
        dz -= z
        dz -= np.multiply(z, u, out=tmp)
        # the least x / -dx over the shrinking entries, inf when none is
        np.less(dx, 0.0, out=shrinking)
        np.divide(x, dx, out=ratio, where=shrinking)
        bound = -float(ratio.max(where=shrinking, initial=-np.inf))
        alpha = min(1.0, (1.0 - min(0.01, (k + n) * mu)) * bound)
        while alpha >= 1e-12:
            np.multiply(u, alpha, out=lam_new)
            lam_new += 1.0
            lam_new *= lam
            t_new = t + alpha * dt
            q = lam_new @ tables.V
            g_new = tables.rows(q, M)
            if (np.subtract(t_new, g_new, out=s_new) > 0.0).all():
                np.multiply(dD, alpha, out=D_new)
                D_new += D
                np.multiply(dz, alpha, out=z_new)
                z_new += z
                nu_new = nu + alpha * dnu
                grads, H_new = tables.derivatives(lam_new, M.T @ D_new, q)
                np.matmul(M, grads, out=G_new)
                residual(lam_new, s_new, D_new, z_new, nu_new, G_new, r_new)
                np.copyto(r_mu, r_new)
                r_mu[n + 1:-1] -= mu
                if math.sqrt(r_mu.dot(r_mu)) <= (1.0 - 0.01 * alpha) * norm:
                    break
            alpha *= 0.5
        else:
            break
        lam, lam_new, x, x_new, G, G_new, r, r_new = lam_new, lam, x_new, x, G_new, G, r_new, r
        (s, D, z), (s_new, D_new, z_new) = parts(x), parts(x_new)
        t, g, nu, H = t_new, g_new, nu_new, H_new
    return lam / lam.sum(), D / D.sum()


class _MinimaxSolver:
    """Certified solver for min over vertex weights of the worst row value
    of M @ (per-setting divergences). Row j of the (k, sA*sB) matrix M is
    the setting-weight vector of input coordinate j; the default identity
    makes the rows the settings. Maintains a bracket [lower, upper]:
    lower bounds come from inner minimizations at fixed input weights d
    (setting weights d @ M), upper bounds from the worst row value of any
    vertex-weight iterate. `result` reports the closed bracket. The
    box's tables are built by the caller and may be shared by several
    solvers; `lam_warm` starts the first inner minimization, which
    without it starts at the barycenter. tol must be positive and
    finite."""

    def __init__(
        self, tables: _DivergenceTables, tol: float, M: np.ndarray | None = None,
        lam_warm: np.ndarray | None = None,
    ):
        if not 0.0 < tol < math.inf:
            raise ParameterOutOfRange(f"tol must be positive and finite, got {tol}")
        self.tables = tables
        self.M = np.eye(tables.shape[0]) if M is None else M
        self.k = self.M.shape[0]
        self.tol = tol
        self.lower = 0.0
        self.upper = math.inf
        self.d_lower: np.ndarray | None = None  # input weights that set lower
        self.lam_best: np.ndarray | None = None
        self.iterations = 0
        self.lam_warm = lam_warm

    @property
    def gap(self) -> float:
        """The bracket's width; should rounding take lower above upper,
        their disagreement, which tol must cover as well."""
        return abs(self.upper - self.lower)

    @property
    def closed(self) -> bool:
        return self.gap <= self.tol

    def observe_lam(self, lam: np.ndarray, rows: np.ndarray) -> None:
        u_here = float(np.max(rows))
        if u_here < self.upper:
            self.upper = u_here
            self.lam_best = lam

    def solve_at(self, d: np.ndarray, gap_tol: float) -> tuple[float, np.ndarray]:
        """Inner minimization at input weights d to gap_tol, from
        `lam_warm` (the barycenter when it is None), taken into the
        bracket; returns its value and the row values at its minimizer."""
        inner = _inner_minimize(self.tables, d @ self.M, gap_tol=gap_tol, lam0=self.lam_warm)
        return inner.value, self.take(d, inner)

    def take(self, d: np.ndarray, inner: _InnerSolution) -> np.ndarray:
        """Take an inner minimization at input weights d into the bracket
        and make its weights the next warm start; returns the row values
        at its minimizer."""
        self.iterations += inner.iterations
        self.lam_warm = inner.lam
        if self.d_lower is None or inner.value - inner.gap > self.lower:
            self.lower = max(self.lower, inner.value - inner.gap)
            self.d_lower = d
        rows = _weighted_rows(self.M, inner.kls)
        self.observe_lam(inner.lam, rows)
        return rows

    def polish(self) -> None:
        """One primal-dual barrier solve of the epigraph program
        (`_barrier_epigraph`) from the best weights so far, to its
        central point of duality gap tol/8. The exact row values at its
        weights bound the value from above; an inner minimization at its
        row multipliers D, warm-started at its weights, bounds it from
        below."""
        n = self.tables.n
        lam0 = self.lam_best if self.lam_best is not None else np.full(n, 1.0 / n)
        polished = _barrier_epigraph(self.tables, self.M, lam0, self.gap, self.tol)
        if polished is None:
            return
        lam, D = polished
        self.observe_lam(lam, self.tables.rows(lam @ self.tables.V, self.M))
        if self.closed:
            return
        self.lam_warm = lam
        self.solve_at(D, self.tol / 8.0)

    def run(self, start: _InnerSolution | None = None) -> None:
        """Close the bracket: the inner minimization at uniform input
        weights to gap tol/(2k), which is `start` when given, then up to
        POLISH_ROUNDS polishes. Raises NoConvergence if it stays open."""
        uniform = np.full(self.k, 1.0 / self.k)
        if start is None:
            self.solve_at(uniform, self.tol / (2.0 * self.k))
        else:
            self.take(uniform, start)
        for _ in range(POLISH_ROUNDS):
            if self.closed:
                return
            self.polish()
        if not self.closed:
            raise NoConvergence(self.iterations, float(self.gap), self.lower, self.upper)

    def result(
        self, inputs: InputDistribution | None, lower_bound: bool = False
    ) -> MonotoneResult:
        """The closed bracket as a result: its upper end, the weights that
        set it and its width. Raises NoConvergence while it is open."""
        if not self.closed:
            raise NoConvergence(self.iterations, float(self.gap), self.lower, self.upper)
        lam = self.lam_best
        return MonotoneResult(self.upper, LocalModel(self.tables.scenario, lam / lam.sum()),
                              inputs, self.gap, self.iterations, lower_bound)


# ---------------------------------------------------------------------------
# s_u, s_nl and s_c
# ---------------------------------------------------------------------------


def s_u(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Divergence from the local set under the uniform input
    distribution: the minimax engine with one input row, the uniform
    setting weights, closed by a single inner minimization. The value is
    the exact uniform-weighted divergence at its minimizer; the bracket's
    lower end is the minimizer's value less its Frank-Wolfe gap. The
    minimization is the box's `uniform_start(tol)`, which stops at the
    engine's start gap tol/(2m) for m settings, not at tol. So `s_u` and
    the start of an `s_nl`, `s_c` or `s_c_alternating` call on the box
    and tol are one solve, made by whichever comes first."""
    tables = _tables_of(p)
    m = p.scenario.sA * p.scenario.sB
    solver = _MinimaxSolver(tables, tol, np.full((1, m), 1.0 / m))
    solver.take(np.ones(1), tables.uniform_start(tol))
    return solver.result(None)


def _minimax_solve(p: Behavior, tol: float) -> MonotoneResult:
    """`s_c`'s result for the saddle problem of `s_nl` and `s_c` at p and
    tol. The solve is deterministic, so the box's tables keep it per tol,
    and a later call on the box and tol returns it: its arrays are
    read-only, and it is exactly what a fresh solve returns. A solve that
    raises leaves no result behind."""
    tables = _tables_of(p)
    if tol not in tables.maximin:
        solver = _MinimaxSolver(tables, tol)
        solver.run(tables.uniform_start(tol))
        tables.maximin[tol] = _maximin_result(solver)
    return tables.maximin[tol]


def _maximin_result(solver: _MinimaxSolver) -> MonotoneResult:
    """The closed bracket's result, reporting as optimizer input the
    input weights `d_lower` whose certified inner minimum set the lower
    bound: the minimum over vertex weights at them is at least
    value - gap_estimate."""
    return solver.result(InputDistribution.general(solver.tables.scenario, solver.d_lower))


def s_nl(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Input-maximized divergence from the local set (the relative
    entropy of nonlocality), certified by the saddle-point bracket. A
    call on the most recent box reuses an `s_nl` or `s_c` solve made on
    it at this tol; its uniform start is `s_u`'s solve, read off the
    box's tables when an `s_u` call on the box and tol made it."""
    return replace(_minimax_solve(p, tol), optimizer_inputs=None)


def s_c(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Max-min statistical strength over unrestricted input
    distributions; equals `s_nl` by the minimax theorem. The reported
    optimizer input is a maximin input distribution: an inner
    minimization at it certifies at least value - gap_estimate. A call
    on the most recent box reuses an `s_nl` or `s_c` solve made on it at
    this tol."""
    return _minimax_solve(p, tol)


def s_c_alternating(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Direct alternating max-min evaluation of the unrestricted
    statistical strength.

    The input distribution ascends by golden-section line-searched steps
    toward the best-response point mass (the worst setting), fully
    re-minimizing over vertex weights at every probe. The exploration
    dynamics are deliberately different from the engine behind `s_nl` so
    the two routes cross-validate; only the bracket bookkeeping (inner
    solves, bounds, closure test) and the degenerate-face polisher are
    shared between them. An outer step that does not halve the gap
    is followed by a polish: on degenerate optimal faces, where
    weighted-sum minimizers are not unique, the ascent alone cannot
    select the equalizing minimizer. Reports the same maximin input
    certificate as `s_c`.
    """
    tables = _tables_of(p)
    solver = _MinimaxSolver(tables, tol)
    m = solver.k
    inner_tol = tol / (2.0 * m)
    D = np.full(m, 1.0 / m)
    rows = solver.take(D, tables.uniform_start(tol))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(ALTERNATING_STEPS):
        if solver.closed:
            break
        gap_before = solver.gap
        best_response = np.zeros(m)
        best_response[int(np.argmax(rows))] = 1.0

        def probe(x: float) -> float:
            return solver.solve_at((1 - x) * D + x * best_response, inner_tol)[0]

        # golden-section line search for the ascent step
        a, b = 0.0, 1.0
        x1 = b - golden * (b - a)
        x2 = a + golden * (b - a)
        f1 = probe(x1)
        f2 = probe(x2)
        for _ in range(8):
            if solver.closed:
                break
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + golden * (b - a)
                f2 = probe(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - golden * (b - a)
                f1 = probe(x1)
        if solver.closed:
            break
        eta = x1 if f1 >= f2 else x2
        D = (1 - eta) * D + eta * best_response
        D = np.clip(D, 1e-12, None)
        D = D / D.sum()
        _, rows = solver.solve_at(D, inner_tol)
        if not solver.closed and solver.gap > gap_before / 2.0:
            solver.polish()

    return _maximin_result(solver)


# ---------------------------------------------------------------------------
# s_uc: product input distributions
# ---------------------------------------------------------------------------


def s_uc(
    p: Behavior,
    tol: float = DEFAULT_TOL,
    restarts: int = 32,
    seed: int = 0,
) -> MonotoneResult:
    """Certified lower bound on the product-input statistical strength.

    Alternating coordinate ascent on the two input marginals,
    multi-started from the uniform product, all point-mass products, and
    seeded random products. Each block maximizes min over vertex weights
    of sum_x d_x r_x over one marginal d, where r_x is the divergence of
    the settings with that party's input x weighted by the other, fixed
    marginal: the saddle problem of `s_nl` with the settings grouped by
    the free party's input, certified by the same engine. The final
    re-solve at the best product is the engine with that product as its
    one input row, as in `s_u`; a block's bracket or the final one that
    does not close raises NoConvergence. `restarts` is a floor on the
    number of starts: the uniform product and all sA*sB point-mass
    products always run, and random products, drawn from `seed`, fill
    up to `restarts`; both must be nonnegative integers, else
    ParameterOutOfRange. The product set is nonconvex, so global
    optimality is not certified: the result reports the exact divergence
    at the best product, flagged as a lower bound; its gap_estimate is
    the width of the final bracket, which certifies only the inner
    minimization.
    """
    restarts = _index(restarts, math.inf, "restarts")
    sc = p.scenario
    rng = np.random.default_rng(_index(seed, math.inf, "seed"))

    eye_A, eye_B = np.eye(sc.sA), np.eye(sc.sB)
    starts = [(np.full(sc.sA, 1.0 / sc.sA), np.full(sc.sB, 1.0 / sc.sB))]
    starts += [(eye_A[x], eye_B[y]) for x in range(sc.sA) for y in range(sc.sB)]
    while len(starts) < restarts:
        starts.append(
            (rng.dirichlet(np.ones(sc.sA)), rng.dirichlet(np.ones(sc.sB)))
        )

    tables = _tables_of(p)
    best_val = -math.inf
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    best_lam: np.ndarray | None = None
    iterations = 0
    lam_warm: np.ndarray | None = None

    def block_max(
        M: np.ndarray, warm: np.ndarray | None
    ) -> tuple[np.ndarray, float, np.ndarray | None]:
        """Maximize the inner value over the input weights of the rows of M."""
        nonlocal iterations
        solver = _MinimaxSolver(tables, tol, M, lam_warm=warm)
        solver.run()
        iterations += solver.iterations
        return solver.d_lower, solver.lower, solver.lam_warm

    for dx0, dy0 in starts:
        dx, dy = dx0.copy(), dy0.copy()
        val_prev = -math.inf
        for _ in range(16):
            dx, _, lam_warm = block_max(np.kron(eye_A, dy), lam_warm)
            dy, vy, lam_warm = block_max(np.kron(dx, eye_B), lam_warm)
            if vy <= val_prev + tol / 2.0:
                val_prev = max(val_prev, vy)
                break
            val_prev = vy
        if val_prev > best_val:
            best_val = val_prev
            best_pair = (dx.copy(), dy.copy())
            best_lam = lam_warm

    dx, dy = best_pair
    solver = _MinimaxSolver(tables, tol, np.outer(dx, dy).reshape(1, -1), lam_warm=best_lam)
    solver.solve_at(np.ones(1), tol)
    result = solver.result(InputDistribution.product(sc, dx, dy), lower_bound=True)
    return replace(result, iterations=iterations + result.iterations)


QUANTIFIERS = {
    "snl": s_nl,
    "su": s_u,
    "suc": s_uc,
    "sc": s_c,
}


def evaluate_quantifier(name: str, p: Behavior, tol: float, **kwargs) -> MonotoneResult:
    if name not in QUANTIFIERS:
        raise ParameterOutOfRange(f"unknown quantifier {name!r}")
    return QUANTIFIERS[name](p, tol, **kwargs)


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


WiringLike = GlobalWiring | LosrWiring | UclosrWiring | WpiccWiring


def apply_wiring(w: WiringLike, p: Behavior) -> Behavior:
    if isinstance(w, GlobalWiring):
        return apply_gw(w, p)
    if isinstance(w, LosrWiring):
        return apply_losr(w, p)
    if isinstance(w, UclosrWiring):
        return apply_uclosr(w, p)
    if isinstance(w, WpiccWiring):
        return apply_wpicc(w, p)
    raise ParameterOutOfRange(f"not a wiring: {type(w).__name__}")


@dataclass(frozen=True)
class AuditRow:
    label: str
    value_before: float
    value_after: float
    slack: float
    violation: float  # positive part of the excess beyond slack

    @property
    def violated(self) -> bool:
        return self.violation > 0.0


@dataclass(frozen=True)
class AuditReport:
    quantifier: str
    rows: list[AuditRow] = field(default_factory=list)

    @property
    def any_violation(self) -> bool:
        return any(r.violated for r in self.rows)

    @property
    def worst(self) -> float:
        return max((r.violation for r in self.rows), default=0.0)


def monotonicity_audit(
    quantifier: str,
    p: Behavior,
    wirings: list[WiringLike],
    tol: float = DEFAULT_TOL,
    **kwargs,
) -> AuditReport:
    """Compare the quantifier before and after each wiring; flag a
    violation when the increase exceeds the solver slack
    2*(gap_before + gap_after) + tol."""
    before = evaluate_quantifier(quantifier, p, tol, **kwargs)
    rows = []
    for idx, w in enumerate(wirings):
        out = apply_wiring(w, p)
        after = evaluate_quantifier(quantifier, out, tol, **kwargs)
        slack = 2.0 * (before.gap_estimate + after.gap_estimate) + tol
        excess = after.value - before.value - slack
        rows.append(
            AuditRow(
                label=f"{type(w).__name__}#{idx}",
                value_before=before.value,
                value_after=after.value,
                slack=slack,
                violation=max(0.0, excess),
            )
        )
    return AuditReport(quantifier, rows)


def convexity_audit(
    quantifier: str,
    p: Behavior,
    p_prime: Behavior,
    mus: list[float],
    tol: float = DEFAULT_TOL,
    **kwargs,
) -> AuditReport:
    """Check f(mu p + (1-mu) p') <= mu f(p) + (1-mu) f(p') + slack, for
    p and p' of one scenario and every mu in [0, 1]."""
    _require_same_scenario(p_prime.scenario, p.scenario, "p_prime scenario")
    for mu in mus:
        if not 0.0 <= mu <= 1.0:
            raise ParameterOutOfRange(f"mu must lie in [0, 1], got {mu}")
    f_p = evaluate_quantifier(quantifier, p, tol, **kwargs)
    f_pp = evaluate_quantifier(quantifier, p_prime, tol, **kwargs)
    rows = []
    for mu in mus:
        mix = Behavior(p.scenario, mu * p.p + (1.0 - mu) * p_prime.p)
        f_mix = evaluate_quantifier(quantifier, mix, tol, **kwargs)
        rhs = mu * f_p.value + (1.0 - mu) * f_pp.value
        slack = (
            f_mix.gap_estimate + mu * f_p.gap_estimate
            + (1.0 - mu) * f_pp.gap_estimate + tol
        )
        excess = f_mix.value - rhs - slack
        rows.append(
            AuditRow(
                label=f"mu={mu}",
                value_before=rhs,
                value_after=f_mix.value,
                slack=slack,
                violation=max(0.0, excess),
            )
        )
    return AuditReport(quantifier, rows)
