"""Nonlocality quantifiers over the local polytope.

Four quantities are computed, all in bits:

* `s_u` — divergence from the local set under uniformly chosen inputs:
  a single convex minimization over vertex weights.
* `s_nl` — the input-maximized divergence from the local set, a convex
  min-max problem. The objective is linear in the input distribution, so
  input-side best responses are point masses on the worst setting; the
  solver alternates input-side updates with full convex minimizations
  over vertex weights and certifies a bracket from the saddle-point
  inequality: any vertex-weight iterate upper-bounds the value by its
  worst-setting divergence, and any inner minimization at fixed inputs
  lower-bounds it.
* `s_c` — equal to `s_nl` by the minimax theorem; reported with the
  optimizing input distribution. A direct alternating max-min
  evaluation (`s_c_alternating`) keeps its own ascent dynamics so the
  two routes can cross-validate.
* `s_uc` — the same game restricted to product input distributions.
  The product set is nonconvex, so the alternating coordinate ascent
  with multi-start reports a certified LOWER bound, flagged as such.
  Each block of the ascent, over one party's marginal with the other
  fixed, is again a convex min-max problem, solved by the same engine
  as `s_nl` with the settings grouped by the free party's input.

The inner minimization over vertex weights uses multiplicative
(expectation-maximization form) steps, which keep full support and never
walk into the +inf boundary, interleaved with pairwise vertex exchanges;
its stopping certificate is the Frank-Wolfe gap, whose linear subproblem
is exact enumeration over the deterministic vertices. Iterates start at
the barycenter. Per-setting divergences are clamped at a finite ceiling
wherever they feed an outer model; reported values are re-evaluated
unclamped at the optimizer.

The engine works on input coordinates, each a fixed weighting of the
settings (for `s_nl` one coordinate per setting). After an inner
minimization at uniform input weights, it polishes by a log-barrier
Newton solve of the epigraph program (minimize t subject to every
coordinate's divergence being at most t, over the vertex-weight
simplex), whose central path also yields input weights: the barrier's
multipliers on the coordinate constraints. The barrier's outputs are
never trusted as such: the exact worst-coordinate divergence at its
vertex weights bounds the value from above, and an inner minimization
at its multipliers bounds it from below, so the polish can only tighten
the certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .behaviors import Behavior, InputDistribution, Scenario
from .divergence import _kl_terms
from .errors import NoConvergence, SolverFailure
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

#: Ceiling (in bits) applied to per-setting divergences inside optimizers.
CLAMP_BITS = 60.0

#: Default optimality gap, in bits.
DEFAULT_TOL = 1e-6

MAX_INNER_ITER = 100000

#: Every PAIRWISE_EVERY-th inner step is a pairwise vertex exchange.
PAIRWISE_EVERY = 8

#: Cap on derivative evaluations in one exchange line search; a search
#: that reaches it returns the left end of its bracket.
LINE_SEARCH_EVALS = 64


@dataclass(frozen=True)
class MonotoneResult:
    """Solver output: the value in bits plus certificates.

    `optimizer_local` reconstructs to the minimizing local behavior;
    `gap_estimate` is a valid optimality-gap bound except when
    `lower_bound` is set, in which case only the inner minimization is
    certified and the outer maximization is heuristic.
    """

    value: float
    optimizer_local: LocalModel
    optimizer_inputs: InputDistribution | None
    gap_estimate: float
    iterations: int
    lower_bound: bool = False


# ---------------------------------------------------------------------------
# Inner problem: minimize the weighted divergence over vertex weights
# ---------------------------------------------------------------------------


@dataclass
class _InnerSolution:
    lam: np.ndarray
    q: np.ndarray
    value: float
    gap: float
    iterations: int
    kl_table: np.ndarray  # per-setting divergence at the optimizer, unclamped
    converged: bool


def _kl_table_from_q(P: np.ndarray, q: np.ndarray, n_settings: int) -> np.ndarray:
    """Per-setting KL(P || q) from flat tables, +inf on support mismatch."""
    return np.array([_kl_terms(Ps, qs) for Ps, qs in
                     zip(P.reshape(n_settings, -1), q.reshape(n_settings, -1))])


def _clamped(kl_table: np.ndarray) -> np.ndarray:
    """Per-setting divergences clipped to [0, CLAMP_BITS] (+inf maps to
    the ceiling), as fed to an outer model."""
    return np.clip(np.where(np.isfinite(kl_table), kl_table, CLAMP_BITS),
                   0.0, CLAMP_BITS)


def _exchange_step(
    cE: np.ndarray, qE: np.ndarray, d: np.ndarray, gamma_max: float
) -> tuple[float, int]:
    """Exact line search of a pairwise exchange: minimize the convex
    phi(g) = -sum cE log(qE + g d) over [0, gamma_max].

    Safeguarded Newton on phi' inside a sign bracket [lo, hi] with
    phi'(lo) < 0; a Newton step that leaves the bracket is replaced by
    bisection. It stops once |phi'| is 1e-12 of |phi'(0)| or the bracket
    is narrower than 1e-15 of gamma_max. phi' is +inf where a
    denominator is not positive, so the returned step keeps every entry
    of qE + g d positive unless it is the full step. When phi' is
    rounding noise before either test is met (a search that starts next
    to the minimizer with a small gamma_max), Newton steps can stall
    below the resolution of the denominators; LINE_SEARCH_EVALS bounds
    such a search.
    Returns (step, number of derivative evaluations).
    """

    def derivs(g: float) -> tuple[float, float]:
        denom = qE + g * d
        if denom.min() <= 0.0:
            return math.inf, math.nan
        r = d / denom
        cr = cE * r
        return -float(cr.sum()), float(cr @ r)

    d1, _ = derivs(gamma_max)
    if d1 <= 0.0:
        return gamma_max, 1
    lo, hi = 0.0, gamma_max
    g = 0.0
    d1, d2 = derivs(g)
    tol = 1e-12 * abs(d1)
    evals = 2
    while evals < LINE_SEARCH_EVALS:
        if abs(d1) <= tol:
            return g, evals
        if d1 < 0.0:
            lo = g
        else:
            hi = g
        if hi - lo <= 1e-15 * gamma_max:
            break
        step = g - d1 / d2 if d2 > 0.0 else math.nan
        g = step if lo < step < hi else 0.5 * (lo + hi)
        d1, d2 = derivs(g)
        evals += 1
    return lo, evals


def _fw_minimize(
    P: np.ndarray,
    V: np.ndarray,
    setting_weights: np.ndarray,
    *,
    gap_tol: float,
    lam0: np.ndarray | None = None,
) -> _InnerSolution:
    """Minimize sum_s w_s KL(P_s || (V.lam)_s) over the weight simplex.

    Steps are multiplicative (expectation-maximization form); every
    PAIRWISE_EVERY-th step a pairwise vertex exchange with exact line
    search prunes or revives vertices. Progress is certified by the
    Frank-Wolfe gap, whose linear subproblem is exact enumeration over
    the vertices.
    """
    n, dim = V.shape
    n_settings = setting_weights.size
    k = dim // n_settings
    c = np.repeat(setting_weights, k) * P
    active = c > 0.0
    cE = c[active]
    VE = V[:, active]
    mass = float(cE.sum())
    const = float(np.sum(cE * np.log2(P[active])))

    if lam0 is None:
        lam = np.full(n, 1.0 / n)
    else:
        # floor the warm start: multiplicative steps cannot revive an
        # exactly-zero coordinate on their own
        lam = np.clip(np.asarray(lam0, dtype=float), 0.0, None)
        lam = lam / lam.sum()
        lam = (1.0 - 1e-6) * lam + 1e-6 / n
    qE = lam @ VE

    gap = math.inf
    it = 0
    converged = False
    while it < MAX_INNER_ITER:
        it += 1
        # the floor only matters for entries whose target weight is
        # rounding dust; it keeps incremental cancellation from feeding
        # an exact zero into the ratio
        ratio = cE / np.maximum(qE, 1e-300)
        back = VE @ ratio  # also the (negated, scaled) vertex scores
        scores = -back / LN2
        fw = int(scores.argmin())
        gap = float(lam @ scores - scores[fw])
        if gap <= gap_tol:
            converged = True
            break
        if it % PAIRWISE_EVERY == 0:
            support = (lam > 1e-15).nonzero()[0]
            aw = int(support[scores[support].argmax()])
            if aw != fw:
                d = VE[fw] - VE[aw]
                gamma, _ = _exchange_step(cE, qE, d, float(lam[aw]))
                if gamma > 0.0:
                    lam[fw] += gamma
                    lam[aw] -= gamma
                    if lam[aw] < 1e-15:
                        lam[aw] = 0.0
                    qE = qE + gamma * d
                    continue
        lam = lam * back / mass
        lam = lam / lam.sum()
        qE = lam @ VE

    q = lam @ V
    value = const - float(np.sum(cE * np.log2(np.maximum(qE, 1e-300))))
    kl_table = _kl_table_from_q(P, q, n_settings)
    return _InnerSolution(lam, q, value, max(gap, 0.0), it, kl_table, converged)


def _result_from_lam(
    p: Behavior,
    lam: np.ndarray,
    inputs: InputDistribution | None,
    value: float,
    gap: float,
    iterations: int,
    lower_bound: bool = False,
) -> MonotoneResult:
    lam = np.clip(lam, 0.0, None)
    model = LocalModel(p.scenario, lam / lam.sum())
    return MonotoneResult(
        value=float(value),
        optimizer_local=model,
        optimizer_inputs=inputs,
        gap_estimate=float(gap),
        iterations=iterations,
        lower_bound=lower_bound,
    )


def s_u(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Divergence from the local set under the uniform input
    distribution: a single convex minimization, certified by the
    Frank-Wolfe gap."""
    sc = p.scenario
    V = local_vertex_matrix(sc)
    weights = np.full(sc.sA * sc.sB, 1.0 / (sc.sA * sc.sB))
    inner = _fw_minimize(p.flat(), V, weights, gap_tol=tol)
    if not inner.converged:
        raise NoConvergence(inner.iterations, inner.gap)
    return _result_from_lam(p, inner.lam, None, inner.value, inner.gap,
                            inner.iterations)


# ---------------------------------------------------------------------------
# Minimax: s_nl and s_c
# ---------------------------------------------------------------------------


class _DivergenceTables:
    """Per-setting divergences KL(P_s || (V.lam)_s) in bits, their
    gradients and their Hessians in the vertex weights, for fixed P and V
    with m settings. The support of P and each setting's column block of
    V are indexed once; `kls` then costs one mat-vec and one vectorized
    pass over the support, `grads` one mat-vec per setting and `hessian`
    one weighted Gram product per setting."""

    def __init__(self, P: np.ndarray, V: np.ndarray, m: int):
        k = V.shape[1] // m
        self.V = V
        self.shape = (m, k)
        positive = P > 0.0
        self.support = np.flatnonzero(positive)
        self.P_support = P[self.support]
        rows = positive.reshape(m, k)
        self.blocks = [V[:, s * k + np.flatnonzero(rows[s])] for s in range(m)]
        ends = np.cumsum(rows.sum(axis=1)).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + ends, ends)]

    def _q(self, lam: np.ndarray) -> np.ndarray:
        return np.maximum((lam @ self.V)[self.support], 1e-300)

    def kls(self, lam: np.ndarray) -> np.ndarray:
        # a row sum with zeros off the support equals the sum over each
        # setting's support bit for bit while a setting has fewer than 8
        # outcome pairs (numpy adds rows that short in order); at 8 or
        # more it can differ in the last digit. np.add.reduceat over the
        # support differs even on short rows, which moves the barrier's
        # path
        terms = np.zeros(self.V.shape[1])
        terms[self.support] = self.P_support * np.log2(self.P_support / self._q(lam))
        return terms.reshape(self.shape).sum(axis=1)

    def grads(self, lam: np.ndarray) -> np.ndarray:
        ratio = self.P_support / self._q(lam)
        return -np.array([B @ ratio[s] for B, s in zip(self.blocks, self.slices)]) / LN2

    def hessian(self, lam: np.ndarray, c: np.ndarray) -> np.ndarray:
        """sum_s c_s H_s, with H_s = V_s diag(P_s / q_s^2) V_s^T / ln 2
        the Hessian of setting s's divergence."""
        q = self._q(lam)
        curvature = self.P_support / (q * q)
        H = np.zeros((lam.size, lam.size))
        for c_s, B, s in zip(c, self.blocks, self.slices):
            H += c_s * ((B * curvature[s]) @ B.T)
        return H / LN2


#: Barrier parameter growth per centering stage.
BARRIER_GROWTH = 8.0

#: Newton steps allowed per centering stage.
CENTERING_STEPS = 50


def _barrier_epigraph(
    P: np.ndarray, V: np.ndarray, m: int, M: np.ndarray, lam0: np.ndarray,
    gap0: float, tol: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Log-barrier solve of the epigraph program min t s.t. every row
    value g_j of M @ (per-setting divergences) is <= t, lam >= 0,
    sum lam = 1: damped Newton centering of
    tau t - sum_j log(t - g_j) - sum_i log lam_i on the simplex, tau
    growing by BARRIER_GROWTH per stage from where the barrier's duality
    gap (k + n) / tau is about gap0 to where it is tol / 8. The lam block
    of each KKT system is scaled by diag(lam), so the barrier's own term
    is the identity however close lam comes to its bounds. This is the
    tiebreaker for degenerate optimal faces, where weighted-sum
    minimizers are not unique and plain exchanges stall.

    Returns the final weights and the central-path input weights
    D_j = 1 / (tau (t - g_j)), normalized, or None when a KKT system is
    singular or a step is not finite. Neither output is trusted: the
    caller re-evaluates the rows at the weights and runs its own inner
    minimization at D.
    """
    tables = _DivergenceTables(P, V, m)
    n, k = V.shape[0], M.shape[0]
    gap0 = min(gap0, 1.0)
    # mixing in uniform weights at the scale of the bracket's gap puts
    # every weight near where the first stage's central path has it
    lam = (1.0 - gap0) * np.clip(lam0, 0.0, None) + gap0 / n
    lam = lam / lam.sum()
    g = M @ tables.kls(lam)
    # the last stage sits exactly at the stopping gap; earlier stages
    # start one growth factor apart, from the bracket's gap
    tau_end = 8.0 * (k + n) / tol
    tau = tau_end
    while (k + n) / tau < gap0:
        tau /= BARRIER_GROWTH
    t = float(np.max(g)) + k / tau
    kkt = np.zeros((n + 2, n + 2))
    while True:
        for _ in range(CENTERING_STEPS):
            w = 1.0 / (t - g)
            w2 = w * w
            GL = (M @ tables.grads(lam)) * lam  # row gradients, scaled
            grad = np.concatenate([GL.T @ w - 1.0, [tau - w.sum(), 0.0]])
            kkt[:n, :n] = (lam[:, None] * tables.hessian(lam, M.T @ w) * lam
                           + (GL.T * w2) @ GL)
            kkt[:n, :n] += np.eye(n)
            kkt[:n, n] = kkt[n, :n] = -(GL.T @ w2)
            kkt[n, n] = w2.sum()
            kkt[:n, n + 1] = kkt[n + 1, :n] = lam
            try:
                step = np.linalg.solve(kkt, -grad)
            except np.linalg.LinAlgError:
                return None
            u, dt = step[:n], step[n]
            decrement = -float(grad[:n + 1] @ step[:n + 1])
            if not (np.all(np.isfinite(step)) and math.isfinite(decrement)):
                return None
            # only the last stage's multipliers are used, so earlier
            # stages stop well short of the quadratic phase's end
            if decrement <= (2e-9 if tau >= tau_end else 0.1):
                break
            # at most halve any weight, then backtrack on the barrier's
            # change, evaluated as a difference so that tau t does not
            # swamp it
            s = 1.0 if u.min() >= 0.0 else min(1.0, 0.5 / -float(u.min()))
            while s >= 1e-12:
                g_new = M @ tables.kls(lam * (1.0 + s * u))
                slack_ratio = (t + s * dt - g_new) * w
                if np.all(slack_ratio > 0.0):
                    change = (tau * s * dt - float(np.sum(np.log(slack_ratio)))
                              - float(np.sum(np.log1p(s * u))))
                    if change <= -0.25 * s * decrement:
                        break
                s *= 0.5
            else:
                # the barrier's change is rounding noise: this stage is
                # centered as far as the divergences resolve
                break
            lam, t, g = lam * (1.0 + s * u), t + s * dt, g_new
        if tau >= tau_end:
            break
        tau *= BARRIER_GROWTH
    D = 1.0 / (tau * (t - g))
    return lam / lam.sum(), D / D.sum()


class _MinimaxSolver:
    """Certified solver for min over vertex weights of the worst row value
    of M @ (per-setting divergences). Row j of the (k, sA*sB) matrix M is
    the setting-weight vector of input coordinate j; the default identity
    makes the rows the settings. Maintains a bracket [lower, upper]:
    lower bounds come from inner minimizations at fixed input weights d
    (setting weights d @ M), upper bounds from the worst row value of any
    vertex-weight iterate."""

    def __init__(self, p: Behavior, tol: float, M: np.ndarray | None = None):
        self.V = local_vertex_matrix(p.scenario)
        self.P = p.flat()
        self.m = p.scenario.sA * p.scenario.sB
        self.M = np.eye(self.m) if M is None else M
        self.k = self.M.shape[0]
        self.tol = tol
        self.n = self.V.shape[0]
        self.lower = 0.0
        self.upper = math.inf
        self.d_lower: np.ndarray | None = None  # input weights that set lower
        self.lam_best: np.ndarray | None = None
        self.rows_best: np.ndarray | None = None
        self.iterations = 0
        self.lam_warm: np.ndarray | None = None

    @property
    def gap(self) -> float:
        return self.upper - self.lower

    @property
    def closed(self) -> bool:
        return self.gap <= self.tol

    def rows(self, kl_table: np.ndarray) -> np.ndarray:
        """Row values M @ kl_table; +inf where a setting with positive
        weight has +inf divergence."""
        inf = np.isinf(kl_table)
        out = self.M @ np.where(inf, 0.0, kl_table)
        if inf.any():
            out[np.any(self.M[:, inf] > 0.0, axis=1)] = math.inf
        return out

    def observe_lam(self, lam: np.ndarray, rows: np.ndarray) -> None:
        u_here = float(np.max(rows))
        if u_here < self.upper:
            self.upper = u_here
            self.lam_best = lam
            self.rows_best = rows

    def solve_at(self, d: np.ndarray, gap_tol: float) -> tuple[float, np.ndarray]:
        """Inner minimization at input weights d; returns its value and
        the row values at its minimizer."""
        inner = _fw_minimize(self.P, self.V, d @ self.M, gap_tol=gap_tol,
                             lam0=self.lam_warm)
        self.iterations += inner.iterations
        self.lam_warm = inner.lam
        if self.d_lower is None or inner.value - inner.gap > self.lower:
            self.lower = max(self.lower, inner.value - inner.gap)
            self.d_lower = d
        rows = self.rows(inner.kl_table)
        self.observe_lam(inner.lam, rows)
        return inner.value, rows

    def polish(self) -> None:
        """One barrier solve of the epigraph program from the best weights
        so far. The exact row values at its weights bound the value from
        above; an inner minimization at its central-path input weights,
        warm-started there, bounds it from below."""
        lam0 = self.lam_best if self.lam_best is not None else np.full(
            self.n, 1.0 / self.n
        )
        polished = _barrier_epigraph(self.P, self.V, self.m, self.M, lam0,
                                     self.gap, self.tol)
        if polished is None:
            return
        lam, D = polished
        self.observe_lam(lam, self.rows(_kl_table_from_q(self.P, lam @ self.V, self.m)))
        if self.closed:
            return
        self.lam_warm = lam
        self.solve_at(D, self.tol / 8.0)

    def run(self, max_effort: int = 3) -> None:
        uniform = np.full(self.k, 1.0 / self.k)
        self.solve_at(uniform, self.tol / (2.0 * self.k))
        for _ in range(max_effort):
            if self.closed:
                return
            self.polish()
        if not self.closed:
            raise NoConvergence(self.iterations, float(self.gap))


class _AveragingSolver(_MinimaxSolver):
    """The same bracket, also keeping the running sum of every inner
    minimizer for the averaged-iterate upper bounds of
    `s_c_alternating`."""

    def __init__(self, p: Behavior, tol: float):
        super().__init__(p, tol)
        self.lam_sum = np.zeros(self.n)
        self.n_avg = 0

    def solve_at(self, d: np.ndarray, gap_tol: float) -> tuple[float, np.ndarray]:
        out = super().solve_at(d, gap_tol)
        self.lam_sum += self.lam_warm
        self.n_avg += 1
        return out


def _minimax_solve(p: Behavior, tol: float) -> _MinimaxSolver:
    solver = _MinimaxSolver(p, tol)
    solver.run()
    return solver


def _point_mass_result(p: Behavior, solver: _MinimaxSolver) -> MonotoneResult:
    """The closed bracket's result, reporting as optimizer input the
    point mass on the worst setting of the best vertex weights."""
    sc = p.scenario
    # np.argmax takes the first maximum: behavior_re's lexicographic tie-break
    arg = int(np.argmax(solver.rows_best))
    inputs = InputDistribution.point_mass(sc, arg // sc.sB, arg % sc.sB)
    return _result_from_lam(
        p, solver.lam_best, inputs, solver.upper, solver.gap, solver.iterations
    )


def s_nl(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Input-maximized divergence from the local set (the relative
    entropy of nonlocality), certified by the saddle-point bracket."""
    solver = _minimax_solve(p, tol)
    return _result_from_lam(
        p, solver.lam_best, None, solver.upper, solver.gap, solver.iterations
    )


def s_c(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Max-min statistical strength over unrestricted input
    distributions; equals `s_nl` by the minimax theorem. The reported
    optimizer input is the point mass on the final worst setting."""
    return _point_mass_result(p, _minimax_solve(p, tol))


def s_c_alternating(
    p: Behavior,
    tol: float = DEFAULT_TOL,
    *,
    max_outer: int = 60,
) -> MonotoneResult:
    """Direct alternating max-min evaluation of the unrestricted
    statistical strength.

    The input distribution ascends by line-searched steps toward the
    best-response point mass (the worst setting), fully re-minimizing
    over vertex weights at every probe; upper bounds also come from
    running averages of the minimizing weights. The exploration dynamics
    are deliberately different from the engine behind `s_nl` so the two
    routes cross-validate; only the bracket bookkeeping (inner solves,
    bounds, closure test) and the degenerate-face polisher, needed when
    weighted-sum minimizers are not unique, are shared between them.
    """
    solver = _AveragingSolver(p, tol)
    P, V, m = solver.P, solver.V, solver.m
    inner_tol = tol / (2.0 * m)
    D = np.full(m, 1.0 / m)
    _, rows = solver.solve_at(D, inner_tol)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    stalled = 0
    for _ in range(max_outer):
        if solver.closed:
            break
        # averaged-iterate upper candidate
        if solver.n_avg > 1:
            lam_avg = solver.lam_sum / solver.n_avg
            solver.observe_lam(lam_avg, _kl_table_from_q(P, lam_avg @ V, m))
            if solver.closed:
                break
        u_before, l_before = solver.upper, solver.lower
        best_response = np.zeros(m)
        best_response[int(np.argmax(_clamped(rows)))] = 1.0

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
        if solver.upper >= u_before - tol / 10.0 and \
           solver.lower <= l_before + tol / 10.0:
            stalled += 1
        else:
            stalled = 0
        if stalled >= 2:
            # degenerate optimal face: alternate exchanges cannot select
            # the equalizing minimizer, so polish and recover the inputs
            stalled = 0
            solver.polish()
            if solver.closed:
                break
            inner_tol = max(inner_tol / 8.0, 1e-13)

    if not solver.closed:
        raise NoConvergence(solver.iterations, float(solver.gap))
    return _point_mass_result(p, solver)


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
    the free party's input, certified by the same engine; a block whose
    bracket does not close, or a final re-solve at the best product that
    misses the gap, raises NoConvergence. `restarts` is a floor
    on the number of starts: the uniform product and all sA*sB
    point-mass products always run, and seeded random products fill up
    to `restarts`. The product set is nonconvex, so global optimality is not certified: the result reports
    the best value found, flagged as a lower bound; its gap_estimate
    certifies only the inner minimization.
    """
    sc = p.scenario
    V = local_vertex_matrix(sc)
    P = p.flat()
    rng = np.random.default_rng(seed)

    starts: list[tuple[np.ndarray, np.ndarray]] = [
        (np.full(sc.sA, 1.0 / sc.sA), np.full(sc.sB, 1.0 / sc.sB))
    ]
    for x in range(sc.sA):
        for y in range(sc.sB):
            dx = np.zeros(sc.sA)
            dy = np.zeros(sc.sB)
            dx[x] = 1.0
            dy[y] = 1.0
            starts.append((dx, dy))
    while len(starts) < max(restarts, 1):
        starts.append(
            (rng.dirichlet(np.ones(sc.sA)), rng.dirichlet(np.ones(sc.sB)))
        )

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
        solver = _MinimaxSolver(p, tol, M)
        solver.lam_warm = warm
        solver.run()
        iterations += solver.iterations
        return solver.d_lower, solver.lower, solver.lam_warm

    eye_A, eye_B = np.eye(sc.sA), np.eye(sc.sB)
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
    D = np.outer(dx, dy).reshape(-1)
    inner = _fw_minimize(P, V, D, gap_tol=tol, lam0=best_lam)
    iterations += inner.iterations
    if not inner.converged:
        raise NoConvergence(inner.iterations, inner.gap)
    inputs = InputDistribution.product(sc, dx, dy)
    return _result_from_lam(
        p, inner.lam, inputs, inner.value, inner.gap, iterations,
        lower_bound=True,
    )


QUANTIFIERS = {
    "snl": s_nl,
    "su": s_u,
    "suc": s_uc,
    "sc": s_c,
}


def evaluate_quantifier(name: str, p: Behavior, tol: float, **kwargs) -> MonotoneResult:
    if name not in QUANTIFIERS:
        raise SolverFailure(f"unknown quantifier {name!r}")
    if name == "suc":
        return s_uc(p, tol, **kwargs)
    return QUANTIFIERS[name](p, tol)


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
    raise SolverFailure(f"not a wiring: {type(w).__name__}")


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
    """Check f(mu p + (1-mu) p') <= mu f(p) + (1-mu) f(p') + slack."""
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
