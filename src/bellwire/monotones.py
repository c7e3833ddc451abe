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

Each quantifier call builds the box's `_DivergenceTables` once: the
vertex matrix and the columns on the box's support, each with its
setting. The inner minimizations, the barrier and every engine instance
of the call read it; `s_uc`'s block solves and its final solve share one.

`s_nl` and `s_c` read the same deterministic solve, and the module keeps
`s_c`'s result of the most recent one: a call on the box and tol of the
previous `s_nl` or `s_c` call returns values built from that solve,
bit-identical to a fresh one, without solving again. Only that one
solve is kept. `s_c_alternating` and `s_uc` never read it.

The inner minimization over vertex weights uses multiplicative
(expectation-maximization form) steps, which keep full support and never
walk into the +inf boundary, interleaved with pairwise vertex exchanges;
its stopping certificate is the Frank-Wolfe gap, whose linear subproblem
is exact enumeration over the deterministic vertices. Iterates start at
the barycenter.

When an inner minimization at uniform input weights leaves a minimax
bracket open, the engine polishes by a log-barrier Newton solve of the
epigraph program (minimize t subject to every row's divergence being at
most t, over the vertex-weight simplex), whose central path also yields
input weights: the barrier's multipliers on the row constraints. The
barrier's outputs are never trusted as such: the exact worst-row
divergence at its vertex weights bounds the value from above, and an
inner minimization at its multipliers bounds it from below, so the
polish can only tighten the certified bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .behaviors import Behavior, InputDistribution
from .divergence import _kl_rows
from .errors import NoConvergence, ParameterOutOfRange, SolverFailure
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

MAX_INNER_ITER = 100000

#: Every PAIRWISE_EVERY-th inner step is a pairwise vertex exchange.
PAIRWISE_EVERY = 8

#: Cap on derivative evaluations in one exchange line search; a search
#: that reaches it returns the left end of its bracket.
LINE_SEARCH_EVALS = 64

#: Epigraph polishes `_MinimaxSolver.run` tries after its uniform start.
POLISH_ROUNDS = 3

#: Outer ascent steps of `s_c_alternating`.
ALTERNATING_STEPS = 60


@dataclass(frozen=True)
class MonotoneResult:
    """Solver output: the value in bits plus certificates.

    `value` is the upper end of a closed bracket, the exact worst-row
    divergence at `optimizer_local`, and `gap_estimate` its width. When
    `lower_bound` is set, the bracket certifies only the minimization
    over vertex weights; the outer maximization is heuristic.
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


class _DivergenceTables:
    """A box's data as the engine reads it, built once per quantifier
    call: its scenario, the vertex matrix V (n vertices) and P, with the
    columns of V on the support of P indexed once, each with its setting.
    Frank-Wolfe reads the support block at its setting weights, and
    every `_MinimaxSolver` on the box shares one instance.

    `kls` gives the per-setting divergences KL(P_s || (V.lam)_s) in bits:
    one mat-vec and one pass of `divergence._kl_rows`, so it is +inf for
    a setting where lam leaves a supported outcome uncovered.
    `derivatives` scales the support block by lam once and reads q, every
    setting's gradient (one product, summed per setting by the 0/1
    setting matrix) and the weighted Hessian (one Gram product) off it,
    with q floored at 1e-300 so that the gradients stay finite."""

    def __init__(self, p: Behavior):
        self.scenario = sc = p.scenario
        # the module-level name, which perfbench/tracing.py wraps
        self.V = V = local_vertex_matrix(sc)
        self.n = V.shape[0]
        P = p.flat()
        m = sc.sA * sc.sB
        k = V.shape[1] // m
        self.shape = (m, k)
        self.P_rows = P.reshape(m, k)
        support = np.flatnonzero(P > 0.0)
        self.P_support = P[support]
        self.VS = V[:, support]
        # each support column's setting, and the 0/1 matrix that sums
        # the columns of every setting
        self.setting = support // k
        self.groups = np.equal.outer(self.setting, np.arange(m)).astype(float)

    def kls(self, lam: np.ndarray) -> np.ndarray:
        return _kl_rows(self.P_rows, (lam @ self.V).reshape(self.shape))

    def derivatives(self, lam: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every setting's gradient and the Hessian of sum_s c_s times its
        divergence in the relative step u of lam -> lam (1 + u), at u = 0:
        row s of the first is lam * grad_s, the second diag(lam) H diag(lam)
        with H = sum_s c_s V_s diag(P_s / q_s^2) V_s^T / ln 2."""
        VL = self.VS * lam[:, None]
        q = np.maximum(np.add.reduce(VL, 0), 1e-300)
        ratio = self.P_support / q
        grads = ((VL * ratio) @ self.groups).T / -LN2
        w = c[self.setting] * (ratio / (q * LN2))
        return grads, (VL * w) @ VL.T


# ---------------------------------------------------------------------------
# Inner problem: minimize the weighted divergence over vertex weights
# ---------------------------------------------------------------------------


@dataclass
class _InnerSolution:
    lam: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool


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
    tables: _DivergenceTables,
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
    the vertices. Only the support columns of settings with positive
    weight enter.
    """
    n = tables.n
    c = setting_weights[tables.setting] * tables.P_support
    active = c > 0.0
    cE = c[active]
    VE = tables.VS[:, active]
    const = float(np.sum(cE * np.log2(tables.P_support[active])))

    if lam0 is None:
        lam = np.full(n, 1.0 / n)
    else:
        # floor the warm start: multiplicative steps cannot revive an
        # exactly-zero coordinate on their own
        lam = np.clip(np.asarray(lam0, dtype=float), 0.0, None)
        lam = lam / lam.sum()
        lam = (1.0 - 1e-6) * lam + 1e-6 / n
    qE = lam @ VE
    ratio = np.empty_like(qE)
    back = np.empty(n)

    gap = math.inf
    it = 0
    converged = False
    while it < MAX_INNER_ITER:
        it += 1
        # the floor only matters for entries whose target weight is
        # rounding dust; it keeps incremental cancellation from feeding
        # an exact zero into the ratio
        np.divide(cE, np.maximum(qE, 1e-300, out=ratio), out=ratio)
        # back is the vertex gradient, negated and scaled by ln 2
        np.dot(VE, ratio, back)
        fw = int(back.argmax())
        gap = float(back[fw] - np.dot(lam, back)) / LN2
        if gap <= gap_tol:
            converged = True
            break
        if it % PAIRWISE_EVERY == 0:
            support = (lam > 1e-15).nonzero()[0]
            aw = int(support[back[support].argmin()])
            if aw != fw:
                d = VE[fw] - VE[aw]
                gamma, _ = _exchange_step(cE, qE, d, float(lam[aw]))
                if gamma > 0.0:
                    lam[fw] += gamma
                    lam[aw] -= gamma
                    if lam[aw] < 1e-15:
                        lam[aw] = 0.0
                    qE += gamma * d
                    continue
        lam *= back
        lam /= np.add.reduce(lam)
        np.dot(lam, VE, qE)

    value = const - float(np.sum(cE * np.log2(np.maximum(qE, 1e-300))))
    return _InnerSolution(lam, value, max(gap, 0.0), it, converged)


# ---------------------------------------------------------------------------
# The minimax engine
# ---------------------------------------------------------------------------


#: Barrier parameter growth per centering stage.
BARRIER_GROWTH = 8.0

#: Newton steps allowed per centering stage.
CENTERING_STEPS = 50


def _barrier_epigraph(
    tables: _DivergenceTables, M: np.ndarray, lam0: np.ndarray,
    gap0: float, tol: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Log-barrier solve of the epigraph program min t s.t. every row
    value g_j of M @ tables.kls(lam) is <= t, lam >= 0,
    sum lam = 1: damped Newton centering of
    tau t - sum_j log(t - g_j) - sum_i log lam_i on the simplex, tau
    growing by BARRIER_GROWTH per stage from where the barrier's duality
    gap (k + n) / tau is about gap0 to where it is tol / 8. The lam block
    of each KKT system is in the relative step u of lam -> lam (1 + u),
    the diag(lam) scaling that `tables.derivatives` returns, so the
    barrier's own term is the identity however close lam comes to its
    bounds. This is the tiebreaker for degenerate optimal faces, where
    weighted-sum minimizers are not unique and plain exchanges stall.

    Returns the final weights and the central-path input weights
    D_j = 1 / (tau (t - g_j)), normalized, or None when a KKT system is
    singular or a step is not finite. Neither output is trusted: the
    caller re-evaluates the rows at the weights and runs its own inner
    minimization at D.
    """
    n, k = lam0.size, M.shape[0]
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
    block, diagonal = kkt[:n, :n], kkt.reshape(-1)[:n * (n + 3):n + 3]
    while True:
        for _ in range(CENTERING_STEPS):
            w = 1.0 / (t - g)
            w2 = w * w
            grads, H = tables.derivatives(lam, M.T @ w)
            GL = M @ grads  # row gradients, scaled
            grad = np.concatenate([GL.T @ w - 1.0, [tau - w.sum(), 0.0]])
            np.add(H, (GL.T * w2) @ GL, out=block)
            diagonal += 1.0
            kkt[:n, n] = kkt[n, :n] = -(w2 @ GL)
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
    vertex-weight iterate. `result` reports the closed bracket. The
    box's tables are built by the caller and may be shared by several
    solvers; `lam_warm` starts the first inner minimization."""

    def __init__(
        self, tables: _DivergenceTables, tol: float, M: np.ndarray | None = None,
        lam_warm: np.ndarray | None = None,
    ):
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
        return self.upper - self.lower

    @property
    def closed(self) -> bool:
        return self.gap <= self.tol

    def rows(self, lam: np.ndarray) -> np.ndarray:
        """Row values M @ (per-setting divergences at lam); +inf where a
        setting with positive weight has a supported outcome that lam
        leaves uncovered."""
        kl_table = self.tables.kls(lam)
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

    def solve_at(self, d: np.ndarray, gap_tol: float) -> tuple[float, np.ndarray]:
        """Inner minimization at input weights d; returns its value and
        the row values at its minimizer."""
        inner = _fw_minimize(self.tables, d @ self.M, gap_tol=gap_tol,
                             lam0=self.lam_warm)
        self.iterations += inner.iterations
        self.lam_warm = inner.lam
        if self.d_lower is None or inner.value - inner.gap > self.lower:
            self.lower = max(self.lower, inner.value - inner.gap)
            self.d_lower = d
        rows = self.rows(inner.lam)
        self.observe_lam(inner.lam, rows)
        return inner.value, rows

    def polish(self) -> None:
        """One barrier solve of the epigraph program from the best weights
        so far. The exact row values at its weights bound the value from
        above; an inner minimization at its central-path input weights,
        warm-started there, bounds it from below."""
        n = self.tables.n
        lam0 = self.lam_best if self.lam_best is not None else np.full(n, 1.0 / n)
        polished = _barrier_epigraph(self.tables, self.M, lam0, self.gap, self.tol)
        if polished is None:
            return
        lam, D = polished
        self.observe_lam(lam, self.rows(lam))
        if self.closed:
            return
        self.lam_warm = lam
        self.solve_at(D, self.tol / 8.0)

    def run(self) -> None:
        uniform = np.full(self.k, 1.0 / self.k)
        self.solve_at(uniform, self.tol / (2.0 * self.k))
        for _ in range(POLISH_ROUNDS):
            if self.closed:
                return
            self.polish()
        if not self.closed:
            raise NoConvergence(self.iterations, float(self.gap))

    def result(
        self, inputs: InputDistribution | None, lower_bound: bool = False
    ) -> MonotoneResult:
        """The closed bracket as a result: its upper end, the weights that
        set it and its width. Raises NoConvergence while it is open."""
        if not self.closed:
            raise NoConvergence(self.iterations, float(self.gap))
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
    lower end is the minimizer's value less its Frank-Wolfe gap."""
    m = p.scenario.sA * p.scenario.sB
    solver = _MinimaxSolver(_DivergenceTables(p), tol, np.full((1, m), 1.0 / m))
    solver.solve_at(np.ones(1), tol)
    return solver.result(None)


#: ((scenario key, table bytes, tol), `s_c`'s result) of the most recent
#: successful `_minimax_solve`. It holds one solve only, so just a repeat
#: call on the same box and tol (`s_c` then `s_nl`, say) reuses it.
_last_solve: tuple[tuple, MonotoneResult] | None = None


def _minimax_solve(p: Behavior, tol: float) -> MonotoneResult:
    """`s_c`'s result for the saddle problem of `s_nl` and `s_c` at p and
    tol. The solve is deterministic, so a call on the box and tol of the
    previous one returns that solve's result, whose arrays are
    read-only: exactly what a fresh solve returns. A solve that raises
    leaves no result behind."""
    global _last_solve
    key = (p.scenario.key(), p.p.tobytes(), tol)
    last = _last_solve  # one read: the pair is replaced, never edited
    if last is not None and last[0] == key:
        return last[1]
    _last_solve = None
    solver = _MinimaxSolver(_DivergenceTables(p), tol)
    solver.run()
    result = _maximin_result(solver)
    _last_solve = key, result
    return result


def _maximin_result(solver: _MinimaxSolver) -> MonotoneResult:
    """The closed bracket's result, reporting as optimizer input the
    input weights `d_lower` whose certified inner minimum set the lower
    bound: the minimum over vertex weights at them is at least
    value - gap_estimate."""
    return solver.result(InputDistribution.general(solver.tables.scenario, solver.d_lower))


def s_nl(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Input-maximized divergence from the local set (the relative
    entropy of nonlocality), certified by the saddle-point bracket. A
    call on the box and tol of the last `s_nl` or `s_c` call reuses that
    call's solve."""
    return replace(_minimax_solve(p, tol), optimizer_inputs=None)


def s_c(p: Behavior, tol: float = DEFAULT_TOL) -> MonotoneResult:
    """Max-min statistical strength over unrestricted input
    distributions; equals `s_nl` by the minimax theorem. The reported
    optimizer input is a maximin input distribution: an inner
    minimization at it certifies at least value - gap_estimate. A call
    on the box and tol of the last `s_nl` or `s_c` call reuses that
    call's solve."""
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
    solver = _MinimaxSolver(_DivergenceTables(p), tol)
    m = solver.k
    inner_tol = tol / (2.0 * m)
    D = np.full(m, 1.0 / m)
    _, rows = solver.solve_at(D, inner_tol)
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
    products always run, and seeded random products fill up to
    `restarts`. The product set is nonconvex, so global optimality is
    not certified: the result reports the exact divergence at the best
    product, flagged as a lower bound; its gap_estimate is the width of
    the final bracket, which certifies only the inner minimization.
    """
    sc = p.scenario
    rng = np.random.default_rng(seed)

    eye_A, eye_B = np.eye(sc.sA), np.eye(sc.sB)
    starts = [(np.full(sc.sA, 1.0 / sc.sA), np.full(sc.sB, 1.0 / sc.sB))]
    starts += [(eye_A[x], eye_B[y]) for x in range(sc.sA) for y in range(sc.sB)]
    while len(starts) < max(restarts, 1):
        starts.append(
            (rng.dirichlet(np.ones(sc.sA)), rng.dirichlet(np.ones(sc.sB)))
        )

    tables = _DivergenceTables(p)
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
