"""Revised two-phase simplex for equality-form linear programs.

Solves  min c.x  s.t.  A x = b, x >= 0. The solver keeps an explicit
m x m basis inverse, updates it by one rank-1 step per pivot and
refactorizes it every REFACTOR_EVERY pivots. Reduced costs are priced
through the constraint matrix, so a pivot costs O(m^2) plus one pricing
pass, never a rewrite of an m x n tableau. Membership LPs have one row
per behavior entry and one column per deterministic vertex (145 rows
and 6561 columns at 4343), which is the shape this suits.

`A` is a dense array or a column source: an object with a `.shape`
(m, n), a `price(y)` that returns y @ A, a `column(j)` that returns
A[:, j] and a `columns(idx)` that returns A[:, idx]. A source lets a
caller price structured columns without forming A; dense arrays are
priced by y @ A in the same loop.

Bland's pivot rule is the default because it guarantees termination on
degenerate bases; Dantzig's rule is available so membership verdicts can
be re-derived with an independent pivot order.

Every verdict (optimal, unbounded, infeasible) and every returned x and
y is read on a fresh factorization of the final basis: a phase ends only
after a pricing pass on a refactorized inverse, so drift from the rank-1
updates cannot decide it. On infeasible instances the phase-1 dual
vector y is returned; it satisfies y.A <= 0 (componentwise over columns)
and y.b > 0, i.e. it is a Farkas certificate of infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange, SolverFailure

#: Reduced costs above -RC_TOL count as optimal.
RC_TOL = 1e-11

#: Pivot elements must exceed PIV_TOL in the ratio test.
PIV_TOL = 1e-10

#: The basis inverse is recomputed from scratch after this many pivots.
REFACTOR_EVERY = 100

PIVOT_RULES = ("bland", "dantzig")


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float
    dual: np.ndarray | None
    phase1_objective: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


class _DenseColumns:
    """The column-source view of a dense constraint matrix."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.shape = A.shape

    def price(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def column(self, j: int) -> np.ndarray:
        return self.A[:, j]

    def columns(self, idx) -> np.ndarray:
        return self.A[:, idx]


class _Basis:
    """The basis of one solve in the sign-flipped system diag(sign) A x =
    |b|, extended by m artificial identity columns n..n+m-1: the basic
    indices, their explicit inverse and the basic values."""

    def __init__(self, cols, sign: np.ndarray, b: np.ndarray):
        self.cols = cols
        self.sign = None if np.all(sign > 0) else sign  # None: no row flipped
        self.b = b
        self.m, self.n = cols.shape
        self.basis = np.arange(self.n, self.n + self.m)
        self.inv = np.eye(self.m)
        self.xB = b.copy()
        self.stale = 0  # pivots since the last factorization
        self._outer = np.empty((self.m, self.m))

    def column(self, j: int) -> np.ndarray:
        if j < self.n:
            a = self.cols.column(j)
            return a if self.sign is None else a * self.sign
        e = np.zeros(self.m)
        e[j - self.n] = 1.0
        return e

    def refactor(self) -> None:
        """Recompute the inverse from the basic columns. Artificial basic
        columns are unit vectors, so only the structural block is
        inverted: with S the structural basic columns, `free` the rows no
        basic artificial covers and `covered` the rows they do, B z = v
        gives z_S = S[free]^-1 v[free] and
        z_art = v[covered] - S[covered] z_S."""
        s = np.flatnonzero(self.basis < self.n)
        a = np.flatnonzero(self.basis >= self.n)
        covered = self.basis[a] - self.n
        free = np.ones(self.m, dtype=bool)
        free[covered] = False
        S = self.cols.columns(self.basis[s])
        if self.sign is not None:
            S = S * self.sign[:, None]
        try:
            S_inv = np.linalg.inv(S[free])
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("simplex basis became singular") from exc
        inv = np.zeros((self.m, self.m))
        inv[s[:, None], free] = S_inv
        inv[a[:, None], free] = -S[covered] @ S_inv
        inv[a, covered] = 1.0
        self.inv = inv
        self.xB = inv @ self.b
        self.stale = 0

    def duals(self, cost: np.ndarray) -> np.ndarray:
        """Simplex multipliers of the sign-flipped rows: c_B B^-1."""
        return cost[self.basis] @ self.inv

    def reduced_costs(self, cost: np.ndarray, pi: np.ndarray) -> np.ndarray:
        y = pi if self.sign is None else pi * self.sign
        d = np.empty(self.n + self.m)
        np.subtract(cost[: self.n], self.cols.price(y), out=d[: self.n])
        np.subtract(cost[self.n :], pi, out=d[self.n :])
        return d

    def pivot(self, r: int, j: int, alpha: np.ndarray) -> None:
        """Column j replaces basic row r; alpha = B^-1 a_j."""
        theta = self.xB[r] / alpha[r]
        self.xB -= theta * alpha
        self.xB[r] = theta
        row = self.inv[r] / alpha[r]
        # rank-1 update; np.dot into a preallocated buffer is about twice
        # as fast as np.outer at m ~ 150
        self.inv -= np.dot(alpha[:, None], row[None, :], out=self._outer)
        self.inv[r] = row
        self.basis[r] = j
        self.stale += 1
        if self.stale >= REFACTOR_EVERY:
            self.refactor()


def _choose_entering(d: np.ndarray, allowed: np.ndarray, pivot: str) -> int | None:
    improving = allowed & (d < -RC_TOL)
    if pivot == "bland":
        col = int(np.argmax(improving))  # the smallest improving index
    else:
        col = int(np.argmin(np.where(improving, d, np.inf)))
    return col if improving[col] else None


def _choose_leaving(
    alpha: np.ndarray, xB: np.ndarray, basis: np.ndarray, pivot: str
) -> int | None:
    rows = np.where(alpha > PIV_TOL)[0]
    if rows.size == 0:
        return None
    ratios = xB[rows] / alpha[rows]
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12]
    if pivot == "bland":
        # smallest basis-variable index among minimum-ratio rows
        return int(ties[np.argmin(basis[ties])])
    return int(ties[0])


def _iterate(
    B: _Basis,
    cost: np.ndarray,
    allowed: np.ndarray,
    pivot: str,
    max_iter: int,
    iterations: int,
    phase1: bool = False,
) -> tuple[str, int]:
    while True:
        d = B.reduced_costs(cost, B.duals(cost))
        col = _choose_entering(d, allowed, pivot)
        if col is None:
            if B.stale:
                # confirm optimality on a fresh factorization
                B.refactor()
                continue
            return "optimal", iterations
        alpha = B.inv @ B.column(col)
        row = _choose_leaving(alpha, B.xB, B.basis, pivot)
        if row is None:
            if B.stale:
                B.refactor()
                continue
            if phase1:
                # a ray cannot lower the phase-1 objective below zero, so
                # this column is numerical dust; bar it and move on
                allowed[col] = False
                continue
            return "unbounded", iterations
        B.pivot(row, col, alpha)
        iterations += 1
        if iterations > max_iter:
            raise SolverFailure(
                f"simplex exceeded {max_iter} pivots (rule={pivot})"
            )


def solve_lp(
    c: np.ndarray,
    A,
    b: np.ndarray,
    *,
    pivot: str = "bland",
    feas_tol: float = 1e-9,
    max_iter: int = 200000,
) -> LpResult:
    """Minimize c.x subject to A x = b, x >= 0.

    `A` is a dense (m, n) array or a column source (see the module
    docstring). Returns duals of the equality rows: the phase-2
    multipliers when optimal, the Farkas certificate when infeasible.
    """
    if pivot not in PIVOT_RULES:
        raise ParameterOutOfRange(f"unknown pivot rule {pivot!r}")
    cols = A if hasattr(A, "price") else _DenseColumns(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = cols.shape
    if b.shape != (m,) or c.shape != (n,):
        raise SolverFailure("inconsistent LP dimensions")

    sign = np.where(b < 0, -1.0, 1.0)
    B = _Basis(cols, sign, b * sign)

    # Phase 1: minimize the artificial total from the artificial basis.
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    allowed = np.ones(n + m, dtype=bool)
    _, iterations = _iterate(B, cost, allowed, pivot, max_iter, 0, phase1=True)
    z1 = float(B.xB[B.basis >= n].sum())
    if z1 > feas_tol:
        # Farkas dual of the sign-flipped system, mapped back.
        y = B.duals(cost) * sign
        return LpResult("infeasible", None, float("nan"), y, z1, iterations)

    # Drive artificials out of the basis where possible; rows that cannot
    # be pivoted are redundant and stay inert (their structural entries
    # are all ~0, so later ratio tests never pick them).
    for i in range(m):
        if B.basis[i] >= n:
            row = cols.price(B.inv[i] * sign)
            structural = np.where(np.abs(row) > PIV_TOL)[0]
            if structural.size:
                j = int(structural[0])
                B.pivot(i, j, B.inv @ B.column(j))

    # Phase 2: artificial columns keep cost zero but are barred from
    # entering.
    cost = np.concatenate([c, np.zeros(m)])
    allowed = np.concatenate([np.ones(n, dtype=bool), np.zeros(m, dtype=bool)])
    status, iterations = _iterate(B, cost, allowed, pivot, max_iter, iterations)
    if status == "unbounded":
        return LpResult("unbounded", None, float("-inf"), None, z1, iterations)

    x = np.zeros(n)
    structural = B.basis < n
    x[B.basis[structural]] = B.xB[structural]
    y = B.duals(cost) * sign
    return LpResult("optimal", x, float(cost[B.basis] @ B.xB), y, z1, iterations)


def lp_feasible(
    A,
    b: np.ndarray,
    *,
    pivot: str = "bland",
    feas_tol: float = 1e-9,
    max_iter: int = 200000,
) -> LpResult:
    """Phase-1 feasibility of {x >= 0 : A x = b} with a zero objective."""
    return solve_lp(np.zeros(A.shape[1]), A, b, pivot=pivot, feas_tol=feas_tol,
                    max_iter=max_iter)
