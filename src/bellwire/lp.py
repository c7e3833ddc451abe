"""Revised phase-1 simplex: feasibility of {x >= 0 : A x = b}.

Rows with b_i < 0 are sign-flipped, one artificial unit column is added
per row, and the simplex minimizes the artificial total, by default
from the artificial basis. The system is feasible when that total ends
at most feas_tol; x is then read off the exit basis. Otherwise the
phase-1 multipliers y, mapped back through the sign flip, satisfy
y.A <= 0 (componentwise over columns) and y.b > 0: a Farkas certificate
of infeasibility.

A caller may hand in a start basis instead: one column per row, where
n + i stands for artificial i, as a crash basis gives (Bixby, ORSA J.
Comput. 4, 1992; `geometry.Vertices.crash` builds one for the
membership LP). It is factorized before the first pivot and must be
primal feasible, each basic value at least -feas_tol (those in
[-feas_tol, 0) are clipped to 0). Phase 1 then runs from it as from
the artificial basis, and Bland's rule still terminates, as it does
from any feasible basis (Bland, Math. Oper. Res. 2, 1977). The
iteration count is the number of pivots from the start basis.

The solver keeps an explicit m x m basis inverse beside the basic
values, as one m x (m + 1) array [B^-1 | xB]: one rank-1 step per pivot
updates both, and the inverse is refactorized every REFACTOR_EVERY
pivots. The multipliers pi = c_B B^-1 are recomputed at every pivot. The
entering choice reads the priced vector y @ A itself, since in phase 1 a
structural column's reduced cost is -price and an artificial's is
1 - pi, and the ratio test is one pass over the positive entries of the
entering column. So a pivot costs O(m^2) plus one pricing pass and a few
dozen small NumPy operations, never a rewrite of an m x n tableau.
Membership LPs have one row per behavior entry and one column per
deterministic vertex (145 rows and 6561 columns at 4343), which is the
shape this suits. Over the benchmark's membership pool, with BLAS on one
thread, a pivot costs about 39 µs at 3333 (82 rows), 38-40 µs at 4242
(65), 41-49 µs at 5252 (101) and 61-68 µs at 4343 (145), the start and
exit factorizations included; at 4343, pricing the 6561 vertices and the
rank-1 update take half of it.

`A` is a dense array or a column source: an object with a `.shape`
(m, n), a `price(y)` that returns y @ A and a `columns(idx)` that
returns A[:, idx]; one entering column is `columns([j])[:, 0]`. A source
lets a caller price structured columns without forming A, as
`geometry.Vertices` does for the membership LP; dense arrays are priced
by y @ A in the same loop. A source may also carry `order`, a
permutation of range(n): the LP's column k is then the source's column
order[k], while `price` and `columns` keep the source's own order. x and
a start basis are in the LP's order.

Bland's pivot rule is the default because it guarantees termination on
degenerate bases; Dantzig's rule is available so membership verdicts can
be re-derived with an independent pivot order. Bland's guarantee holds
for any fixed order of the columns, so a caller may rank a source's
columns by its `order`: the smallest improving index is then the
best-ranked improving column. Phase 1 seeks it in blocks of growing
rank, reading only as many prices in ranked order as the blocks up to
the one that holds it, and Dantzig's rule breaks ties among equal
prices by rank; neither gathers all n prices into ranked order first.
`geometry.is_local` ranks the vertices by their fit to the behavior
this way.

The verdict, x and y are read on a fresh factorization of the exit
basis: the solve ends only after a pricing pass on a refactorized
inverse, so drift from the rank-1 updates cannot decide it. Nor can it
pick a pivot: in the ratio test, an element below 1e-6 of its column's
largest entry is re-read on a fresh factorization before it is accepted.
Artificials may stay basic at the exit, on redundant rows or where the
system is degenerate, with a total of at most feas_tol; x drops them.
Every fresh factorization in phase 1, that of the exit basis included,
is held to the same test as a start basis: a basic value below
-feas_tol raises `SolverFailure`. So a basis that drift led a ratio test to make
primal infeasible is reported within REFACTOR_EVERY pivots, by the LP,
not by a certificate check downstream, and Bland's rule never runs on
from it toward MAX_PIVOTS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behaviors import _float_array
from .errors import LengthMismatch, ParameterOutOfRange, SolverFailure

#: Reduced costs above -RC_TOL count as optimal.
RC_TOL = 1e-11

#: Pivot elements must exceed PIV_TOL in the ratio test.
PIV_TOL = 1e-10

#: The basis inverse is recomputed from scratch after this many pivots.
REFACTOR_EVERY = 100

#: A solve that needs more pivots than this raises `SolverFailure`.
MAX_PIVOTS = 200000

PIVOT_RULES = ("bland", "dantzig")


@dataclass(frozen=True)
class LpResult:
    status: str  # "feasible" | "infeasible"
    x: np.ndarray | None  # when feasible
    dual: np.ndarray | None  # the Farkas certificate, when infeasible
    phase1_objective: float
    iterations: int

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


class _DenseColumns:
    """The column-source view of a dense constraint matrix."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.shape = A.shape

    def price(self, y: np.ndarray) -> np.ndarray:
        return y @ self.A

    def columns(self, idx) -> np.ndarray:
        return self.A[:, idx]


class _Basis:
    """The basis of one solve in the sign-flipped system diag(sign) A x =
    |b|, extended by m artificial identity columns n..n+m-1: the basic
    indices, their explicit inverse and the basic values. The inverse and
    the values are the two blocks of one m x (m + 1) array [B^-1 | xB],
    so that one rank-1 update moves both. `order` is the source's, or
    None: LP column j < n is source column order[j]."""

    def __init__(self, cols, sign: np.ndarray, b: np.ndarray):
        self.cols = cols
        self.sign = None if np.all(sign > 0) else sign  # None: no row flipped
        self.b = b
        self.m, self.n = cols.shape
        self.order = getattr(cols, "order", None)
        self.rank = None
        if self.order is not None:
            self.rank = np.empty(self.n, dtype=np.intp)
            self.rank[self.order] = np.arange(self.n)
        self.basis = np.arange(self.n, self.n + self.m)
        self._aug = np.zeros((self.m, self.m + 1))
        self._outer = np.empty_like(self._aug)
        self.inv, self.xB = self._aug[:, :-1], self._aug[:, -1]
        self._aug.ravel()[:: self.m + 2] = 1.0  # the diagonal of the inverse block
        self.xB[:] = b
        self.stale = 0  # pivots since the last factorization
        # the phase-1 objective: the artificial total
        self.cost = np.concatenate([np.zeros(self.n), np.ones(self.m)])

    def source_columns(self, j):
        """The source's indices of LP columns j < n."""
        return j if self.order is None else self.order[j]

    def column(self, j: int) -> np.ndarray:
        if j < self.n:
            a = self.cols.columns([self.source_columns(j)])[:, 0]
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
        structural = self.basis < self.n
        s, a = structural.nonzero()[0], (~structural).nonzero()[0]
        covered = self.basis.take(a) - self.n
        free = np.ones(self.m, dtype=bool)
        free[covered] = False
        S = self.cols.columns(self.source_columns(self.basis.take(s)))
        if self.sign is not None:
            S = S * self.sign[:, None]
        try:
            S_inv = np.linalg.inv(S[free])
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("simplex basis is singular") from exc
        # the columns of B^-1 on the free rows, by row blocks; the covered
        # rows' columns are unit vectors
        X = np.empty((self.m, len(s)))
        X[s] = S_inv
        X[a] = -S[covered] @ S_inv
        self.inv.fill(0.0)
        self.inv[:, free] = X
        self.inv[a, covered] = 1.0
        np.matmul(self.inv, self.b, out=self.xB)
        self.stale = 0

    def require_feasible(self, feas_tol: float, error: type[Exception], what: str) -> None:
        """Raise `error` when a basic value is below -feas_tol, naming the
        lowest one and its column."""
        r = int(np.argmin(self.xB))
        if self.xB[r] < -feas_tol:
            raise error(f"{what} basis is primal infeasible: basic column {self.basis[r]} "
                        f"has value {self.xB[r]:.3g}, below -feas_tol = {-feas_tol:.3g}")

    def duals(self) -> np.ndarray:
        """Simplex multipliers of the sign-flipped rows: c_B B^-1."""
        return self.cost[self.basis] @ self.inv

    def pivot(self, r: int, j: int, alpha: np.ndarray) -> None:
        """Column j replaces basic row r; alpha = B^-1 a_j."""
        # row r of [B^-1 | xB] over alpha[r] ends in the step length theta
        # = xB[r] / alpha[r]; np.dot into a preallocated buffer is about
        # twice as fast as np.outer at m ~ 150
        row = self._aug[r] / alpha[r]
        self._aug -= np.dot(alpha[:, None], row[None, :], out=self._outer)
        self._aug[r] = row
        self.basis[r] = j
        self.stale += 1
        if self.stale >= REFACTOR_EVERY:
            self.refactor()


def _choose_entering(B: _Basis, pivot: str, barred: list[int]) -> int | None:
    """The entering column, or None when none outside `barred` improves.

    In phase 1 a structural column's reduced cost is 0 - price = -price
    and an artificial's is 1 - pi, so the choice reads the priced vector
    itself. Bland takes the least improving column, structural before
    artificial; Dantzig the most negative reduced cost, the least index
    among equals. Over a ranked source (`order`) the prices come in the
    source's order: Bland reads them by rank block by block, Dantzig
    maps its winner, the best-ranked among equal prices, to its rank."""
    pi = B.duals()
    price = B.cols.price(pi if B.sign is None else pi * B.sign)
    art = 1.0 - pi
    if barred:
        j = np.array(barred)
        price = price.copy()
        price[B.source_columns(j[j < B.n])] = -np.inf
        art[j[j >= B.n] - B.n] = np.inf
    if pivot == "bland":
        # the least improving rank, sought in blocks that end at ranks
        # m + 1, 4(m + 1), 16(m + 1), ...: it most often lies in the first
        lo, hi = 0, B.m + 1
        while lo < B.n:
            block = price[lo:hi] if B.order is None else price.take(B.order[lo:hi])
            improving = block > RC_TOL
            if improving.any():
                return lo + int(improving.argmax())
            lo, hi = hi, 4 * hi
        i = int((art < -RC_TOL).argmax())
        return B.n + i if art[i] < -RC_TOL else None
    i = int(art.argmin())
    if B.n:
        col = int(price.argmax())
        best = price[col]
        if best > RC_TOL and -best <= art[i]:
            if B.rank is None:
                return col
            # the best-ranked of the columns at the best price
            return int(B.rank.take((price == best).nonzero()[0]).min())
    return B.n + i if art[i] < -RC_TOL else None


def _choose_leaving(
    alpha: np.ndarray, xB: np.ndarray, basis: np.ndarray, pivot: str
) -> int | None:
    rows = (alpha > PIV_TOL).nonzero()[0]
    if rows.size == 0:
        return None
    ratios = xB.take(rows) / alpha.take(rows)
    ties = (ratios <= ratios.min() + 1e-12).nonzero()[0]
    if ties.size == 1 or pivot != "bland":
        return int(rows[ties[0]])
    # smallest basis-variable index among minimum-ratio rows
    ties = rows.take(ties)
    return int(ties[basis.take(ties).argmin()])


def _phase1(B: _Basis, pivot: str, feas_tol: float) -> int:
    """Minimize the artificial total from B; the number of pivots. Raises
    `SolverFailure` at a fresh factorization with a basic value below
    -feas_tol."""
    barred = []  # numerical dust: columns with no positive pivot element
    iterations = 0
    while True:
        if not B.stale:
            B.require_feasible(feas_tol, SolverFailure, "refactorized")
        col = _choose_entering(B, pivot, barred)
        if col is None:
            if B.stale:
                # confirm optimality on a fresh factorization
                B.refactor()
                continue
            return iterations
        alpha = B.inv @ B.column(col)
        row = _choose_leaving(alpha, B.xB, B.basis, pivot)
        if B.stale and (row is None or alpha[row] < 1e-6 * np.abs(alpha).max()):
            # no pivot, or one so small relative to its column that it may
            # be drift in the inverse alone (pivoting on it can make the
            # basis singular): re-read on a fresh factorization
            B.refactor()
            continue
        if row is None:
            # a ray cannot lower the artificial total below zero, so this
            # column is numerical dust; bar it and move on
            barred.append(col)
            continue
        B.pivot(row, col, alpha)
        iterations += 1
        if iterations > MAX_PIVOTS:
            raise SolverFailure(
                f"simplex exceeded {MAX_PIVOTS} pivots (rule={pivot})"
            )


def _start_columns(start, m: int, n: int) -> np.ndarray:
    basis = np.asarray(start)
    if basis.shape == (m,) and basis.dtype.kind in "iu":
        ordered = np.sort(basis)  # distinct: no two neighbors equal
        if not m or (0 <= ordered[0] and ordered[-1] < n + m
                     and np.all(ordered[1:] != ordered[:-1])):
            return basis.astype(np.intp)
    raise ParameterOutOfRange(
        f"a start basis needs {m} distinct integer columns in [0, {n + m})")


def solve_lp(A, b: np.ndarray, *, pivot: str = "bland", feas_tol: float = 1e-9,
             start=None) -> LpResult:
    """Feasibility of {x >= 0 : A x = b} by phase 1 of the simplex.

    `A` is a dense (m, n) array or a column source (see the module
    docstring). `start`, if given, is the basic column of every row
    (n + i for artificial i); phase 1 starts there instead of at the
    artificial basis. Feasible when the artificial total ends at most
    feas_tol, with x read off the exit basis; otherwise infeasible,
    with the Farkas dual y (y.A <= 0, y.b > 0) of the equality rows.
    `ParameterOutOfRange` when an argument is not numeric, the pivot
    rule is unknown, feas_tol is not positive and finite, or start is
    not m distinct columns or is primal infeasible; `LengthMismatch`
    when b does not have m entries; `SolverFailure` when start is
    singular or a fresh factorization in phase 1, the exit basis
    included, is primal infeasible.
    """
    if pivot not in PIVOT_RULES:
        raise ParameterOutOfRange(f"unknown pivot rule {pivot!r}")
    if not 0.0 < feas_tol < np.inf:
        raise ParameterOutOfRange(f"feas_tol must be positive and finite, got {feas_tol}")
    cols = A if hasattr(A, "price") else _DenseColumns(_float_array(A, "A"))
    b = _float_array(b, "b").reshape(-1)
    m, n = cols.shape
    if b.shape != (m,):
        raise LengthMismatch(f"LP dimensions disagree: A is {m} x {n} and b has "
                             f"{b.size} entries")

    sign = np.where(b < 0, -1.0, 1.0)
    B = _Basis(cols, sign, b * sign)
    if start is not None:
        B.basis = _start_columns(start, m, n)
        B.refactor()
        B.require_feasible(feas_tol, ParameterOutOfRange, "start")
        np.maximum(B.xB, 0.0, out=B.xB)
    iterations = _phase1(B, pivot, feas_tol)
    z1 = float(B.xB[B.basis >= n].sum())
    if z1 > feas_tol:
        # Farkas dual of the sign-flipped system, mapped back.
        return LpResult("infeasible", None, B.duals() * sign, z1, iterations)

    x = np.zeros(n)
    structural = B.basis < n
    x[B.basis[structural]] = B.xB[structural]
    return LpResult("feasible", x, None, z1, iterations)
