"""Polytope membership machinery for bipartite behaviors.

The local set is the convex hull of deterministic strategy pairs.
Membership is decided by LP feasibility over the explicit vertex list,
which the LP sees ranked from best to worst fit to the behavior (vertex
v scores v . p), so that Bland's smallest improving index is the
best-fitting improving vertex, and starts from a greedy crash basis; a
local model's weights are mapped back to the canonical vertex order.
Both possible answers come with certificates that re-verify without
trusting the solver: a `LocalModel` (convex weights that reconstruct the
behavior, checked against the dense vertex matrix) or a
`BellCertificate` (a separating functional whose value on the behavior
exceeds its exhaustive maximum over all vertices, re-checked by best
response).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import lp
from .behaviors import (
    Behavior,
    Scenario,
    _flat_table,
    _float_array,
    _index,
    _random_stochastic,
    _require_same_scenario,
    _stochastic,
)
from .errors import LengthMismatch, ParameterOutOfRange, SolverFailure

ALICE = "alice"
BOB = "bob"


@dataclass(frozen=True)
class DeterministicStrategy:
    """One party's deterministic response: an outcome for every setting."""

    party: str
    outcomes: tuple[int, ...]

    def __post_init__(self):
        if self.party not in (ALICE, BOB):
            raise ParameterOutOfRange(f"party must be alice or bob, got {self.party!r}")
        object.__setattr__(self, "outcomes", tuple(int(o) for o in self.outcomes))


def _strategy_outcomes(index: int, settings: int, outcomes: int) -> tuple[int, ...]:
    # lexicographic: the setting-0 response is the most significant digit
    index = _index(index, outcomes**settings, "strategy index")
    return tuple(int(d) for d in np.unravel_index(index, (outcomes,) * settings))


def alice_strategy(scenario: Scenario, index: int) -> DeterministicStrategy:
    return DeterministicStrategy(ALICE, _strategy_outcomes(index, scenario.sA, scenario.rA))


def bob_strategy(scenario: Scenario, index: int) -> DeterministicStrategy:
    return DeterministicStrategy(BOB, _strategy_outcomes(index, scenario.sB, scenario.rB))


class Vertices:
    """A scenario's deterministic vertices, read through each party's
    strategy digits: `alice[s, x]` is the outcome of Alice's strategy s
    at setting x (in `alice_strategy` order), `bob` likewise, and vertex
    (alpha, beta) has index alpha * nB + beta. `Vertices.of` keeps one
    instance per scenario. It serves

    * `dense`, the read-only (n, sA*sB*rA*rB) 0/1 vertex matrix V, built
      on first use and column-major: every reader, the quantifier engine
      included, reads this one copy in place;
    * the membership constraints [V^T; 1] as an `lp` column source
      (`shape`, `price`, `columns`). A dual y prices every vertex at once
      by the factorized product (VA @ Y) @ VB^T of the one-hot response
      tables, so V is never multiplied;
    * `best(c)`, the exhaustive maximum of a functional over all
      vertices, max_alpha sum_y max_b sum_x c[x, y, alpha(x), b]: c
      gathered at Alice's digits, Bob's best response in closed form.
      It shares nothing with `price`, so it re-checks a certificate
      bound independently of the LP;
    * `crash(b, order)`, a feasible start basis for the membership LP.
    """

    def __init__(self, scenario: Scenario):
        sA, sB, rA, rB = self.table_shape = scenario.shape
        self.alice = np.stack(np.unravel_index(np.arange(rA**sA), (rA,) * sA), axis=1)
        self.bob = np.stack(np.unravel_index(np.arange(rB**sB), (rB,) * sB), axis=1)
        self.alice.flags.writeable = self.bob.flags.writeable = False  # shared by `of`
        nA, self.nB = len(self.alice), len(self.bob)
        self.shape = (scenario.table_size + 1, nA * self.nB)
        # VA[s, (x, a)] = [alice[s, x] == a] and VBt[(y, b), t] = [bob[t, y] == b]
        self._VA = (self.alice[:, :, None] == np.arange(rA)).reshape(nA, -1).astype(float)
        self._VBt = (self.bob[:, :, None] == np.arange(rB)).reshape(self.nB, -1).T.astype(
            float, order="C")
        # y[perm] reorders a flat (x, y, a, b) dual to (x, a, y, b)
        self._perm = np.arange(scenario.table_size).reshape(scenario.shape).transpose(
            0, 2, 1, 3).ravel()
        # column (alpha, beta) has its unit entries at the rows
        # rowA[alpha] + rowB[beta]: one per setting pair (x, y), then the
        # normalization row
        xy = np.arange(sA * sB)
        self._rowA = np.column_stack([(xy * rA + self.alice[:, xy // sB]) * rB,
                                      np.full(nA, scenario.table_size)])
        self._rowB = np.column_stack([self.bob[:, xy % sB], np.zeros(self.nB, dtype=int)])

    @staticmethod
    @lru_cache(maxsize=32)
    def of(scenario: Scenario) -> Vertices:
        return Vertices(scenario)

    @cached_property
    def dense(self) -> np.ndarray:
        sA, sB, rA, rB = self.table_shape
        # written in place, no transient copy, as V^T: V is its column-major
        # view, whose columns are the contiguous runs the engine reads
        Vt = np.empty(self.table_shape + (len(self.alice), self.nB))
        np.einsum("sxa,ybt->xyabst", self._VA.reshape(-1, sA, rA),
                  self._VBt.reshape(sB, rB, -1), out=Vt)
        V = Vt.reshape(-1, self.shape[1]).T
        V.flags.writeable = False
        return V

    def price(self, y: np.ndarray) -> np.ndarray:
        Y = y[self._perm].reshape(self._VA.shape[1], self._VBt.shape[0])
        return ((self._VA @ Y) @ self._VBt).reshape(-1) + y[-1]

    def columns(self, idx) -> np.ndarray:
        if len(idx) == 1:
            # the simplex's entering column, once per pivot: the fancy
            # gathers below would double its cost
            alpha, beta = divmod(int(idx[0]), self.nB)
            out = np.zeros(self.shape[0])
            out[self._rowA[alpha] + self._rowB[beta]] = 1.0
            return out[:, None]
        idx = np.asarray(idx)
        out = np.zeros((self.shape[0], len(idx)))
        out[self._rowA[idx // self.nB] + self._rowB[idx % self.nB],
            np.arange(len(idx))[:, None]] = 1.0
        return out

    def crash(self, b: np.ndarray, order: np.ndarray) -> np.ndarray:
        """A primal-feasible, triangular start basis for [V^T; 1] w = b,
        b >= 0, with column k the vertex order[k]: a greedy peel of b
        (Bixby's crash, ORSA J. Comput. 4, 1992). A vertex's capacity is
        the least residual on its support, the largest weight it can
        take. The vertex of largest capacity takes it (ties go to the
        least k), its support is reduced by it, and the artificial of
        its tightest row, now exactly 0, leaves the basis. This repeats
        until no capacity exceeds 1e-12, so at most m vertices enter.
        A later vertex has positive capacity, so it is zero on every
        earlier leaving row: the structural block is triangular with a
        unit diagonal, and the basic values are the capacities and the
        residuals, all >= 0. The result is the basic column of every
        row, n + i for artificial i, as `lp.solve_lp`'s `start` takes it.
        """
        m, n = self.shape
        start = np.arange(n, n + m)
        residual = np.array(b, dtype=float)
        alice_rows, bob_cols = self._capacity_index
        while True:
            # T[alpha, (y, b)] = min_x residual[x, y, alpha(x), b], and the
            # capacity of (alpha, beta) is min_y T[alpha, (y, beta(y))] and
            # the normalization row's residual, read in LP column order
            T = residual.take(alice_rows).min(axis=1)
            capacity = np.minimum(T[:, bob_cols].min(axis=1).reshape(-1),
                                  residual[-1]).take(order)
            k = int(capacity.argmax())  # the first, best-ranked, of the ties
            c = capacity[k]
            if c <= 1e-12:
                return start
            v = order[k]
            rows = self._rowA[v // self.nB] + self._rowB[v % self.nB]
            start[rows[np.argmin(residual[rows])]] = k
            residual[rows] -= c

    @cached_property
    def _capacity_index(self) -> tuple[np.ndarray, np.ndarray]:
        """`crash`'s gathers: the flat row (x, y, alice[alpha, x], b) at
        [alpha, x, (y, b)], and the column (y, bob[beta, y]) of a
        (y, b)-indexed row at [y, beta]."""
        sA, sB, rA, rB = self.table_shape
        x, y_b = np.arange(sA)[:, None], np.arange(sB * rB)
        alice_rows = (x * sB * rA + self.alice[:, :, None] + y_b // rB * rA) * rB + y_b % rB
        bob_cols = np.arange(sB)[:, None] * rB + self.bob.T
        alice_rows.flags.writeable = bob_cols.flags.writeable = False  # shared by `of`
        return alice_rows, bob_cols

    def best(self, c) -> float:
        c = np.asarray(c, dtype=float).reshape(self.table_shape)
        # G[alpha, y, b] = sum_x c[x, y, alpha(x), b]
        G = c[np.arange(len(c)), :, self.alice, :].sum(axis=1)
        return float(G.max(axis=2).sum(axis=1).max())


class _Ranked:
    """`Vertices` as an `lp` column source whose column k is vertex
    `order[k]`."""

    def __init__(self, vertices: Vertices, order: np.ndarray):
        self.vertices, self.order = vertices, order
        self.shape = vertices.shape

    def price(self, y: np.ndarray) -> np.ndarray:
        return self.vertices.price(y)[self.order]

    def columns(self, idx) -> np.ndarray:
        return self.vertices.columns(self.order[idx])


def local_vertex_matrix(scenario: Scenario) -> np.ndarray:
    """All deterministic vertex behaviors as rows of an (n, sA*sB*rA*rB)
    0/1 matrix, in canonical lexicographic order (Alice-major): the
    scenario's shared, read-only, column-major `Vertices.dense`."""
    return Vertices.of(scenario).dense


def enumerate_local_vertices(scenario: Scenario) -> list[Behavior]:
    """The rA^sA * rB^sB deterministic behaviors, canonically ordered."""
    V = local_vertex_matrix(scenario)
    return [Behavior(scenario, row.reshape(scenario.shape)) for row in V]


@dataclass(frozen=True)
class LocalModel:
    """Convex weights over deterministic strategy pairs: a constructive
    membership certificate. Weights are indexed in the canonical vertex
    order (alice_index * n_bob_strategies + bob_index)."""

    scenario: Scenario
    weights: np.ndarray

    def __post_init__(self):
        name = "local-model weights"
        object.__setattr__(self, "weights", _stochastic(
            _float_array(self.weights, name).reshape(-1),
            (self.scenario.vertex_count,), 1, name, atol=1e-9,
        ))

    def reconstruct(self) -> Behavior:
        table = (self.weights @ local_vertex_matrix(self.scenario)).reshape(
            self.scenario.shape
        )
        # weights may sum to 1 +- 1e-9; rescale per setting so the
        # validated container accepts the table
        sums = table.sum(axis=(2, 3), keepdims=True)
        return Behavior(self.scenario, table / sums)

    def matches(self, p: Behavior, tol: float = 1e-8) -> bool:
        _require_same_scenario(p.scenario, self.scenario, "behavior scenario")
        flat = self.weights @ local_vertex_matrix(self.scenario)
        return bool(np.max(np.abs(flat - p.flat())) <= tol)

    def sparse_pairs(self, threshold: float = 0.0) -> list[tuple[int, int, float]]:
        idx = np.flatnonzero(self.weights > threshold)
        alice, bob = np.divmod(idx, self.scenario.n_bob_strategies)
        return list(zip(alice.tolist(), bob.tolist(), self.weights[idx].tolist()))


@dataclass(frozen=True)
class BellCertificate:
    """A separating functional proving non-membership in the local set.

    `local_bound` always equals the exhaustive maximum of the functional
    over all deterministic vertices (recomputed at construction by
    `Vertices.best`), and the behavior value must exceed it by more than
    1e-9.
    """

    scenario: Scenario
    coefficients: np.ndarray
    local_bound: float
    value_on_behavior: float

    def __post_init__(self):
        for name in ("local_bound", "value_on_behavior"):
            object.__setattr__(self, name, float(_flat_table(getattr(self, name), (), name)))
        coeff = _float_array(self.coefficients, "certificate coefficients")
        if coeff.shape != self.scenario.shape:
            raise LengthMismatch("certificate coefficients must match the scenario")
        exhaustive = Vertices.of(self.scenario).best(coeff)
        if not abs(exhaustive - self.local_bound) <= 1e-9:  # NaN fails too
            raise SolverFailure(
                f"certificate bound {self.local_bound} disagrees with exhaustive "
                f"vertex maximum {exhaustive}"
            )
        if not self.value_on_behavior > self.local_bound + 1e-9:
            raise SolverFailure(
                "certificate does not separate: value "
                f"{self.value_on_behavior} vs bound {self.local_bound}"
            )
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)

    def value_on(self, p: Behavior) -> float:
        _require_same_scenario(p.scenario, self.scenario, "behavior scenario")
        return float(self.coefficients.reshape(-1) @ p.flat())


@dataclass(frozen=True)
class NoSignalingReport:
    """Outcome of a no-signaling check with the worst residual located."""

    ok: bool
    max_residual: float
    worst: tuple[str, int, int, int, int] | None  # (party, setting, outcome, y, y')

    def __bool__(self) -> bool:
        return self.ok


def marginal_residual(table: np.ndarray) -> tuple[float, tuple[str, int, int, int, int] | None]:
    """Largest pairwise no-signaling residual of a raw (sA, sB, rA, rB)
    table, with the indices where it occurs."""
    mA = table.sum(axis=3)  # (sA, sB, rA)
    mB = table.sum(axis=2)  # (sA, sB, rB)
    worst: tuple[str, int, int, int, int] | None = None
    max_res = 0.0
    if table.shape[1] > 1:
        diff = np.abs(mA[:, :, None, :] - mA[:, None, :, :])  # (sA, y, y', rA)
        idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[idx] > max_res:
            max_res = float(diff[idx])
            worst = ("alice", int(idx[0]), int(idx[3]), int(idx[2]), int(idx[1]))
    if table.shape[0] > 1:
        diff = np.abs(mB[:, None, :, :] - mB[None, :, :, :])  # (x, x', sB, rB)
        idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[idx] > max_res:
            max_res = float(diff[idx])
            worst = ("bob", int(idx[2]), int(idx[3]), int(idx[1]), int(idx[0]))
    return max_res, worst


def is_no_signaling(p: Behavior, tol: float = 1e-9) -> NoSignalingReport:
    """Check the marginal-equality constraints.

    Alice's outcome distribution at a given x must not depend on y, and
    symmetrically for Bob. The report carries the largest violation and
    the indices where it occurs.
    """
    max_res, worst = marginal_residual(p.p)
    return NoSignalingReport(max_res <= tol, max_res, worst)


@dataclass(frozen=True)
class MembershipResult:
    """Verdict of a local-polytope membership query with its certificate.
    `lp_iterations` counts the simplex pivots from the crash basis; the
    vertices the crash itself placed are not counted."""

    is_local: bool
    model: LocalModel | None
    certificate: BellCertificate | None
    lp_iterations: int


def is_local(p: Behavior, tol: float = 1e-8, pivot: str = "bland") -> MembershipResult:
    """Decide membership of `p` in the local polytope.

    Feasibility of {weights >= 0, sum = 1, V.weights = p} is decided by
    phase 1 of the in-repo revised simplex (`lp.solve_lp`): a feasible
    exit basis gives the weights, an infeasible one the Farkas dual that
    becomes the Bell functional. The simplex reads the constraints through
    `Vertices`: vertices are priced by the factorized best-response
    product and built one column at a time, so the LP never forms
    [V^T; 1]. The LP sees the vertices ranked once per call, from best
    to worst fit: vertex v scores v . p, the summed probability p gives
    to v's outcomes, and ties keep the canonical order. Under Bland's
    rule the smallest improving index is then the best-fitting improving
    vertex, and the rule still terminates, as it does under any fixed
    column order. Phase 1 starts from `Vertices.crash`, a feasible
    triangular basis peeled greedily off (p, 1): the vertex that can take
    the largest weight enters first, ties going to the best-fitting one.
    The LP's weights are scattered back to the canonical vertex order
    before the `LocalModel` is built; the Farkas dual is per row and
    needs no mapping. Either certificate is re-verified
    independently of the solver before being returned: a local model
    against the dense vertex matrix, a Bell certificate's bound by
    `Vertices.best`. tol is the LP's feasibility tolerance; `solve_lp`
    refuses one that is not positive and finite.
    """
    vertices = Vertices.of(p.scenario)
    b = np.concatenate([p.flat(), [1.0]])
    order = np.argsort(-vertices.price(np.concatenate([p.flat(), [0.0]])), kind="stable")
    # by keyword: perfbench/tracing.py wraps lp.solve_lp and reads A from
    # the `A` keyword, else from the second positional argument, which a
    # positional (A, b) call would fill with b
    res = lp.solve_lp(A=_Ranked(vertices, order), b=b, pivot=pivot, feas_tol=tol,
                      start=vertices.crash(b, order))
    if res.feasible:
        w = np.empty_like(res.x)
        w[order] = np.clip(res.x, 0.0, None)
        w = w / w.sum()
        model = LocalModel(p.scenario, w)
        if not model.matches(p, tol=max(tol, 1e-8)):
            raise SolverFailure("local model failed reconstruction re-verification")
        return MembershipResult(True, model, None, res.iterations)

    y = res.dual[:-1]
    cert = BellCertificate(p.scenario, y.reshape(p.scenario.shape), vertices.best(y),
                           float(y @ p.flat()))
    return MembershipResult(False, None, cert, res.iterations)


# ---------------------------------------------------------------------------
# Random generators for property tests
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _ns_projector(key: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constraint system C q = d of the affine no-signaling subspace and
    the pseudo-inverse of C C^T used for orthogonal projection."""
    sA, rA, sB, rB = key
    dim = sA * sB * rA * rB

    def diff(s: int) -> np.ndarray:  # rows e_i - e_{i+1}
        return np.eye(s - 1, s) - np.eye(s - 1, s, 1)

    # rows (x, y): normalization; (x, a, y): Alice's marginal at y equals
    # that at y + 1; (y, b, x): Bob's mirror. Columns are (x, y, a, b).
    norm = np.einsum("xX,yY,a,b->xyXYab", np.eye(sA), np.eye(sB),
                     np.ones(rA), np.ones(rB))
    alice = np.einsum("xX,aA,yY,b->xayXYAb", np.eye(sA), np.eye(rA),
                      diff(sB), np.ones(rB))
    bob = np.einsum("yY,bB,xX,a->ybxXYaB", np.eye(sB), np.eye(rB),
                    diff(sA), np.ones(rA))
    C = np.concatenate([t.reshape(-1, dim) for t in (norm, alice, bob)])
    d = np.concatenate([np.ones(sA * sB), np.zeros(C.shape[0] - sA * sB)])
    pinv = np.linalg.pinv(C @ C.T)
    return C, pinv, d


def random_behavior(scenario: Scenario, seed: int) -> Behavior:
    """A fully random conditional distribution (typically signaling)."""
    rng = np.random.default_rng(seed)
    return Behavior(scenario, _random_stochastic(rng, scenario.shape, 2))


def random_ns_behavior(scenario: Scenario, seed: int) -> Behavior:
    """A random no-signaling behavior, deterministic given the seed.

    A fully random conditional distribution is orthogonally projected
    onto the affine no-signaling subspace, then mixed with white noise
    using the smallest coefficient that restores nonnegativity.
    """
    q = _random_stochastic(np.random.default_rng(seed), scenario.shape, 2).reshape(-1)
    C, pinv, d = _ns_projector(scenario.key())
    q = q - C.T @ (pinv @ (C @ q - d))
    w = 1.0 / (scenario.rA * scenario.rB)
    neg = q < 0
    if np.any(neg):
        t = float(np.max(-q[neg] / (w - q[neg])))
        t = min(1.0, t * (1.0 + 1e-12) + 1e-15)
        q = (1.0 - t) * q + t * w
    # snap rounding dust to exact zeros; the column-sum drift this causes
    # is far below the construction tolerance
    q = np.where(np.abs(q) < 1e-13, 0.0, q)
    return Behavior(scenario, q.reshape(scenario.shape))


def random_local_behavior(scenario: Scenario, seed: int) -> tuple[Behavior, LocalModel]:
    """A random convex mixture of deterministic vertices, with its model."""
    rng = np.random.default_rng(seed)
    V = local_vertex_matrix(scenario)
    w = rng.dirichlet(np.ones(V.shape[0]))
    model = LocalModel(scenario, w)
    return Behavior(scenario, (w @ V).reshape(scenario.shape)), model
