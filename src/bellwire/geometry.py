"""Polytope membership machinery for bipartite behaviors.

The local set is the convex hull of deterministic strategy pairs.
Membership is decided by LP feasibility over the explicit vertex list;
both possible answers come with certificates that re-verify without
trusting the solver: a `LocalModel` (convex weights that reconstruct the
behavior) or a `BellCertificate` (a separating functional whose value on
the behavior exceeds its exhaustive maximum over all vertices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .behaviors import Behavior, Scenario, _stochastic
from .errors import (
    LengthMismatch,
    ParameterOutOfRange,
    SolverFailure,
)
from .lp import lp_feasible

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
    if not 0 <= index < outcomes**settings:
        raise ParameterOutOfRange(
            f"strategy index {index} outside [0, {outcomes**settings})")
    # lexicographic: the setting-0 response is the most significant digit
    digits = []
    for pos in range(settings):
        power = outcomes ** (settings - 1 - pos)
        digits.append((index // power) % outcomes)
    return tuple(digits)


def alice_strategy(scenario: Scenario, index: int) -> DeterministicStrategy:
    return DeterministicStrategy(ALICE, _strategy_outcomes(index, scenario.sA, scenario.rA))


def bob_strategy(scenario: Scenario, index: int) -> DeterministicStrategy:
    return DeterministicStrategy(BOB, _strategy_outcomes(index, scenario.sB, scenario.rB))


@lru_cache(maxsize=32)
def _response_tables(key: tuple[int, int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-party 0/1 response tables: VA[s, x, a] = [strategy s answers a
    at setting x], shape (nA, sA, rA), and likewise VB (nB, sB, rB)."""
    sA, rA, sB, rB = key
    ax = np.array([_strategy_outcomes(s, sA, rA) for s in range(rA**sA)])
    by = np.array([_strategy_outcomes(t, sB, rB) for t in range(rB**sB)])
    VA = (ax[:, :, None] == np.arange(rA)[None, None, :]).astype(float)
    VB = (by[:, :, None] == np.arange(rB)[None, None, :]).astype(float)
    VA.flags.writeable = False
    VB.flags.writeable = False
    return VA, VB


@lru_cache(maxsize=32)
def _vertex_matrix_cached(key: tuple[int, int, int, int]) -> np.ndarray:
    VA, VB = _response_tables(key)
    V = np.einsum("sxa,tyb->stxyab", VA, VB).reshape(VA.shape[0] * VB.shape[0], -1)
    V.flags.writeable = False
    return V


def local_vertex_matrix(scenario: Scenario) -> np.ndarray:
    """All deterministic vertex behaviors as rows of an (n, sA*sB*rA*rB)
    0/1 matrix, in canonical lexicographic order (Alice-major)."""
    return _vertex_matrix_cached(scenario.key())


class VertexColumns:
    """The membership constraints [V^T; 1] as an `lp` column source.

    Column (alpha, beta), at index alpha * nB + beta, is the vertex of
    that strategy pair with a trailing 1 for the normalization row. A
    dual y prices every vertex at once by the factorized best-response
    product  y.a = sum_{x,y} Y[x, y, alpha(x), beta(y)] + y_last,  i.e.
    the two small products (VA @ Y) @ VB^T on the response tables, so
    the dense vertex matrix is never multiplied.
    """

    def __init__(self, scenario: Scenario):
        sc = scenario
        VA, VB = _response_tables(sc.key())
        nA, nB = VA.shape[0], VB.shape[0]
        self.nB = nB
        self.shape = (sc.table_size + 1, nA * nB)
        self.VA = VA.reshape(nA, sc.sA * sc.rA)  # columns (x, a)
        self.VBt = np.ascontiguousarray(VB.reshape(nB, sc.sB * sc.rB).T)  # rows (y, b)
        # y[perm] reorders a flat (x, y, a, b) dual to (x, a, y, b)
        self.perm = np.arange(sc.table_size).reshape(sc.shape).transpose(0, 2, 1, 3).ravel()
        self.ydim = (sc.sA * sc.rA, sc.sB * sc.rB)
        # vertex (alpha, beta) has its unit entries at the flat rows
        # rowA[alpha] + rowB[beta], one per setting pair (x, y)
        xy = np.arange(sc.sA * sc.sB)
        alice = VA.argmax(axis=2)[:, xy // sc.sB]  # alpha(x), (nA, sA*sB)
        self.rowA = (xy * sc.rA + alice) * sc.rB
        self.rowB = VB.argmax(axis=2)[:, xy % sc.sB]  # beta(y), (nB, sA*sB)

    def price(self, y: np.ndarray) -> np.ndarray:
        Y = y[self.perm].reshape(self.ydim)
        return ((self.VA @ Y) @ self.VBt).reshape(-1) + y[-1]

    def column(self, j: int) -> np.ndarray:
        alpha, beta = divmod(j, self.nB)
        out = np.zeros(self.shape[0])
        out[self.rowA[alpha] + self.rowB[beta]] = 1.0
        out[-1] = 1.0
        return out

    def columns(self, idx) -> np.ndarray:
        idx = np.asarray(idx)
        out = np.zeros((self.shape[0], idx.size))
        rows = self.rowA[idx // self.nB] + self.rowB[idx % self.nB]
        out[rows, np.arange(idx.size)[:, None]] = 1.0
        out[-1] = 1.0
        return out


@lru_cache(maxsize=32)
def _vertex_columns(scenario: Scenario) -> VertexColumns:
    return VertexColumns(scenario)


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
        object.__setattr__(self, "weights", _stochastic(
            np.asarray(self.weights, dtype=float).reshape(-1),
            (self.scenario.vertex_count,), 1,
            "local-model weights", atol=1e-9,
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
        flat = self.weights @ local_vertex_matrix(self.scenario)
        return bool(np.max(np.abs(flat - p.flat())) <= tol)

    def sparse_pairs(self, threshold: float = 0.0) -> list[tuple[int, int, float]]:
        nB = self.scenario.n_bob_strategies
        out = []
        for idx, w in enumerate(self.weights):
            if w > threshold:
                out.append((idx // nB, idx % nB, float(w)))
        return out


@dataclass(frozen=True)
class BellCertificate:
    """A separating functional proving non-membership in the local set.

    `local_bound` always equals the exhaustive maximum of the functional
    over all deterministic vertices (recomputed at construction), and the
    behavior value must exceed it by more than 1e-9.
    """

    scenario: Scenario
    coefficients: np.ndarray
    local_bound: float
    value_on_behavior: float

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=float)
        if coeff.shape != self.scenario.shape:
            raise LengthMismatch("certificate coefficients must match the scenario")
        exhaustive = float(np.max(local_vertex_matrix(self.scenario) @ coeff.reshape(-1)))
        if abs(exhaustive - self.local_bound) > 1e-9:
            raise SolverFailure(
                f"certificate bound {self.local_bound} disagrees with exhaustive "
                f"vertex maximum {exhaustive}"
            )
        if not self.value_on_behavior > self.local_bound + 1e-9:
            raise SolverFailure(
                "certificate does not separate: value "
                f"{self.value_on_behavior} vs bound {self.local_bound}"
            )
        coeff = np.array(coeff, copy=True)
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)

    def value_on(self, p: Behavior) -> float:
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
    """Verdict of a local-polytope membership query with its certificate."""

    is_local: bool
    model: LocalModel | None
    certificate: BellCertificate | None
    lp_iterations: int


def is_local(p: Behavior, tol: float = 1e-8, pivot: str = "bland") -> MembershipResult:
    """Decide membership of `p` in the local polytope.

    Feasibility of {weights >= 0, sum = 1, V.weights = p} is decided by
    the in-repo revised simplex, which reads the constraints through
    `VertexColumns`: vertices are priced by the factorized best-response
    product and built one column at a time, so the LP never forms
    [V^T; 1]. Either certificate is re-verified independently of the
    solver, on the dense vertex matrix, before being returned.
    """
    V = local_vertex_matrix(p.scenario)
    b = np.concatenate([p.flat(), [1.0]])
    res = lp_feasible(_vertex_columns(p.scenario), b, pivot=pivot, feas_tol=tol)
    if res.feasible:
        w = np.clip(res.x, 0.0, None)
        w = w / w.sum()
        model = LocalModel(p.scenario, w)
        if not model.matches(p, tol=max(tol, 1e-8)):
            raise SolverFailure("local model failed reconstruction re-verification")
        return MembershipResult(True, model, None, res.iterations)

    y = res.dual
    coeff = y[:-1].reshape(p.scenario.shape)
    bound = float(np.max(V @ y[:-1]))
    value = float(y[:-1] @ p.flat())
    cert = BellCertificate(p.scenario, coeff, bound, value)
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
    cols = rng.dirichlet(np.ones(scenario.rA * scenario.rB),
                         size=scenario.sA * scenario.sB)
    return Behavior(scenario, cols.reshape(scenario.shape))


def random_ns_behavior(scenario: Scenario, seed: int) -> Behavior:
    """A random no-signaling behavior, deterministic given the seed.

    A fully random conditional distribution is orthogonally projected
    onto the affine no-signaling subspace, then mixed with white noise
    using the smallest coefficient that restores nonnegativity.
    """
    rng = np.random.default_rng(seed)
    cols = rng.dirichlet(np.ones(scenario.rA * scenario.rB),
                         size=scenario.sA * scenario.sB)
    q = cols.reshape(-1)
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
