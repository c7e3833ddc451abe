"""Scenario-indexed probability containers.

A bipartite box experiment is described by a `Scenario` (alphabet sizes),
a `Behavior` (the conditional distribution P(a,b|x,y)), an
`InputDistribution` D(x,y) over setting pairs, and the `JointDistribution`
P(a,b|x,y)D(x,y) obtained by running the box under D.

All containers are immutable after validated construction. Construction
rejects invalid tables instead of renormalizing them: silent repair would
mask bugs in wiring application, where normalization is a correctness
signal.

One routine, `_stochastic`, validates every probability table in the
package: these containers, `geometry.LocalModel`'s weights, every wiring
field and both arguments of `divergence.kl`. It raises `LengthMismatch`
on a wrong shape, `NegativeEntry` on a negative or non-finite entry and
`NormalizationViolation` (a `NotNormalized`) when a distribution misses
one by more than its tolerance: `PROB_ATOL` everywhere except local-model
weights, which get 1e-9 because their sparse JSON form drops entries
below 1e-15.

Array layout is dense row-major [x][y][a][b] throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NegativeEntry,
    NormalizationViolation,
    ParameterOutOfRange,
    ScenarioMismatch,
    VertexCapExceeded,
)

#: Absolute tolerance on probability normalization at construction time.
PROB_ATOL = 1e-12

#: Default cap on the deterministic-vertex pair count rA^sA * rB^sB.
DEFAULT_VERTEX_CAP = 10**6


def _float_array(arr, name: str) -> np.ndarray:
    """`arr` as a float array copy; `ParameterOutOfRange` when numpy
    cannot convert it (a string, a ragged nesting)."""
    try:
        return np.array(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterOutOfRange(f"{name} is not a numeric table: {exc}") from None


def _stochastic(
    arr, shape: tuple[int, ...], trailing: int, name: str, atol: float = PROB_ATOL
) -> np.ndarray:
    """`arr` as a read-only float copy of `shape` whose entries over the
    `trailing` last axes are distributions: finite, nonnegative and
    summing to one within `atol`."""
    out = _float_array(arr, name)
    if out.shape != shape:
        raise LengthMismatch(f"{name} has shape {out.shape}, expected {shape}")
    cut = len(shape) - trailing
    # the ufunc reductions skip the ndarray methods' dispatch, which costs
    # as much as the checks on a small table; initial=0 admits empty ones
    rows = out.reshape(math.prod(shape[:cut]), math.prod(shape[cut:]))
    dev = np.add.reduce(rows, 1) - 1.0
    # a NaN fails both tests and an infinite entry the second
    if not (np.minimum.reduce(out, axis=None, initial=0.0) >= 0.0
            and np.maximum.reduce(np.abs(dev), initial=0.0) <= atol):
        bad = np.argwhere(~(out >= 0.0) | np.isinf(out))
        if bad.size:
            idx = tuple(int(i) for i in bad[0])
            raise NegativeEntry(f"{name} has entry {out[idx]} at {idx}")
        k = int(np.argmax(np.abs(dev)))
        index = tuple(int(i) for i in np.unravel_index(k, shape[:cut]))
        raise NormalizationViolation(name, index, float(dev[k]))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Scenario:
    """Alphabet sizes of a bipartite box: settings sA, sB and outcomes rA, rB.

    Asymmetric scenarios (sA != sB etc., including single-setting parties)
    are first-class.
    """

    sA: int
    rA: int
    sB: int
    rB: int
    vertex_cap: int = field(default=DEFAULT_VERTEX_CAP, compare=False, repr=False)

    def __post_init__(self):
        for name in ("sA", "rA", "sB", "rB"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ParameterOutOfRange(f"{name} must be an integer, got {v!r}")
            if v < 1:
                raise ParameterOutOfRange(f"{name} must be >= 1, got {v}")
            object.__setattr__(self, name, int(v))
        if self.vertex_count > self.vertex_cap:
            raise VertexCapExceeded(
                f"{self.vertex_count} deterministic vertex pairs exceed cap "
                f"{self.vertex_cap}"
            )

    @property
    def n_alice_strategies(self) -> int:
        return self.rA**self.sA

    @property
    def n_bob_strategies(self) -> int:
        return self.rB**self.sB

    @property
    def vertex_count(self) -> int:
        """Number of deterministic strategy pairs rA^sA * rB^sB."""
        return self.n_alice_strategies * self.n_bob_strategies

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """Array shape (sA, sB, rA, rB) of a behavior table."""
        return (self.sA, self.sB, self.rA, self.rB)

    @property
    def table_size(self) -> int:
        return self.sA * self.sB * self.rA * self.rB

    def key(self) -> tuple[int, int, int, int]:
        return (self.sA, self.rA, self.sB, self.rB)


def _require_same_scenario(a, b) -> None:
    if a.scenario.key() != b.scenario.key():
        raise ScenarioMismatch(
            f"scenario {a.scenario.key()} does not match {b.scenario.key()}"
        )


@dataclass(frozen=True)
class Behavior:
    """A normalized bipartite conditional distribution P(a,b|x,y).

    `p` has shape (sA, sB, rA, rB); every entry is >= 0 and every setting
    column sums to one within `PROB_ATOL`. Instances are immutable and
    safe to share across threads.
    """

    scenario: Scenario
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "p", _stochastic(self.p, self.scenario.shape, 2, "behavior")
        )

    def column(self, x: int, y: int) -> np.ndarray:
        """Output distribution P(.,.|x,y) as a flat length rA*rB array."""
        return self.p[x, y].reshape(-1)

    def flat(self) -> np.ndarray:
        return self.p.reshape(-1)

    def alice_marginal(self) -> np.ndarray:
        """P(a|x,y) with shape (sA, sB, rA); y-independent iff no-signaling."""
        return self.p.sum(axis=3)

    def bob_marginal(self) -> np.ndarray:
        """P(b|x,y) with shape (sA, sB, rB); x-independent iff no-signaling."""
        return self.p.sum(axis=2)

    def allclose(self, other: "Behavior", atol: float = 1e-12) -> bool:
        _require_same_scenario(self, other)
        return bool(np.allclose(self.p, other.p, rtol=0.0, atol=atol))


def behavior_from_array(
    scenario: Scenario, entries: Sequence[float] | Iterable[float] | np.ndarray
) -> Behavior:
    """Build a validated Behavior from flat row-major [x][y][a][b] entries."""
    flat = _float_array(list(entries) if not isinstance(entries, np.ndarray) else entries,
                        "behavior").reshape(-1)
    if flat.size != scenario.table_size:
        raise LengthMismatch(
            f"expected {scenario.table_size} entries, got {flat.size}"
        )
    return Behavior(scenario, flat.reshape(scenario.shape))


KIND_GENERAL = "general"
KIND_PRODUCT = "product"
KIND_UNIFORM = "uniform"


@dataclass(frozen=True)
class InputDistribution:
    """A joint distribution D(x,y) over setting pairs.

    `kind` is one of "general", "product", "uniform". Product instances
    carry their marginals dX, dY and satisfy d = outer(dX, dY) exactly by
    construction; uniform instances have every entry 1/(sA*sB).
    """

    scenario: Scenario
    d: np.ndarray
    kind: str = KIND_GENERAL
    dX: np.ndarray | None = None
    dY: np.ndarray | None = None

    def __post_init__(self):
        sc = self.scenario
        if self.kind not in (KIND_GENERAL, KIND_PRODUCT, KIND_UNIFORM):
            raise ParameterOutOfRange(f"unknown input-distribution kind {self.kind!r}")
        if self.kind == KIND_PRODUCT:
            if self.dX is None or self.dY is None:
                raise ParameterOutOfRange("product kind requires dX and dY")
            object.__setattr__(self, "dX", _stochastic(self.dX, (sc.sA,), 1, "dX"))
            object.__setattr__(self, "dY", _stochastic(self.dY, (sc.sB,), 1, "dY"))
        arr = _stochastic(self.d, (sc.sA, sc.sB), 2, "input distribution")
        if self.kind == KIND_PRODUCT and not np.array_equal(
            arr, np.outer(self.dX, self.dY)
        ):
            raise ParameterOutOfRange(
                "product kind must satisfy d[x][y] = dX[x]*dY[y] exactly"
            )
        if self.kind == KIND_UNIFORM:
            expected = 1.0 / (self.scenario.sA * self.scenario.sB)
            if not np.all(arr == expected):
                raise ParameterOutOfRange("uniform kind must be exactly flat")
        object.__setattr__(self, "d", arr)

    @staticmethod
    def uniform(scenario: Scenario) -> "InputDistribution":
        n = scenario.sA * scenario.sB
        d = np.full((scenario.sA, scenario.sB), 1.0 / n)
        return InputDistribution(scenario, d, KIND_UNIFORM)

    @staticmethod
    def product(
        scenario: Scenario, dX: Sequence[float], dY: Sequence[float]
    ) -> "InputDistribution":
        # the constructor checks both marginals before their product
        return InputDistribution(scenario, np.outer(dX, dY), KIND_PRODUCT, dX, dY)

    @staticmethod
    def general(scenario: Scenario, d: np.ndarray | Sequence[float]) -> "InputDistribution":
        arr = _float_array(d, "input distribution")
        if arr.size != scenario.sA * scenario.sB:
            raise LengthMismatch(f"input distribution has {arr.size} entries, "
                                 f"expected {scenario.sA * scenario.sB}")
        return InputDistribution(scenario, arr.reshape(scenario.sA, scenario.sB), KIND_GENERAL)

    @staticmethod
    def point_mass(scenario: Scenario, x: int, y: int) -> "InputDistribution":
        if not (0 <= x < scenario.sA and 0 <= y < scenario.sB):
            raise ParameterOutOfRange(
                f"setting ({x}, {y}) outside {scenario.sA} x {scenario.sB} settings")
        d = np.zeros((scenario.sA, scenario.sB))
        d[x, y] = 1.0
        return InputDistribution(scenario, d, KIND_GENERAL)


@dataclass(frozen=True)
class JointDistribution:
    """The input-output statistics {P(a,b|x,y) D(x,y)}: one distribution
    over the whole index set, summing to one overall."""

    scenario: Scenario
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "q", _stochastic(self.q, self.scenario.shape, 4, "joint distribution")
        )

    def flat(self) -> np.ndarray:
        return self.q.reshape(-1)


def product_with_inputs(p: Behavior, d: InputDistribution) -> JointDistribution:
    """Form the joint statistics q[x][y][a][b] = P(a,b|x,y) * D(x,y)."""
    _require_same_scenario(p, d)
    q = p.p * d.d[:, :, None, None]
    return JointDistribution(p.scenario, q)


# ---------------------------------------------------------------------------
# Named behaviors
# ---------------------------------------------------------------------------

#: The maximal quantum win probability of the CHSH game, cos^2(pi/8).
TSIRELSON_P = 0.5 + 0.5 / math.sqrt(2.0)


def white_noise(scenario: Scenario) -> Behavior:
    """The flat behavior: every outcome pair equally likely at every setting."""
    val = 1.0 / (scenario.rA * scenario.rB)
    return Behavior(scenario, np.full(scenario.shape, val))


def pr_box() -> Behavior:
    """The extremal no-signaling box winning CHSH with certainty:
    P(a,b|x,y) = 1/2 iff a XOR b = x AND y, else 0."""
    sc = Scenario(2, 2, 2, 2)
    p = np.zeros(sc.shape)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) == (x & y):
                        p[x, y, a, b] = 0.5
    return Behavior(sc, p)


def tsirelson_four_setting(p: float | None = None) -> Behavior:
    """Four-setting/two-outcome box: CHSH-correlated pattern with win
    weight p on settings with x*y <= 1, flat elsewhere.

    Settings with x*y = 0 favor a = b, settings with x*y = 1 favor
    a != b, both with weight p per winning outcome pair; settings with
    x*y > 1 are white noise. Default p is the maximal quantum CHSH win
    probability.
    """
    if p is None:
        p = TSIRELSON_P
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"p must lie in [0, 1], got {p}")
    sc = Scenario(4, 2, 4, 2)
    table = np.empty(sc.shape)
    for x in range(4):
        for y in range(4):
            prod = x * y
            for a in range(2):
                for b in range(2):
                    if prod > 1:
                        table[x, y, a, b] = 0.25
                    elif prod == 0:
                        table[x, y, a, b] = p / 2 if a == b else (1 - p) / 2
                    else:
                        table[x, y, a, b] = (1 - p) / 2 if a == b else p / 2
    return Behavior(sc, table)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ParameterOutOfRange(f"epsilon must lie in (0, 1/2), got {epsilon}")


def doubling_pair_first(epsilon: float) -> Behavior:
    """First member of the distinguishability-doubling pair: a single-input
    Bob, two-input Alice box with x-independent columns; outcomes agree
    with weight 1/2 - epsilon each and disagree with weight epsilon each.
    """
    _check_epsilon(epsilon)
    sc = Scenario(2, 2, 1, 2)
    table = np.empty(sc.shape)
    for x in range(2):
        for a in range(2):
            for b in range(2):
                table[x, 0, a, b] = 0.5 - epsilon if a == b else epsilon
    return Behavior(sc, table)


def doubling_pair_second(epsilon: float) -> Behavior:
    """Second member of the doubling pair: Bob's output is a fair coin and
    Alice outputs the complement of her setting with probability 1 - 2*epsilon.
    """
    _check_epsilon(epsilon)
    sc = Scenario(2, 2, 1, 2)
    table = np.empty(sc.shape)
    for x in range(2):
        for a in range(2):
            for b in range(2):
                table[x, 0, a, b] = epsilon if a == x else 0.5 - epsilon
    return Behavior(sc, table)


def doubling_pair(epsilon: float) -> tuple[Behavior, Behavior]:
    """Both members of the doubling pair; see the per-member factories."""
    return doubling_pair_first(epsilon), doubling_pair_second(epsilon)
