"""Wiring classes over bipartite boxes and their application semantics.

Four families are modeled:

* `GlobalWiring` — arbitrary (possibly signaling) input and output boxes
  wired around the initial box; can create nonlocality.
* `LosrWiring` — local processing on each side, coordinated only by
  shared randomness. Stored in explicit shared-randomness form (a weight
  per lambda with product stochastic maps), so class membership holds by
  construction rather than by solving a membership problem on dense
  arrays.
* `UclosrWiring` — a single product pair, i.e. an `LosrWiring` with one
  lambda.
* `WpiccWiring` — a five-branch decision tree in which parties may
  measure the initial box and communicate dits before the final inputs
  arrive, then finish with local processing. Defined only on
  no-signaling behaviors; the preparation feedback would otherwise close
  a causal loop (and the branch outputs would not even normalize).

Input/output maps are stored with conditioning axes first and the
sampled variable last, normalized along the trailing axis (or the
trailing pair for bipartite boxes). Each class declares its array fields
once, in its `LAYOUT`: every field's shape in terms of the initial and
final scenarios, its normalized trailing axes, and whether it carries a
leading axis over shared-randomness components. Validation, the seeded
random generators and `jsonio` all read that declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .behaviors import (
    Behavior,
    Scenario,
    _float_array,
    _random_stochastic,
    _require_same_scenario,
    _stochastic,
)
from .errors import DomainViolation, ParameterOutOfRange
from .geometry import is_no_signaling, marginal_residual

ALICE_FIRST = "alice"
BOB_FIRST = "bob"


# ---------------------------------------------------------------------------
# Field layouts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One array field of a wiring class.

    `axes` spells the shape with scenario attributes, such as
    "sf.sA si.sA" for a map from Alice's final settings to her initial
    ones. In a WPICC branch, M stands for the branch's own party (the one
    measuring first, or the only one measuring) and O for the other one.
    A per-component field has a leading axis over the shared-randomness
    components; the component weights are the per-component field with
    no further axes. Entries are normalized over the `trailing` last axes.
    """

    name: str
    axes: str
    trailing: int = 1
    per_component: bool = False
    key: str | None = None  # JSON key inside a component, if not `name`


_WEIGHTS = Field("weights", "", per_component=True, key="weight")


@dataclass(frozen=True)
class Layout:
    """The array fields of a wiring class, in the order the random
    generators draw them. `party` names the attribute holding a WPICC
    branch's party, which resolves M and O in the axes."""

    fields: tuple[Field, ...]
    party: str | None = None

    def shapes(
        self, si: Scenario, sf: Scenario, n: int = 1, party: str | None = None
    ) -> dict[str, tuple[int, ...]]:
        """Every field's shape, for `n` components and the given party."""
        if self.party is not None and party not in (ALICE_FIRST, BOB_FIRST):
            raise ParameterOutOfRange(f"unknown {self.party} party {party!r}")
        sides = {"M": "B", "O": "A"} if party == BOB_FIRST else {"M": "A", "O": "B"}
        scenarios = {"si": si, "sf": sf}
        out = {}
        for f in self.fields:
            dims = []
            for axis in f.axes.split():
                phase, (alphabet, side) = axis.split(".")
                dims.append(getattr(scenarios[phase], alphabet + sides.get(side, side)))
            out[f.name] = (n, *dims) if f.per_component else tuple(dims)
        return out


def _validate_fields(obj, si: Scenario, sf: Scenario) -> None:
    """Check every field of `obj` against its class layout, all shapes
    before any entry, and store read-only copies."""
    layout = obj.LAYOUT
    arrays = {f: _float_array(getattr(obj, f.name), f.name) for f in layout.fields}
    n = arrays[_WEIGHTS].size if _WEIGHTS in arrays else 1
    party = getattr(obj, layout.party) if layout.party else None
    shapes = layout.shapes(si, sf, n, party)
    # a truncated weights vector is a well-formed shorter one that only
    # the other fields' shapes reveal, so no sum is checked before them
    for f, arr in arrays.items():
        if arr.shape != shapes[f.name]:
            _stochastic(arr, shapes[f.name], f.trailing, f.name)  # LengthMismatch
    for f, arr in arrays.items():
        object.__setattr__(obj, f.name, _stochastic(arr, shapes[f.name], f.trailing, f.name))


# ---------------------------------------------------------------------------
# Global wirings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalWiring:
    """Arbitrary input box I(x,y|chi,psi) and output box
    O(alpha,beta|a,b,x,y,chi,psi) wired around the initial behavior.

    Both are normalized over their trailing pair for every conditioning.
    """

    initial: Scenario
    final: Scenario
    i_box: np.ndarray
    o_box: np.ndarray

    LAYOUT = Layout((
        Field("i_box", "sf.sA sf.sB si.sA si.sB", trailing=2),
        Field("o_box", "si.rA si.rB si.sA si.sB sf.sA sf.sB sf.rA sf.rB", trailing=2),
    ))

    def __post_init__(self):
        _validate_fields(self, self.initial, self.final)

    def is_no_signaling(self, tol: float = 1e-9) -> bool:
        """Validation flag for the no-signaling subclass: both auxiliary
        boxes, viewed as behaviors with composite per-party alphabets,
        must satisfy the marginal constraints."""
        sf, si = self.final, self.initial
        i_res, _ = marginal_residual(self.i_box)
        # O as a behavior: Alice side (a, x, chi) -> alpha, Bob side
        # (b, y, psi) -> beta
        o_beh = self.o_box.transpose(0, 2, 4, 1, 3, 5, 6, 7).reshape(
            si.rA * si.sA * sf.sA, si.rB * si.sB * sf.sB, sf.rA, sf.rB
        )
        o_res, _ = marginal_residual(o_beh)
        return max(i_res, o_res) <= tol


def apply_gw(w: GlobalWiring, p: Behavior) -> Behavior:
    """P_f(alpha,beta|chi,psi) = sum O(..)*P0(a,b|x,y)*I(x,y|chi,psi).

    The result is validated for normalization only; global wirings may
    produce signaling behaviors.
    """
    _require_same_scenario(p.scenario, w.initial, "behavior scenario")
    out = np.einsum("abxycsAB,xyab,csxy->csAB", w.o_box, p.p, w.i_box)
    return Behavior(w.final, out)


def bypass_global_wiring(initial: Scenario, target: Behavior) -> GlobalWiring:
    """The wiring that ignores the initial box and emits `target`."""
    sf = target.scenario
    shapes = GlobalWiring.LAYOUT.shapes(initial, sf)
    i_box = np.full(shapes["i_box"], 1.0 / (initial.sA * initial.sB))
    o_box = np.broadcast_to(target.p[None, None, None, None], shapes["o_box"])
    return GlobalWiring(initial, sf, i_box, np.array(o_box))


def identity_global_wiring(scenario: Scenario) -> GlobalWiring:
    si = scenario
    shapes = GlobalWiring.LAYOUT.shapes(si, si)
    i_box = np.zeros(shapes["i_box"])
    for c in range(si.sA):
        for s in range(si.sB):
            i_box[c, s, c, s] = 1.0
    o_box = np.zeros(shapes["o_box"])
    for a in range(si.rA):
        for b in range(si.rB):
            o_box[a, b, :, :, :, :, a, b] = 1.0
    return GlobalWiring(si, si, i_box, o_box)


# ---------------------------------------------------------------------------
# LOSR and UCLOSR wirings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LosrWiring:
    """Shared-randomness mixture of product local processings.

    Per lambda: Alice's input map in_a[l][chi][x], output map
    out_a[l][a][x][chi][alpha], and Bob's mirrors. Each map is a
    conditional distribution over its trailing axis.
    """

    initial: Scenario
    final: Scenario
    weights: np.ndarray
    in_a: np.ndarray
    in_b: np.ndarray
    out_a: np.ndarray
    out_b: np.ndarray

    LAYOUT = Layout((
        _WEIGHTS,
        Field("in_a", "sf.sA si.sA", per_component=True),
        Field("in_b", "sf.sB si.sB", per_component=True),
        Field("out_a", "si.rA si.sA sf.sA sf.rA", per_component=True),
        Field("out_b", "si.rB si.sB sf.sB sf.rB", per_component=True),
    ))

    def __post_init__(self):
        _validate_fields(self, self.initial, self.final)

    @property
    def n_lambda(self) -> int:
        return self.weights.size


def apply_losr(w: LosrWiring, p: Behavior) -> Behavior:
    """Average over lambda of the product-form processing of `p`."""
    _require_same_scenario(p.scenario, w.initial, "behavior scenario")
    out = np.einsum(
        "l,laxcA,lbysB,xyab,lcx,lsy->csAB",
        w.weights, w.out_a, w.out_b, p.p, w.in_a, w.in_b,
    )
    return Behavior(w.final, out)


@dataclass(frozen=True)
class UclosrWiring:
    """A single uncorrelated product of local input/output maps."""

    initial: Scenario
    final: Scenario
    in_a: np.ndarray
    in_b: np.ndarray
    out_a: np.ndarray
    out_b: np.ndarray

    # the maps of one LOSR component, without the component axis
    LAYOUT = Layout(tuple(
        replace(f, per_component=False) for f in LosrWiring.LAYOUT.fields[1:]
    ))

    def __post_init__(self):
        _validate_fields(self, self.initial, self.final)

    def as_losr(self) -> LosrWiring:
        return LosrWiring(
            self.initial,
            self.final,
            np.array([1.0]),
            self.in_a[None],
            self.in_b[None],
            self.out_a[None],
            self.out_b[None],
        )


def apply_uclosr(w: UclosrWiring, p: Behavior) -> Behavior:
    return apply_losr(w.as_losr(), p)


def uclosr_decomposition(w: LosrWiring) -> list[tuple[float, UclosrWiring]]:
    """The stored shared-randomness components, each packaged as an
    uncorrelated wiring; reweighted application reproduces apply_losr."""
    out = []
    for l in range(w.n_lambda):
        out.append(
            (
                float(w.weights[l]),
                UclosrWiring(
                    w.initial, w.final, w.in_a[l], w.in_b[l], w.out_a[l], w.out_b[l]
                ),
            )
        )
    return out


def losr_to_gw(w: LosrWiring) -> GlobalWiring:
    """Dense global-wiring form obtained by summing out the shared
    randomness.

    The input box is the plain lambda-average. The output box must carry
    the lambda correlation between input and output maps, so it is the
    conditional distribution of the per-lambda outputs given the realized
    dits: O = sum_l w_l O_l I_l / I, with a flat fallback where the
    average input box never produces the conditioning dits.
    """
    si, sf = w.initial, w.final
    i_lambda = np.einsum("lcx,lsy->lcsxy", w.in_a, w.in_b)
    i_box = np.einsum("l,lcsxy->csxy", w.weights, i_lambda)
    o_lambda = np.einsum("laxcA,lbysB->labxycsAB", w.out_a, w.out_b)
    numer = np.einsum("l,lcsxy,labxycsAB->abxycsAB", w.weights, i_lambda, o_lambda)
    denom = i_box.transpose(2, 3, 0, 1)[None, None, :, :, :, :, None, None]
    flat = 1.0 / (sf.rA * sf.rB)
    with np.errstate(invalid="ignore", divide="ignore"):
        o_box = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), flat)
    return GlobalWiring(si, sf, i_box, o_box)


# ---------------------------------------------------------------------------
# WPICC wirings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BothMeasureBranch:
    """Preparation branch in which both parties measure their boxes.

    `first` names the party that measures first and communicates; the
    second party chooses its initial setting from the communicated dits.
    Afterwards both parties know all four dits, so the measurement-phase
    output boxes depend on them arbitrarily (in shared-randomness form).
    """

    first: str
    d_first: np.ndarray
    d_second: np.ndarray
    weights: np.ndarray
    out_a: np.ndarray
    out_b: np.ndarray

    LAYOUT = Layout((
        Field("d_first", "si.sM"),
        Field("d_second", "si.rM si.sM si.sO"),
        _WEIGHTS,
        Field("out_a", "si.rA si.rB si.sA si.sB sf.sA sf.rA", per_component=True),
        Field("out_b", "si.rA si.rB si.sA si.sB sf.sB sf.rB", per_component=True),
    ), party="first")

    def apply(self, p: Behavior, final: Scenario) -> Behavior:
        if self.first == BOB_FIRST:
            joint = np.einsum("xyab,y,byx->abxy", p.p, self.d_first, self.d_second)
        else:
            joint = np.einsum("xyab,x,axy->abxy", p.p, self.d_first, self.d_second)
        out = np.einsum(
            "m,mabxycA,mabxysB,abxy->csAB",
            self.weights, self.out_a, self.out_b, joint,
        )
        return Behavior(final, out)


@dataclass(frozen=True)
class OneMeasuresBranch:
    """Preparation branch in which only one party measures and sends its
    dits; the other party wires its still-unused box during the
    measurement phase, informed by the communicated dits.
    """

    measurer: str
    d_meas: np.ndarray
    in_other: np.ndarray
    weights: np.ndarray
    out_other: np.ndarray
    out_meas: np.ndarray

    # the weights come first in the random generators' draw order
    LAYOUT = Layout((
        _WEIGHTS,
        Field("d_meas", "si.sM"),
        Field("in_other", "si.rM si.sM sf.sO si.sO"),
        Field("out_other", "si.rM si.sM si.rO si.sO sf.sO sf.rO", per_component=True),
        Field("out_meas", "si.rM si.sM sf.sM sf.rM", per_component=True),
    ), party="measurer")

    def apply(self, p: Behavior, final: Scenario) -> Behavior:
        if self.measurer == BOB_FIRST:
            out = np.einsum(
                "m,mbyaxcA,mbysB,y,xyab,bycx->csAB",
                self.weights, self.out_other, self.out_meas,
                self.d_meas, p.p, self.in_other,
            )
        else:
            out = np.einsum(
                "m,maxbysB,maxcA,x,xyab,axsy->csAB",
                self.weights, self.out_other, self.out_meas,
                self.d_meas, p.p, self.in_other,
            )
        return Behavior(final, out)


@dataclass(frozen=True)
class WpiccWiring:
    """Probabilistic mixture of the five preparation branches followed by
    measurement-phase local processing. Defined on no-signaling
    behaviors only."""

    initial: Scenario
    final: Scenario
    branch_probabilities: np.ndarray
    both_alice_first: BothMeasureBranch | None
    both_bob_first: BothMeasureBranch | None
    alice_only: OneMeasuresBranch | None
    bob_only: OneMeasuresBranch | None
    none_branch: LosrWiring | None

    # the branches in the order of branch_probabilities, each with its
    # class and the party it must have; the last one never measures
    BRANCHES = (
        ("both_alice_first", BothMeasureBranch, ALICE_FIRST),
        ("both_bob_first", BothMeasureBranch, BOB_FIRST),
        ("alice_only", OneMeasuresBranch, ALICE_FIRST),
        ("bob_only", OneMeasuresBranch, BOB_FIRST),
        ("none_branch", LosrWiring, None),
    )

    def __post_init__(self):
        probs = _stochastic(
            _float_array(self.branch_probabilities, "branch_probabilities").reshape(-1),
            (len(self.BRANCHES),), 1, "branch_probabilities")
        object.__setattr__(self, "branch_probabilities", probs)
        for weight, (name, cls, party) in zip(probs, self.BRANCHES):
            branch = getattr(self, name)
            if branch is None:
                if weight > 0:
                    raise ParameterOutOfRange(f"{name} carries weight but is missing")
            elif not isinstance(branch, cls):
                raise ParameterOutOfRange(
                    f"{name} must be a {cls.__name__}, not {type(branch).__name__}")
            elif party is None:
                for end in ("initial", "final"):
                    _require_same_scenario(getattr(branch, end), getattr(self, end),
                                           f"{name} {end} scenario")
            else:
                if getattr(branch, cls.LAYOUT.party) != party:
                    raise ParameterOutOfRange(
                        f"{name} needs {cls.LAYOUT.party} {party!r}")
                # the measuring branches learn their scenarios only here
                _validate_fields(branch, self.initial, self.final)

    @property
    def measuring_probability(self) -> float:
        """Total weight of the four branches that use the box during
        preparation."""
        return float(self.branch_probabilities[:4].sum())


def _measuring_terms(w: WpiccWiring, p: Behavior) -> list[tuple[float, Behavior]]:
    """Each measuring branch with weight, applied to `p`, after the intake
    both `apply_wpicc` and `wpicc_local_part` share.

    Signaling inputs are refused outright: the preparation phase feeds
    outputs of one box into inputs of the other, which is circular
    unless the behavior is no-signaling.
    """
    _require_same_scenario(p.scenario, w.initial, "behavior scenario")
    report = is_no_signaling(p)
    if not report.ok:
        raise DomainViolation(
            f"communication wiring applied to a signaling behavior "
            f"(residual {report.max_residual:.3e} at {report.worst})"
        )
    return [
        (float(weight), getattr(w, name).apply(p, w.final))
        for weight, (name, _, party) in zip(w.branch_probabilities, w.BRANCHES)
        if weight > 0 and party is not None
    ]


def apply_wpicc(w: WpiccWiring, p: Behavior) -> Behavior:
    """Apply the five-branch mixture to a no-signaling behavior."""
    table = np.zeros(w.final.shape)
    for weight, beh in _measuring_terms(w, p):
        table = table + weight * beh.p
    if w.branch_probabilities[4] > 0:
        table = table + w.branch_probabilities[4] * apply_losr(w.none_branch, p).p
    return Behavior(w.final, table)


def wpicc_local_part(w: WpiccWiring, p: Behavior) -> Behavior:
    """The normalized mixture of the four measuring branches: the local
    behavior the simplified two-term form mixes with the plain LOSR
    output."""
    p_meas = w.measuring_probability
    if p_meas <= 0.0:
        raise ParameterOutOfRange("wiring has no measuring branches")
    table = np.zeros(w.final.shape)
    for weight, beh in _measuring_terms(w, p):
        table = table + (weight / p_meas) * beh.p
    return Behavior(w.final, table)


# ---------------------------------------------------------------------------
# Seeded random generators
# ---------------------------------------------------------------------------


def _random_fields(
    layout: Layout, rng: np.random.Generator, si: Scenario, sf: Scenario,
    n: int = 1, party: str | None = None,
) -> dict[str, np.ndarray]:
    """Draw every field of `layout`, in its declaration order."""
    shapes = layout.shapes(si, sf, n, party)
    return {f.name: _random_stochastic(rng, shapes[f.name], f.trailing)
            for f in layout.fields}


def random_global_wiring(
    initial: Scenario, final: Scenario, seed: int
) -> GlobalWiring:
    rng = np.random.default_rng(seed)
    return GlobalWiring(
        initial, final, **_random_fields(GlobalWiring.LAYOUT, rng, initial, final)
    )


def random_losr_wiring(
    initial: Scenario, final: Scenario, seed: int, n_lambda: int = 2
) -> LosrWiring:
    rng = np.random.default_rng(seed)
    return LosrWiring(
        initial, final,
        **_random_fields(LosrWiring.LAYOUT, rng, initial, final, n_lambda),
    )


def random_uclosr_wiring(initial: Scenario, final: Scenario, seed: int) -> UclosrWiring:
    rng = np.random.default_rng(seed)
    return UclosrWiring(
        initial, final, **_random_fields(UclosrWiring.LAYOUT, rng, initial, final)
    )


def random_wpicc_wiring(
    initial: Scenario, final: Scenario, seed: int, n_lambda: int = 2
) -> WpiccWiring:
    rng = np.random.default_rng(seed)
    # this draw order fixes every seeded wiring: keep it
    probs = _random_stochastic(rng, (len(WpiccWiring.BRANCHES),))
    none_branch = random_losr_wiring(initial, final, int(rng.integers(2**31)), n_lambda)
    measuring = [
        cls(party, **_random_fields(cls.LAYOUT, rng, initial, final, n_lambda, party))
        for _, cls, party in WpiccWiring.BRANCHES[:4]
    ]
    return WpiccWiring(initial, final, probs, *measuring, none_branch)


# ---------------------------------------------------------------------------
# Named wiring presets
# ---------------------------------------------------------------------------


def feedback_copy_wiring() -> WpiccWiring:
    """Measure-and-feedback preset on the single-Bob-input scenario.

    Bob presses his only button during preparation and sends his outcome
    to Alice; Alice ignores her final input and uses Bob's outcome as her
    initial setting; both final outputs copy the initial ones. This is
    the wiring that doubles the output distinguishability of the
    epsilon-family pair.
    """
    si = sf = Scenario(2, 2, 1, 2)
    shapes = OneMeasuresBranch.LAYOUT.shapes(si, sf, 1, BOB_FIRST)
    in_other = np.zeros(shapes["in_other"])
    for b in range(si.rB):
        in_other[b, 0, :, b] = 1.0  # x = b, whatever chi says
    out_other = np.zeros(shapes["out_other"])
    for a in range(si.rA):
        out_other[0, :, :, a, :, :, a] = 1.0  # alpha = a
    out_meas = np.zeros(shapes["out_meas"])
    for b in range(si.rB):
        out_meas[0, b, :, :, b] = 1.0  # beta = b
    branch = OneMeasuresBranch(
        BOB_FIRST, np.ones(1), in_other, np.ones(1), out_other, out_meas
    )
    return WpiccWiring(
        si, sf, np.array([0.0, 0.0, 0.0, 1.0, 0.0]), None, None, None, branch, None
    )


def setting_fold_wiring() -> LosrWiring:
    """Deterministic single-lambda preset on the four-setting scenario:
    each party folds its final setting mod 2 onto the initial box and
    copies the outcome through."""
    si = sf = Scenario(4, 2, 4, 2)
    shapes = LosrWiring.LAYOUT.shapes(si, sf)
    in_a = np.zeros(shapes["in_a"])
    in_b = np.zeros(shapes["in_b"])
    for c in range(sf.sA):
        in_a[0, c, c % 2] = 1.0
    for s in range(sf.sB):
        in_b[0, s, s % 2] = 1.0
    out_a = np.zeros(shapes["out_a"])
    out_b = np.zeros(shapes["out_b"])
    for a in range(si.rA):
        out_a[0, a, :, :, a] = 1.0
    for b in range(si.rB):
        out_b[0, b, :, :, b] = 1.0
    return LosrWiring(si, sf, np.ones(1), in_a, in_b, out_a, out_b)
