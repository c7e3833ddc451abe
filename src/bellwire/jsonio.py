"""JSON serialization for behaviors, input distributions, certificates,
and wirings.

Numbers are written as decimal doubles with 17 significant digits, which
round-trips float64 exactly: serialize -> parse -> serialize is
byte-identical. Arrays are flat row-major; shapes are implied by the
scenario fields carried alongside.

A wiring document carries its `"class"` tag and its `"initial"` and
`"final"` scenarios, then the fields of its class's `LAYOUT` (see
`wirings.Layout`), which fixes every shape. Fields without a component
axis appear by name. Fields with one are nested in a `"components"`
list: one object per shared-randomness component, holding its
`"weight"` and its slice of each such field. A WPICC wiring stores its
branch `"probabilities"`, its four measuring branches in the same way,
each led by its `"first"` or `"measurer"` party, and its none branch as
a full LOSR wiring document.

Malformed input raises `LengthMismatch` (an array of the wrong size) or
`ParameterOutOfRange` (text that is not JSON, a missing key, an entry
that is not a number, a scenario size or local-model strategy index that
is not an integer in range, another JSON type where an object or a list
belongs). Every array is read by `behaviors._flat_table`, which checks
that it holds numbers only in a regular nesting, converts it and counts
its entries; it then passes its container's check, so a table that is
not a distribution raises `NegativeEntry` (a negative, NaN or infinite entry)
or `NotNormalized`. `wiring_from_json` also takes an already parsed
document as a dict, held to the same checks.

`dumps` writes any report value, not only a document: the CLI's CSV
reports hold the `dumps` text of each value, so every cell parses back
to the value the JSON report holds for its key.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .behaviors import (
    Behavior,
    InputDistribution,
    KIND_PRODUCT,
    KIND_UNIFORM,
    Scenario,
    _flat_table,
    _index,
)
from .divergence import DivergenceValue
from .errors import LengthMismatch, ParameterOutOfRange
from .geometry import BellCertificate, LocalModel
from .monotones import MonotoneResult
from .wirings import GlobalWiring, LosrWiring, UclosrWiring, WpiccWiring


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        if math.isnan(v):
            return "null"
        return f"{v:.17g}"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _fmt(list(value.reshape(-1)))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{_fmt(v)}" for k, v in value.items()
        ) + "}"
    raise ParameterOutOfRange(f"cannot serialize {type(value).__name__}")


def dumps(obj: Any) -> str:
    """Deterministic JSON text with 17-significant-digit doubles."""
    return _fmt(obj)


class _Doc(dict):
    """A parsed JSON object whose missing keys raise a typed error."""

    def __missing__(self, key):
        raise ParameterOutOfRange(f"missing key {key!r}")


def _object(data, name: str) -> _Doc:
    """`data`, required to be a parsed JSON object."""
    if not isinstance(data, dict):
        raise ParameterOutOfRange(f"{name}: expected a JSON object")
    return data


def _load(text: str) -> _Doc:
    try:
        data = json.loads(text, object_hook=_Doc)
    except json.JSONDecodeError as err:
        raise ParameterOutOfRange(f"not valid JSON: {err}") from None
    return _object(data, "document")


def _scenario_fields(sc: Scenario) -> dict:
    return {"sA": sc.sA, "sB": sc.sB, "rA": sc.rA, "rB": sc.rB}


def _scenario_from(data: dict, vertex_cap: int | None = None) -> Scenario:
    """The scenario of `data`; `Scenario` itself refuses sizes that are not
    JSON integers."""
    data = _object(data, "scenario")
    kwargs = {} if vertex_cap is None else {"vertex_cap": vertex_cap}
    return Scenario(data["sA"], data["rA"], data["sB"], data["rB"], **kwargs)


# -- behaviors --------------------------------------------------------------


def behavior_to_json(p: Behavior) -> str:
    doc = _scenario_fields(p.scenario)
    doc["p"] = p.flat()
    return dumps(doc)


def behavior_from_json(text: str, vertex_cap: int | None = None) -> Behavior:
    data = _load(text)
    sc = _scenario_from(data, vertex_cap)
    return Behavior(sc, _flat_table(data["p"], sc.shape, "p"))


# -- input distributions -----------------------------------------------------


def input_distribution_to_json(d: InputDistribution) -> str:
    doc: dict[str, Any] = _scenario_fields(d.scenario)
    doc["kind"] = d.kind
    if d.kind == KIND_PRODUCT:
        doc["dX"] = d.dX
        doc["dY"] = d.dY
    else:
        doc["d"] = d.d.reshape(-1)
    return dumps(doc)


def input_distribution_from_json(text: str) -> InputDistribution:
    data = _load(text)
    sc = _scenario_from(data)
    kind = data["kind"]
    if kind == KIND_UNIFORM:
        return InputDistribution.uniform(sc)
    if kind == KIND_PRODUCT:
        return InputDistribution.product(sc, _flat_table(data["dX"], (sc.sA,), "dX"),
                                         _flat_table(data["dY"], (sc.sB,), "dY"))
    return InputDistribution.general(sc, _flat_table(data["d"], (sc.sA, sc.sB), "d"))


# -- divergence and certificates ---------------------------------------------


def divergence_to_json(v: DivergenceValue) -> str:
    doc = {
        "bits": v.bits if math.isfinite(v.bits) else float("inf"),
        "argmax": list(v.argmax_setting) if v.argmax_setting is not None else None,
    }
    return dumps(doc)


def local_model_to_json(model: LocalModel) -> str:
    doc = _scenario_fields(model.scenario)
    doc["weights"] = [
        [a, b, w] for a, b, w in model.sparse_pairs(threshold=1e-15)
    ]
    return dumps(doc)


def local_model_from_json(text: str) -> LocalModel:
    data = _load(text)
    sc = _scenario_from(data)
    weights = np.zeros(sc.vertex_count)
    nA, nB = sc.n_alice_strategies, sc.n_bob_strategies
    triples = data["weights"]
    if not (isinstance(triples, list)
            and all(isinstance(t, list) and len(t) == 3 for t in triples)):
        raise ParameterOutOfRange("local-model weights must be [alice, bob, weight] lists")
    for a, b, w in triples:
        k = _index(a, nA, "alice strategy") * nB + _index(b, nB, "bob strategy")
        weights[k] = _flat_table(w, (), "local-model weight")
    return LocalModel(sc, weights)


def certificate_to_json(cert: BellCertificate) -> str:
    doc = _scenario_fields(cert.scenario)
    doc["coefficients"] = cert.coefficients.reshape(-1)
    doc["local_bound"] = cert.local_bound
    doc["value_on_behavior"] = cert.value_on_behavior
    return dumps(doc)


def certificate_from_json(text: str) -> BellCertificate:
    data = _load(text)
    sc = _scenario_from(data)
    return BellCertificate(sc, _flat_table(data["coefficients"], sc.shape, "coefficients"),
                           data["local_bound"], data["value_on_behavior"])


def monotone_result_to_json(r: MonotoneResult) -> str:
    doc: dict[str, Any] = {
        "value": r.value,
        "gap_estimate": r.gap_estimate,
        "iterations": r.iterations,
        "lower_bound": r.lower_bound,
        "optimizer_local": json.loads(local_model_to_json(r.optimizer_local)),
    }
    if r.optimizer_inputs is not None:
        doc["optimizer_inputs"] = json.loads(
            input_distribution_to_json(r.optimizer_inputs)
        )
    else:
        doc["optimizer_inputs"] = None
    return dumps(doc)


# -- wirings ------------------------------------------------------------------

_WIRING_CLASSES = {
    "gw": GlobalWiring,
    "uclosr": UclosrWiring,
    "losr": LosrWiring,
    "wpicc": WpiccWiring,
}


def _fields_doc(obj) -> dict:
    """The fields of a wiring or WPICC branch, as its layout nests them."""
    layout = obj.LAYOUT
    doc = {} if layout.party is None else {layout.party: getattr(obj, layout.party)}
    nested = [f for f in layout.fields if f.per_component]
    doc.update((f.name, getattr(obj, f.name)) for f in layout.fields
               if not f.per_component)
    if nested:
        doc["components"] = [
            {f.key or f.name: getattr(obj, f.name)[l] for f in nested}
            for l in range(obj.weights.size)
        ]
    return doc


def _fields_from(cls, doc: dict, si: Scenario, sf: Scenario):
    """Inverse of `_fields_doc`: the `cls` instance stored in `doc`."""
    layout = cls.LAYOUT
    doc = _object(doc, cls.__name__)
    party = doc[layout.party] if layout.party else None
    nested = [f for f in layout.fields if f.per_component]
    comps = doc["components"] if nested else []
    if not isinstance(comps, list):
        raise ParameterOutOfRange(f"{cls.__name__}: components must be a JSON list")
    comps = [_object(c, f"{cls.__name__} component") for c in comps]
    if nested and not comps:
        raise LengthMismatch(f"{cls.__name__} needs at least one component")
    shapes = layout.shapes(si, sf, len(comps), party)
    arrays = {
        f.name: np.stack([_flat_table(c[f.key or f.name], shapes[f.name][1:], f.name)
                          for c in comps])
        if f.per_component else _flat_table(doc[f.name], shapes[f.name], f.name)
        for f in layout.fields
    }
    return cls(party, **arrays) if layout.party else cls(si, sf, **arrays)


def _wiring_doc(w) -> dict:
    tag = next((t for t, cls in _WIRING_CLASSES.items() if isinstance(w, cls)), None)
    if tag is None:
        raise ParameterOutOfRange(f"not a wiring: {type(w).__name__}")
    doc = {
        "class": tag,
        "initial": _scenario_fields(w.initial),
        "final": _scenario_fields(w.final),
    }
    if tag != "wpicc":
        doc.update(_fields_doc(w))
        return doc
    doc["probabilities"] = w.branch_probabilities
    for name, _, party in w.BRANCHES:
        branch = getattr(w, name)
        doc[name] = (None if branch is None
                     else _wiring_doc(branch) if party is None
                     else _fields_doc(branch))
    return doc


def wiring_to_json(w) -> str:
    return dumps(_wiring_doc(w))


def wiring_from_json(text: str | dict, vertex_cap: int | None = None):
    """The wiring in a JSON document, given as text or as a parsed dict."""
    return _wiring_from(_load(text if isinstance(text, str) else dumps(text)),
                        vertex_cap)


def _wiring_from(data: _Doc, vertex_cap: int | None):
    data = _object(data, "wiring")
    tag = data.get("class")
    cls = _WIRING_CLASSES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ParameterOutOfRange(f"unknown wiring class {tag!r}")
    si = _scenario_from(data["initial"], vertex_cap)
    sf = _scenario_from(data["final"], vertex_cap)
    if cls is not WpiccWiring:
        return _fields_from(cls, data, si, sf)
    branches = [
        None if data.get(name) is None
        else _wiring_from(data[name], vertex_cap) if party is None
        else _fields_from(branch_cls, data[name], si, sf)
        for name, branch_cls, party in WpiccWiring.BRANCHES
    ]
    probs = _flat_table(data["probabilities"], (len(branches),), "probabilities")
    return WpiccWiring(si, sf, probs, *branches)
