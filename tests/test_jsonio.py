import json
import math
from pathlib import Path

import numpy as np
import pytest

import bellwire as bw
from bellwire import jsonio
from bellwire.errors import (
    LengthMismatch,
    NegativeEntry,
    NotNormalized,
    ParameterOutOfRange,
)

SC2222 = bw.Scenario(2, 2, 2, 2)


def test_behavior_roundtrip_byte_identical():
    for seed in range(10):
        p = bw.random_ns_behavior(SC2222, seed)
        text = jsonio.behavior_to_json(p)
        p2 = jsonio.behavior_from_json(text)
        assert np.array_equal(p.p, p2.p)
        assert jsonio.behavior_to_json(p2) == text


def test_behavior_json_schema():
    p = bw.doubling_pair_first(1 / 8)
    doc = json.loads(jsonio.behavior_to_json(p))
    assert set(doc.keys()) == {"sA", "sB", "rA", "rB", "p"}
    assert doc["sA"] == 2 and doc["sB"] == 1
    assert len(doc["p"]) == 8
    assert doc["p"][0] == 0.375


def test_input_distribution_roundtrip_all_kinds():
    u = bw.InputDistribution.uniform(SC2222)
    pr = bw.InputDistribution.product(SC2222, [0.25, 0.75], [0.5, 0.5])
    g = bw.InputDistribution.general(SC2222, [[0.1, 0.2], [0.3, 0.4]])
    for d in (u, pr, g):
        text = jsonio.input_distribution_to_json(d)
        d2 = jsonio.input_distribution_from_json(text)
        assert d2.kind == d.kind
        assert np.array_equal(d2.d, d.d)
        assert jsonio.input_distribution_to_json(d2) == text


def test_product_kind_stores_marginals():
    pr = bw.InputDistribution.product(SC2222, [0.25, 0.75], [0.5, 0.5])
    doc = json.loads(jsonio.input_distribution_to_json(pr))
    assert doc["kind"] == "product"
    assert doc["dX"] == [0.25, 0.75]
    assert "d" not in doc


def test_divergence_serialization():
    val = bw.behavior_re(bw.doubling_pair_first(0.125), bw.doubling_pair_second(0.125))
    doc = json.loads(jsonio.divergence_to_json(val))
    assert doc["argmax"] == [0, 0]
    assert doc["bits"] == pytest.approx(0.25 * math.log2(3))
    inf_doc = json.loads(jsonio.divergence_to_json(bw.DivergenceValue(math.inf)))
    assert inf_doc["bits"] == "inf"
    assert inf_doc["argmax"] is None


def test_local_model_roundtrip():
    p, model = bw.random_local_behavior(SC2222, 4)
    text = jsonio.local_model_to_json(model)
    model2 = jsonio.local_model_from_json(text)
    assert np.allclose(model.weights, model2.weights, atol=1e-15)
    assert model2.matches(p, tol=1e-8)


def test_certificate_roundtrip_and_verification():
    res = bw.is_local(bw.pr_box())
    cert = res.certificate
    text = jsonio.certificate_to_json(cert)
    cert2 = jsonio.certificate_from_json(text)  # re-validates on construction
    assert cert2.local_bound == cert.local_bound
    assert cert2.value_on(bw.pr_box()) == cert.value_on_behavior


def test_wiring_roundtrip_all_classes():
    p = bw.random_ns_behavior(SC2222, 3)
    wirings = [
        bw.random_global_wiring(SC2222, SC2222, 0),
        bw.random_losr_wiring(SC2222, SC2222, 1, n_lambda=3),
        bw.random_uclosr_wiring(SC2222, SC2222, 2),
        bw.random_wpicc_wiring(SC2222, SC2222, 3),
        bw.feedback_copy_wiring(),
        bw.setting_fold_wiring(),
    ]
    for w in wirings:
        text = jsonio.wiring_to_json(w)
        w2 = jsonio.wiring_from_json(text)
        assert jsonio.wiring_to_json(w2) == text
        if isinstance(w, bw.WpiccWiring):
            if w.initial.key() == p.scenario.key():
                a, b = bw.apply_wpicc(w, p), bw.apply_wpicc(w2, p)
                assert a.allclose(b, atol=0.0)
        elif w.initial.key() == p.scenario.key():
            a = bw.apply_wiring(w, p)
            b = bw.apply_wiring(w2, p)
            assert a.allclose(b, atol=0.0)


def test_monotone_result_serialization():
    r = bw.s_u(bw.pr_box(), 1e-6)
    doc = json.loads(jsonio.monotone_result_to_json(r))
    assert doc["value"] == pytest.approx(math.log2(4 / 3), abs=1e-5)
    assert doc["lower_bound"] is False
    assert doc["optimizer_inputs"] is None
    assert len(doc["optimizer_local"]["weights"]) >= 1


def test_seventeen_digit_floats():
    # a value needing all 17 significant digits survives the round trip
    x = 0.1234567890123456789
    p = bw.Behavior(
        bw.Scenario(1, 1, 1, 2),
        np.array([[[[x, 1.0 - x]]]]),
    )
    text = jsonio.behavior_to_json(p)
    assert jsonio.behavior_from_json(text).p[0, 0, 0, 0] == x


SEEDED_WIRINGS = Path(__file__).parent / "data" / "seeded_wirings.txt"


def seeded_wirings():
    """Named seeded wirings whose JSON text is pinned in SEEDED_WIRINGS.

    The asymmetric pair makes every scenario field distinct, so a shape
    with a swapped party or phase cannot go unnoticed.
    """
    pairs = {
        "2222": (SC2222, SC2222, (0, 1, 2)),
        "2222-2322": (SC2222, bw.Scenario(2, 3, 2, 2), (4,)),
        "2332-3223": (bw.Scenario(2, 3, 3, 2), bw.Scenario(3, 2, 2, 3), (5,)),
    }
    generators = {
        "gw": bw.random_global_wiring,
        "losr1": lambda si, sf, seed: bw.random_losr_wiring(si, sf, seed, n_lambda=1),
        "losr3": lambda si, sf, seed: bw.random_losr_wiring(si, sf, seed, n_lambda=3),
        "uclosr": bw.random_uclosr_wiring,
        "wpicc": bw.random_wpicc_wiring,
    }
    out = [("feedback-wpicc", bw.feedback_copy_wiring()),
           ("setting-fold-losr", bw.setting_fold_wiring())]
    for pair, (si, sf, seeds) in pairs.items():
        for gen_name, gen in generators.items():
            for seed in seeds:
                out.append((f"{gen_name}-{pair}-{seed}", gen(si, sf, seed)))
    return out


def test_seeded_wirings_match_golden_json():
    # recorded before the per-class field layouts replaced the hand-written
    # shapes: seeds keep their wirings and the JSON keeps its bytes
    golden = dict(
        line.split(" ", 1) for line in SEEDED_WIRINGS.read_text().splitlines()
    )
    cases = seeded_wirings()
    assert [name for name, _ in cases] == list(golden)
    for name, w in cases:
        text = jsonio.wiring_to_json(w)
        assert text == golden[name], name
        assert jsonio.wiring_to_json(jsonio.wiring_from_json(text)) == text, name


def test_wiring_from_parsed_dict():
    w = bw.random_wpicc_wiring(SC2222, SC2222, 3)
    text = jsonio.wiring_to_json(w)
    doc = json.loads(text)
    assert jsonio.wiring_to_json(jsonio.wiring_from_json(doc)) == text
    # a plain dict is held to the same typed errors as text
    with pytest.raises(ParameterOutOfRange, match="missing key"):
        jsonio.wiring_from_json({k: v for k, v in doc.items() if k != "final"})
    with pytest.raises(ParameterOutOfRange, match="missing key"):
        jsonio.wiring_from_json(dict(doc, none_branch={"class": "losr"}))
    with pytest.raises(ParameterOutOfRange, match="wiring class"):
        jsonio.wiring_from_json(dict(doc, **{"class": ["wpicc"]}))


@pytest.mark.parametrize("size", ["x", "2", 2.5, True, [2], {"n": 2}, None])
def test_scenario_sizes_must_be_integers(size):
    doc = json.loads(jsonio.behavior_to_json(bw.pr_box()))
    with pytest.raises(ParameterOutOfRange, match="must be an integer"):
        jsonio.behavior_from_json(json.dumps(dict(doc, sA=size)))
    w = json.loads(jsonio.wiring_to_json(bw.random_losr_wiring(SC2222, SC2222, 0)))
    with pytest.raises(ParameterOutOfRange, match="must be an integer"):
        jsonio.wiring_from_json(json.dumps(dict(w, final=dict(w["final"], rB=size))))


def test_scenario_must_be_an_object():
    w = json.loads(jsonio.wiring_to_json(bw.random_losr_wiring(SC2222, SC2222, 0)))
    with pytest.raises(ParameterOutOfRange, match="expected a JSON object"):
        jsonio.wiring_from_json(dict(w, initial=[2, 2, 2, 2]))


@pytest.mark.parametrize("slot,value", [
    ("none_branch", 3),
    ("alice_only", [1, 2]),
    ("alice_only", {"measurer": "alice", "components": 3}),
    ("alice_only", {"measurer": "alice", "components": [[1]]}),
    ("alice_only", {"measurer": "alice", "components": {"weight": 1}}),
])
def test_wiring_parts_must_be_objects(slot, value):
    doc = json.loads(jsonio.wiring_to_json(bw.random_wpicc_wiring(SC2222, SC2222, 3)))
    with pytest.raises(ParameterOutOfRange, match="expected a JSON object|JSON list"):
        jsonio.wiring_from_json(json.dumps(dict(doc, **{slot: value})))


@pytest.mark.parametrize("triple", [
    [-1, 0, 1.0], [16, 0, 1.0], [99, 0, 1.0], [0, 4, 1.0], ["x", 0, 1.0],
    [1.0, 0, 1.0], [True, 0, 1.0], [0, None, 1.0], [0, 0], 5,
])
def test_local_model_strategy_indices_are_checked(triple):
    doc = json.loads(jsonio.local_model_to_json(bw.LocalModel(SC2222, np.eye(16)[3])))
    assert doc["weights"] == [[0, 3, 1.0]]
    with pytest.raises(ParameterOutOfRange):
        jsonio.local_model_from_json(json.dumps(dict(doc, weights=[triple])))


def test_local_model_json_rejects_invalid_weights():
    doc = json.loads(jsonio.local_model_to_json(bw.LocalModel(SC2222, np.eye(16)[3])))
    # json writes a NaN weight as the bare token NaN, which json reads back
    with pytest.raises(NegativeEntry):
        jsonio.local_model_from_json(json.dumps(dict(doc, weights=[[0, 3, math.nan]])))
    with pytest.raises(ParameterOutOfRange):
        jsonio.local_model_from_json(json.dumps(dict(doc, weights=[[0, 3, "1"]])))
    with pytest.raises(NotNormalized):
        jsonio.local_model_from_json(json.dumps(dict(doc, weights=[[0, 3, 0.5]])))


def test_malformed_behavior_and_input_distribution_arrays():
    doc = json.loads(jsonio.behavior_to_json(bw.pr_box()))
    for p in (["a"] * 16, [None] * 16, [[0.25] * 4, [0.25] * 3]):
        with pytest.raises(ParameterOutOfRange):
            jsonio.behavior_from_json(json.dumps(dict(doc, p=p)))
    with pytest.raises(LengthMismatch):
        jsonio.behavior_from_json(json.dumps(dict(doc, p=doc["p"][:-1])))
    d = json.loads(jsonio.input_distribution_to_json(bw.InputDistribution.uniform(SC2222)))
    general = dict(d, kind="general", d=[0.5, 0.25, 0.25])
    with pytest.raises(LengthMismatch):
        jsonio.input_distribution_from_json(json.dumps(general))
    with pytest.raises(ParameterOutOfRange):
        jsonio.input_distribution_from_json(json.dumps(dict(general, d="x")))
    product = dict(d, kind="product", dX=[0.5, 0.5], dY=[1.0])
    with pytest.raises(LengthMismatch):
        jsonio.input_distribution_from_json(json.dumps(product))
    with pytest.raises(NegativeEntry):
        jsonio.input_distribution_from_json(json.dumps(dict(product, dY=[1.0, math.nan])))
