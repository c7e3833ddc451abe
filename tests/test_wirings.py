import dataclasses
import itertools
import math

import numpy as np
import pytest

import bellwire as bw
from bellwire.errors import (
    DomainViolation,
    LengthMismatch,
    NegativeEntry,
    NormalizationViolation,
    ParameterOutOfRange,
    ScenarioMismatch,
)
from bellwire.wirings import ALICE_FIRST

SC2222 = bw.Scenario(2, 2, 2, 2)
SC_PAIR = bw.Scenario(2, 2, 1, 2)
SC4422 = bw.Scenario(4, 2, 4, 2)

# setting sets of the four-setting construction: the fold sends S2 to the
# anti-correlated block and everything else to the correlated one
S2 = {(1, 1), (1, 3), (3, 1), (3, 3)}
S1 = {(c, s) for c in range(4) for s in range(4)} - S2


def test_identity_gw_is_identity():
    w = bw.identity_global_wiring(SC2222)
    for seed in range(5):
        p = bw.random_behavior(SC2222, seed)
        assert bw.apply_gw(w, p).allclose(p, atol=1e-14)


def test_bypass_gw_emits_target():
    target = bw.random_behavior(SC2222, 99)
    w = bw.bypass_global_wiring(SC2222, target)
    for seed in range(5):
        p = bw.random_behavior(SC2222, seed)
        assert bw.apply_gw(w, p).allclose(target, atol=1e-14)
    # the bypass can map a local input to a signaling output
    assert not bw.is_no_signaling(bw.apply_gw(w, bw.white_noise(SC2222)), 1e-9).ok or \
        bw.is_no_signaling(target, 1e-9).ok


def test_gw_scenario_mismatch():
    w = bw.identity_global_wiring(SC2222)
    with pytest.raises(ScenarioMismatch):
        bw.apply_gw(w, bw.white_noise(SC_PAIR))


def test_losr_relabel_output():
    # alpha = a XOR 1 relabeling
    si = SC2222
    in_a = np.zeros((1, 2, 2))
    in_b = np.zeros((1, 2, 2))
    for c in range(2):
        in_a[0, c, c] = 1.0
        in_b[0, c, c] = 1.0
    out_a = np.zeros((1, 2, 2, 2, 2))
    out_b = np.zeros((1, 2, 2, 2, 2))
    for a in range(2):
        out_a[0, a, :, :, a ^ 1] = 1.0
        out_b[0, a, :, :, a] = 1.0
    w = bw.LosrWiring(si, si, np.ones(1), in_a, in_b, out_a, out_b)
    p = bw.random_ns_behavior(si, 4)
    got = bw.apply_losr(w, p)
    assert np.allclose(got.p[:, :, 0, :], p.p[:, :, 1, :], atol=1e-15)
    assert np.allclose(got.p[:, :, 1, :], p.p[:, :, 0, :], atol=1e-15)


def test_losr_constant_map_outputs_fixed_local_box():
    # wiring that ignores the box: both parties output their final input mod 2
    si = SC2222
    in_a = np.full((1, 2, 2), 0.5)
    in_b = np.full((1, 2, 2), 0.5)
    out_a = np.zeros((1, 2, 2, 2, 2))
    out_b = np.zeros((1, 2, 2, 2, 2))
    for c in range(2):
        out_a[0, :, :, c, c] = 1.0
        out_b[0, :, :, c, c] = 1.0
    w = bw.LosrWiring(si, si, np.ones(1), in_a, in_b, out_a, out_b)
    got = bw.apply_losr(w, bw.pr_box())
    expect = np.zeros(si.shape)
    for c in range(2):
        for s in range(2):
            expect[c, s, c, s] = 1.0
    assert np.allclose(got.p, expect, atol=1e-15)
    assert bw.is_local(got).is_local


def test_setting_fold_on_tsirelson_matches_table():
    p0 = bw.tsirelson_four_setting()
    pf = bw.apply_losr(bw.setting_fold_wiring(), p0)
    p = bw.TSIRELSON_P
    for c in range(4):
        for s in range(4):
            if (c, s) in S1:
                assert pf.p[c, s, 0, 0] == pytest.approx(p / 2, abs=1e-15)
                assert pf.p[c, s, 1, 0] == pytest.approx((1 - p) / 2, abs=1e-15)
            else:
                assert pf.p[c, s, 0, 0] == pytest.approx((1 - p) / 2, abs=1e-15)
                assert pf.p[c, s, 1, 0] == pytest.approx(p / 2, abs=1e-15)


def test_setting_fold_preserves_low_product_settings():
    # final and initial columns agree whenever the product of final
    # settings is at most one
    p0 = bw.tsirelson_four_setting()
    pf = bw.apply_losr(bw.setting_fold_wiring(), p0)
    for c in range(4):
        for s in range(4):
            if c * s <= 1:
                assert np.allclose(pf.p[c, s], p0.p[c, s], atol=1e-15)


def test_losr_preserves_ns_and_locality():
    for seed in range(25):
        w = bw.random_losr_wiring(SC2222, SC2222, seed, n_lambda=3)
        p_ns = bw.random_ns_behavior(SC2222, seed)
        assert bw.is_no_signaling(bw.apply_losr(w, p_ns), 1e-9).ok
        p_loc, _ = bw.random_local_behavior(SC2222, seed)
        assert bw.is_local(bw.apply_losr(w, p_loc), tol=1e-8).is_local


def test_losr_changing_alphabets():
    final = bw.Scenario(3, 2, 2, 3)
    w = bw.random_losr_wiring(SC2222, final, 11)
    p = bw.random_ns_behavior(SC2222, 0)
    out = bw.apply_losr(w, p)
    assert out.scenario.key() == final.key()
    assert bw.is_no_signaling(out, 1e-9).ok


def test_losr_to_gw_consistency():
    for seed in range(15):
        w = bw.random_losr_wiring(SC2222, SC2222, seed, n_lambda=3)
        gw = bw.losr_to_gw(w)
        for pseed in range(3):
            p = bw.random_behavior(SC2222, 300 + pseed)
            a = bw.apply_losr(w, p)
            b = bw.apply_gw(gw, p)
            assert np.max(np.abs(a.p - b.p)) < 1e-12


def test_losr_to_gw_mixture_of_relabelings():
    # two deterministic relabelings with different input maps: the dense
    # output box must carry the lambda correlation, not the plain average
    si = SC2222
    in_a = np.zeros((2, 2, 2))
    in_b = np.zeros((2, 2, 2))
    out_a = np.zeros((2, 2, 2, 2, 2))
    out_b = np.zeros((2, 2, 2, 2, 2))
    for c in range(2):
        in_a[0, c, c ^ 1] = 1.0  # lambda=0: flip the input, copy the output
        in_a[1, c, c] = 1.0      # lambda=1: keep the input, flip the output
        in_b[0, c, c] = 1.0
        in_b[1, c, c] = 1.0
    for a in range(2):
        out_a[0, a, :, :, a] = 1.0
        out_a[1, a, :, :, a ^ 1] = 1.0
        out_b[0, a, :, :, a] = 1.0
        out_b[1, a, :, :, a] = 1.0
    w = bw.LosrWiring(si, si, np.array([0.5, 0.5]), in_a, in_b, out_a, out_b)
    gw = bw.losr_to_gw(w)
    for seed in range(5):
        p = bw.random_behavior(si, seed)
        assert np.max(np.abs(bw.apply_losr(w, p).p - bw.apply_gw(gw, p).p)) < 1e-12


def test_losr_to_gw_identity_and_single_lambda():
    ident = bw.setting_fold_wiring()
    gw = bw.losr_to_gw(ident)
    p0 = bw.tsirelson_four_setting()
    assert bw.apply_gw(gw, p0).allclose(bw.apply_losr(ident, p0), atol=1e-12)


def test_nsw_flag():
    # a lifted single-lambda (product) wiring has no-signaling boxes; a
    # correlated mixture generally does not, because the conditional
    # output box carries the lambda posterior across sides
    w1 = bw.random_uclosr_wiring(SC2222, SC2222, 8).as_losr()
    assert bw.losr_to_gw(w1).is_no_signaling(1e-9)
    # bypass to a signaling target is not
    target = bw.random_behavior(SC2222, 5)
    assert not bw.is_no_signaling(target, 1e-9).ok
    assert not bw.bypass_global_wiring(SC2222, target).is_no_signaling(1e-9)
    # bypass to a no-signaling target is
    ns_target = bw.random_ns_behavior(SC2222, 5)
    assert bw.bypass_global_wiring(SC2222, ns_target).is_no_signaling(1e-9)


def test_uclosr_decomposition_single():
    w = bw.random_uclosr_wiring(SC2222, SC2222, 3).as_losr()
    comps = bw.uclosr_decomposition(w)
    assert len(comps) == 1
    assert comps[0][0] == 1.0


def test_uclosr_decomposition_reassembles():
    w = bw.random_losr_wiring(SC2222, SC2222, 21, n_lambda=4)
    comps = bw.uclosr_decomposition(w)
    assert len(comps) == 4
    p = bw.random_ns_behavior(SC2222, 2)
    want = bw.apply_losr(w, p).p
    got = sum(wt * bw.apply_uclosr(u, p).p for wt, u in comps)
    assert np.max(np.abs(want - got)) < 1e-12


def test_uclosr_decomposition_uniform_two():
    w = bw.random_losr_wiring(SC2222, SC2222, 77, n_lambda=2)
    object.__setattr__(w, "weights", np.array([0.5, 0.5]))
    comps = bw.uclosr_decomposition(w)
    assert [c[0] for c in comps] == [0.5, 0.5]


def test_uclosr_decomposition_of_fold_preset():
    comps = bw.uclosr_decomposition(bw.setting_fold_wiring())
    assert len(comps) == 1
    p0 = bw.tsirelson_four_setting()
    direct = bw.apply_losr(bw.setting_fold_wiring(), p0)
    assert bw.apply_uclosr(comps[0][1], p0).allclose(direct, atol=1e-15)


# ---------------------------------------------------------------------------
# WPICC
# ---------------------------------------------------------------------------


def test_feedback_preset_reproduces_final_tables():
    eps = 1 / 8
    p0, p0p = bw.doubling_pair(eps)
    w = bw.feedback_copy_wiring()
    pf = bw.apply_wpicc(w, p0)
    pfp = bw.apply_wpicc(w, p0p)
    # final behaviors are independent of chi and equal P0(a,b|x=b)
    for c in range(2):
        for a in range(2):
            for b in range(2):
                assert pf.p[c, 0, a, b] == pytest.approx(p0.p[b, 0, a, b], abs=1e-15)
                assert pfp.p[c, 0, a, b] == pytest.approx(p0p.p[b, 0, a, b], abs=1e-15)
    # explicit tables
    for c in range(2):
        assert pf.p[c, 0, 0, 0] == pytest.approx(0.5 - eps)
        assert pf.p[c, 0, 1, 0] == pytest.approx(eps)
        assert pfp.p[c, 0, 0, 0] == pytest.approx(eps)
        assert pfp.p[c, 0, 1, 0] == pytest.approx(0.5 - eps)
        assert pfp.p[c, 0, 0, 1] == pytest.approx(0.5 - eps)
        assert pfp.p[c, 0, 1, 1] == pytest.approx(eps)


def test_feedback_preset_doubles_divergence():
    for eps in (0.05, 1 / 8, 0.2, 0.3, 0.45):
        p0, p0p = bw.doubling_pair(eps)
        before = bw.behavior_re(p0, p0p).bits
        w = bw.feedback_copy_wiring()
        after = bw.behavior_re(bw.apply_wpicc(w, p0), bw.apply_wpicc(w, p0p)).bits
        assert after == pytest.approx(2.0 * before, rel=1e-12)


def test_wpicc_refuses_signaling_input():
    table = np.zeros(SC2222.shape)
    for x in range(2):
        for y in range(2):
            table[x, y, y, 0] = 1.0
    signaling = bw.Behavior(SC2222, table)
    w = bw.random_wpicc_wiring(SC2222, SC2222, 0)
    for f in (bw.apply_wpicc, bw.wpicc_local_part):
        with pytest.raises(DomainViolation):
            f(w, signaling)


def test_wpicc_none_branch_only_equals_losr():
    losr = bw.random_losr_wiring(SC2222, SC2222, 13, n_lambda=2)
    w = bw.WpiccWiring(
        SC2222, SC2222, np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
        None, None, None, None, losr,
    )
    p = bw.random_ns_behavior(SC2222, 1)
    assert bw.apply_wpicc(w, p).allclose(bw.apply_losr(losr, p), atol=1e-15)


def test_wpicc_none_branch_scenarios_are_checked():
    w = bw.random_wpicc_wiring(SC2222, SC2222, 0)
    narrow = bw.Scenario(1, 2, 1, 2)
    for initial, final in ((SC2222, narrow), (narrow, SC2222)):
        with pytest.raises(ScenarioMismatch, match="none_branch"):
            dataclasses.replace(
                w, none_branch=bw.random_losr_wiring(initial, final, 1))


def test_wpicc_simplified_two_term_form():
    # five-branch output equals p_meas * local_part + p_none * losr_output,
    # both sides assembled independently
    for seed in range(10):
        w = bw.random_wpicc_wiring(SC2222, SC2222, seed)
        p = bw.random_ns_behavior(SC2222, 100 + seed)
        full = bw.apply_wpicc(w, p)
        p_meas = w.measuring_probability
        local_term = bw.wpicc_local_part(w, p)
        losr_term = bw.apply_losr(w.none_branch, p)
        combo = p_meas * local_term.p + (1 - p_meas) * losr_term.p
        assert np.max(np.abs(full.p - combo)) < 1e-12


def test_wpicc_local_part_is_local():
    for seed in range(10):
        w = bw.random_wpicc_wiring(SC2222, SC2222, seed)
        p = bw.random_ns_behavior(SC2222, 700 + seed)
        assert bw.is_local(bw.wpicc_local_part(w, p), tol=1e-8).is_local


def test_wpicc_measuring_branches_individually_local():
    for seed in range(6):
        w = bw.random_wpicc_wiring(SC2222, SC2222, seed)
        p = bw.random_ns_behavior(SC2222, 800 + seed)
        for branch in (w.both_alice_first, w.both_bob_first):
            assert bw.is_local(branch.apply(p, w.final), tol=1e-8).is_local
        for branch in (w.alice_only, w.bob_only):
            assert bw.is_local(branch.apply(p, w.final), tol=1e-8).is_local


def test_wpicc_preserves_ns_and_locality():
    for seed in range(15):
        w = bw.random_wpicc_wiring(SC2222, SC2222, seed)
        p = bw.random_ns_behavior(SC2222, 200 + seed)
        out = bw.apply_wpicc(w, p)
        assert bw.is_no_signaling(out, 1e-9).ok
        p_loc, _ = bw.random_local_behavior(SC2222, seed)
        assert bw.is_local(bw.apply_wpicc(w, p_loc), tol=1e-8).is_local


def test_wpicc_changing_alphabets():
    final = bw.Scenario(2, 3, 3, 2)
    w = bw.random_wpicc_wiring(SC2222, final, 31)
    out = bw.apply_wpicc(w, bw.random_ns_behavior(SC2222, 3))
    assert out.scenario.key() == final.key()
    assert bw.is_no_signaling(out, 1e-9).ok


def test_gw_can_create_nonlocality_but_losr_cannot():
    # sanity contrast: the bypass to a PR box makes any local input
    # maximally nonlocal, while LOSR outputs of local inputs stay local
    w = bw.bypass_global_wiring(SC2222, bw.pr_box())
    out = bw.apply_gw(w, bw.white_noise(SC2222))
    assert not bw.is_local(out).is_local


# every field scenario attribute differs, so a shape with a swapped party
# or phase cannot pass
SI_ODD = bw.Scenario(2, 3, 3, 2)
SF_ODD = bw.Scenario(3, 2, 2, 3)
WPICC_SLOTS = ("both_alice_first", "both_bob_first", "alice_only", "bob_only")
NOT_ARRAYS = {"initial", "final", "first", "measurer", *WPICC_SLOTS, "none_branch"}


SEEDED = {"gw": bw.random_global_wiring, "losr": bw.random_losr_wiring,
          "uclosr": bw.random_uclosr_wiring, "wpicc": bw.random_wpicc_wiring}


def _holder(kind):
    """The seeded wiring of class tag `kind`, or the seeded WPICC
    wiring's branch in slot `kind`."""
    if kind in SEEDED:
        return SEEDED[kind](SI_ODD, SF_ODD, 0)
    return getattr(bw.random_wpicc_wiring(SI_ODD, SF_ODD, 0), kind)


def _rebuild(kind, name, value):
    """`_holder(kind)` with one field replaced, validated again."""
    if kind in SEEDED:
        return dataclasses.replace(_holder(kind), **{name: value})
    w = bw.random_wpicc_wiring(SI_ODD, SF_ODD, 0)
    branch = dataclasses.replace(getattr(w, kind), **{name: value})
    return dataclasses.replace(w, **{kind: branch})


def _field_cases():
    return [(kind, f.name) for kind in (*SEEDED, *WPICC_SLOTS)
            for f in dataclasses.fields(_holder(kind)) if f.name not in NOT_ARRAYS]


def test_field_cases_cover_every_class():
    # gw 2, losr 5, uclosr 4, wpicc 1 (branch_probabilities), branches 5 each
    assert len(_field_cases()) == 2 + 5 + 4 + 1 + 4 * 5


@pytest.mark.parametrize("kind,name", _field_cases())
def test_field_validation_rejects(kind, name):
    arr = np.array(getattr(_holder(kind), name))
    _rebuild(kind, name, arr)  # the unchanged field is accepted
    with pytest.raises(LengthMismatch):
        _rebuild(kind, name, arr[..., :-1])
    negative = arr.copy()
    negative.flat[0] = -0.25
    with pytest.raises(NegativeEntry):
        _rebuild(kind, name, negative)
    negative.flat[0] = np.nan
    with pytest.raises(NegativeEntry):
        _rebuild(kind, name, negative)
    unnormalized = arr.copy()
    unnormalized.flat[0] += 0.01
    with pytest.raises(NormalizationViolation, match=name):
        _rebuild(kind, name, unnormalized)


@pytest.mark.parametrize("index,slot", enumerate(WPICC_SLOTS + ("none_branch",)))
def test_wpicc_branch_with_weight_must_be_present(index, slot):
    w = bw.random_wpicc_wiring(SI_ODD, SF_ODD, 1)
    assert w.branch_probabilities[index] > 0
    with pytest.raises(ParameterOutOfRange, match=slot):
        dataclasses.replace(w, **{slot: None})
    probs = np.array(w.branch_probabilities)
    probs[index] = 0.0
    probs /= probs.sum()
    dataclasses.replace(w, branch_probabilities=probs, **{slot: None})


def test_wpicc_branch_class_is_checked():
    # a branch of the wrong class is an input error, not an AttributeError
    # on a field the class does not have
    w = bw.random_wpicc_wiring(SC2222, SC2222, 0)
    for slot, branch in (("both_alice_first", w.none_branch), ("none_branch", "losr")):
        with pytest.raises(ParameterOutOfRange, match=slot):
            dataclasses.replace(w, **{slot: branch})


@pytest.mark.parametrize("slot,other", [
    ("both_alice_first", "both_bob_first"), ("both_bob_first", "both_alice_first"),
    ("alice_only", "bob_only"), ("bob_only", "alice_only"),
])
def test_wpicc_branch_party_is_checked(slot, other):
    w = bw.random_wpicc_wiring(SI_ODD, SF_ODD, 2)
    with pytest.raises(ParameterOutOfRange):
        dataclasses.replace(w, **{slot: getattr(w, other)})
    party = "first" if slot.startswith("both") else "measurer"
    with pytest.raises(ParameterOutOfRange):
        dataclasses.replace(w, **{slot: dataclasses.replace(getattr(w, slot),
                                                             **{party: "carol"})})
    # the other party's arrays under this slot's party: the mirrored
    # shapes do not fit
    relabeled = dataclasses.replace(getattr(w, other),
                                    **{party: getattr(getattr(w, slot), party)})
    with pytest.raises(LengthMismatch):
        dataclasses.replace(w, **{slot: relabeled})


# ---------------------------------------------------------------------------
# Loop oracles: every class's application, written index by index from the
# field layouts
# ---------------------------------------------------------------------------


def _gw_oracle(w, p):
    si, sf = w.initial, w.final
    out = np.zeros(sf.shape)
    for c, s, A, B in np.ndindex(*sf.shape):
        for x, y, a, b in np.ndindex(*si.shape):
            out[c, s, A, B] += w.o_box[a, b, x, y, c, s, A, B] * p.p[x, y, a, b] * w.i_box[c, s, x, y]
    return out


def _losr_oracle(w, p):
    si, sf = w.initial, w.final
    out = np.zeros(sf.shape)
    for l, (c, s, A, B), (x, y, a, b) in itertools.product(
            range(w.n_lambda), np.ndindex(*sf.shape), np.ndindex(*si.shape)):
        out[c, s, A, B] += (w.weights[l] * w.in_a[l, c, x] * w.in_b[l, s, y] * p.p[x, y, a, b]
                            * w.out_a[l, a, x, c, A] * w.out_b[l, b, y, s, B])
    return out


def _both_measure_oracle(br, p, si, sf):
    # the first party measures at its own setting and sends (outcome,
    # setting); the second picks its setting from them; both then know
    # all four dits
    out = np.zeros(sf.shape)
    for m, (c, s, A, B), (x, y, a, b) in itertools.product(
            range(br.weights.size), np.ndindex(*sf.shape), np.ndindex(*si.shape)):
        if br.first == ALICE_FIRST:
            prep = br.d_first[x] * br.d_second[a, x, y]
        else:
            prep = br.d_first[y] * br.d_second[b, y, x]
        out[c, s, A, B] += (br.weights[m] * prep * p.p[x, y, a, b]
                            * br.out_a[m, a, b, x, y, c, A] * br.out_b[m, a, b, x, y, s, B])
    return out


def _one_measures_oracle(br, p, si, sf):
    # the measurer's dits and the other party's final setting choose the
    # other party's initial setting; each side then processes what it knows
    out = np.zeros(sf.shape)
    for m, (c, s, A, B), (x, y, a, b) in itertools.product(
            range(br.weights.size), np.ndindex(*sf.shape), np.ndindex(*si.shape)):
        if br.measurer == ALICE_FIRST:
            term = (br.d_meas[x] * br.in_other[a, x, s, y] * br.out_meas[m, a, x, c, A]
                    * br.out_other[m, a, x, b, y, s, B])
        else:
            term = (br.d_meas[y] * br.in_other[b, y, c, x] * br.out_meas[m, b, y, s, B]
                    * br.out_other[m, b, y, a, x, c, A])
        out[c, s, A, B] += br.weights[m] * term * p.p[x, y, a, b]
    return out


@pytest.mark.parametrize("si,sf", [(SI_ODD, SF_ODD), (SF_ODD, SI_ODD)])
def test_apply_matches_loop_oracle(si, sf):
    p = bw.random_ns_behavior(si, 5)
    gw = bw.random_global_wiring(si, sf, 1)
    assert np.allclose(bw.apply_gw(gw, p).p, _gw_oracle(gw, p), rtol=0, atol=1e-14)
    losr = bw.random_losr_wiring(si, sf, 2, n_lambda=3)
    assert np.allclose(bw.apply_losr(losr, p).p, _losr_oracle(losr, p), rtol=0, atol=1e-14)
    uclosr = bw.random_uclosr_wiring(si, sf, 3)
    assert np.allclose(bw.apply_uclosr(uclosr, p).p, _losr_oracle(uclosr.as_losr(), p),
                       rtol=0, atol=1e-14)
    assert np.allclose(bw.apply_gw(bw.losr_to_gw(losr), p).p, _losr_oracle(losr, p),
                       rtol=0, atol=1e-14)
    w = bw.random_wpicc_wiring(si, sf, 4)
    oracles = [_both_measure_oracle, _both_measure_oracle, _one_measures_oracle,
               _one_measures_oracle]
    table = w.branch_probabilities[4] * _losr_oracle(w.none_branch, p)
    for weight, slot, oracle in zip(w.branch_probabilities, WPICC_SLOTS, oracles):
        branch = getattr(w, slot)
        assert np.allclose(branch.apply(p, sf).p, oracle(branch, p, si, sf),
                           rtol=0, atol=1e-14)
        table += weight * oracle(branch, p, si, sf)
    assert np.allclose(bw.apply_wpicc(w, p).p, table, rtol=0, atol=1e-14)


def test_wpicc_refuses_a_box_of_another_scenario():
    w = bw.random_wpicc_wiring(SC2222, SC2222, 0)
    other = bw.random_ns_behavior(bw.Scenario(2, 2, 2, 3), 0)
    for f in (bw.apply_wpicc, bw.wpicc_local_part):
        with pytest.raises(ScenarioMismatch):
            f(w, other)
