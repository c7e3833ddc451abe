import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellwire as bw
from bellwire.errors import IndexMismatch, NegativeEntry, NotNormalized, ScenarioMismatch

SC2222 = bw.Scenario(2, 2, 2, 2)
SC_PAIR = bw.Scenario(2, 2, 1, 2)

# Independent four-term oracle for the eps = 1/8 columns:
# (3/8)log2(3) + (1/8)log2(1/3) + (1/8)log2(1) + (3/8)log2(1)
EPS8_KL_ORACLE = (3 / 8) * math.log2(3.0) + (1 / 8) * math.log2(1 / 3.0)


def closed_form(eps: float) -> float:
    return (0.5 - 2 * eps) * math.log2((0.5 - eps) / eps)


def test_kl_identical_is_zero():
    q = np.array([0.2, 0.3, 0.5])
    assert bw.kl(q, q).bits == 0.0


def test_kl_one_bit():
    assert bw.kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])).bits == 1.0


def test_kl_epsilon_columns_against_oracle():
    q = np.array([3 / 8, 1 / 8, 1 / 8, 3 / 8])
    qp = np.array([1 / 8, 3 / 8, 1 / 8, 3 / 8])
    val = bw.kl(q, qp).bits
    assert val == pytest.approx(EPS8_KL_ORACLE, abs=1e-15)
    assert val == pytest.approx(closed_form(1 / 8), abs=1e-15)
    assert val == pytest.approx(0.25 * math.log2(3.0), abs=1e-15)


def test_kl_infinite_on_support_mismatch():
    val = bw.kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert math.isinf(val.bits)
    assert not val.is_finite


def test_kl_zero_numerator_convention():
    # 0 * log(0/anything) = 0, even against a zero denominator
    assert bw.kl(np.array([0.0, 1.0]), np.array([0.0, 1.0])).bits == 0.0


def test_divergence_of_distributions_equal_up_to_rounding_is_zero():
    # two distributions equal up to rounding: the third draw's terms sum
    # to about -5e-17, which kl, conditional_re and behavior_re take as
    # 0 instead of raising NotNormalized
    rng = np.random.default_rng(0)
    sc = bw.Scenario(1, 2, 1, 2)
    uniform = bw.InputDistribution.uniform(sc)
    for draw in range(6):
        q = rng.dirichlet(np.ones(4))
        q_prime = q * (1.0 + rng.normal(0.0, 1e-15, 4))
        q_prime /= q_prime.sum()
        if draw == 2:
            assert float(np.sum(q * np.log2(q / q_prime))) < 0.0
        p, p_prime = (bw.Behavior(sc, t.reshape(sc.shape)) for t in (q, q_prime))
        for value in (bw.kl(q, q_prime), bw.conditional_re(p, p_prime, uniform),
                      bw.behavior_re(p, p_prime)):
            assert 0.0 <= value.bits < 1e-15


def test_kl_index_mismatch():
    with pytest.raises(IndexMismatch):
        bw.kl(np.array([1.0, 0.0]), np.array([0.5, 0.25, 0.25]))


def test_kl_not_normalized():
    with pytest.raises(NotNormalized):
        bw.kl(np.array([0.9, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(NotNormalized):
        bw.kl(np.array([0.5, 0.5]), np.array([0.9, 0.2]))
    # a NaN sums to neither more nor less than one, so only the entry
    # check catches it
    with pytest.raises(NegativeEntry):
        bw.kl(np.array([math.nan, 0.5, 0.5]), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(NegativeEntry):
        bw.kl(np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.5, math.nan]))
    with pytest.raises(NegativeEntry):
        bw.kl(np.array([1.5, -0.5]), np.array([0.5, 0.5]))


def test_conditional_re_equal_behaviors():
    p = bw.random_ns_behavior(SC2222, 0)
    d = bw.InputDistribution.uniform(SC2222)
    assert bw.conditional_re(p, p, d).bits == 0.0


def test_conditional_re_point_mass_is_column_kl():
    p, pp = bw.random_ns_behavior(SC2222, 1), bw.random_ns_behavior(SC2222, 2)
    d = bw.InputDistribution.point_mass(SC2222, 1, 0)
    want = bw.kl(p.p[1, 0], pp.p[1, 0]).bits
    assert bw.conditional_re(p, pp, d).bits == pytest.approx(want, abs=1e-15)


@given(st.floats(min_value=0.01, max_value=0.49))
@settings(max_examples=30)
def test_conditional_re_doubling_pair_closed_form(eps):
    # both settings give the same per-setting divergence, so the uniform
    # average equals the closed form
    p0, p0p = bw.doubling_pair(eps)
    d = bw.InputDistribution.uniform(SC_PAIR)
    got = bw.conditional_re(p0, p0p, d).bits
    assert got == pytest.approx(closed_form(eps), rel=1e-12)
    table = bw.per_setting_kl(p0, p0p)
    assert table[0, 0] == table[1, 0]


def test_conditional_re_route_agreement():
    rng = np.random.default_rng(11)
    for seed in range(20):
        p = bw.random_ns_behavior(SC2222, seed)
        pp = bw.random_ns_behavior(SC2222, seed + 1000)
        d = bw.InputDistribution.general(SC2222, rng.dirichlet(np.ones(4)).reshape(2, 2))
        via_avg = bw.conditional_re(p, pp, d).bits
        via_joint = bw.kl(
            bw.product_with_inputs(p, d).q, bw.product_with_inputs(pp, d).q
        ).bits
        assert via_avg == pytest.approx(via_joint, abs=1e-12)


def test_conditional_re_zero_weight_masks_infinite_setting():
    # p' has an empty support cell at (x,y)=(0,0); giving that setting
    # zero weight keeps the average finite, both routes agreeing
    p = bw.pr_box()
    noise = bw.white_noise(SC2222)
    table = np.array(noise.p, copy=True)
    table[0, 0] = [[0.5, 0.5], [0.0, 0.0]]
    pp = bw.Behavior(SC2222, table)
    assert math.isinf(bw.per_setting_kl(p, pp)[0, 0])
    d = bw.InputDistribution.general(SC2222, [[0.0, 0.5], [0.25, 0.25]])
    via_avg = bw.conditional_re(p, pp, d).bits
    via_joint = bw.kl(
        bw.product_with_inputs(p, d).q, bw.product_with_inputs(pp, d).q
    ).bits
    assert math.isfinite(via_avg)
    assert via_avg == pytest.approx(via_joint, abs=1e-12)
    # with weight on the bad setting, both routes go infinite
    du = bw.InputDistribution.uniform(SC2222)
    assert math.isinf(bw.conditional_re(p, pp, du).bits)


def test_behavior_re_doubling_pair_value_and_argmax():
    p0, p0p = bw.doubling_pair(1 / 8)
    val = bw.behavior_re(p0, p0p)
    assert val.bits == pytest.approx(0.25 * math.log2(3.0), abs=1e-15)
    # both settings tie; lexicographic tie-break selects (0, 0)
    assert val.argmax_setting == (0, 0)


def test_behavior_re_equal_behaviors():
    p = bw.random_ns_behavior(SC2222, 5)
    val = bw.behavior_re(p, p)
    assert val.bits == 0.0


def test_behavior_re_scenario_mismatch():
    with pytest.raises(ScenarioMismatch):
        bw.behavior_re(bw.white_noise(SC2222), bw.white_noise(SC_PAIR))


def test_average_below_max_property():
    rng = np.random.default_rng(3)
    for seed in range(20):
        p = bw.random_ns_behavior(SC2222, seed)
        pp = bw.random_ns_behavior(SC2222, 500 + seed)
        d = bw.InputDistribution.general(SC2222, rng.dirichlet(np.ones(4)).reshape(2, 2))
        assert bw.conditional_re(p, pp, d).bits <= bw.behavior_re(p, pp).bits + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.0, max_value=1.0))
def test_kl_joint_convexity(seed, mu):
    rng = np.random.default_rng(seed)
    q1, q2 = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
    r1, r2 = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
    mixed = bw.kl(mu * q1 + (1 - mu) * q2, mu * r1 + (1 - mu) * r2).bits
    split = mu * bw.kl(q1, r1).bits + (1 - mu) * bw.kl(q2, r2).bits
    assert mixed <= split + 1e-10


SC3333 = bw.Scenario(3, 3, 3, 3)


def _per_support_kl(q: np.ndarray, q_prime: np.ndarray) -> float:
    """Oracle: the sum over q's support alone, +inf on a support mismatch."""
    pos = q > 0.0
    if np.any(q_prime[pos] == 0.0):
        return math.inf
    return float(np.sum(q[pos] * np.log2(q[pos] / q_prime[pos])))


def _pair_3333(inf_settings):
    """Two 3333 behaviors, not no-signaling, with zeros in both tables:
    settings in inf_settings put q' = 0 on q's support, (0, 1) has
    q = q', (0, 2) has q' = 0 only off q's support, and (1, 0) and (2, 2)
    share the same pair of columns, far apart."""
    rng = np.random.default_rng(7)
    p, pp = rng.dirichlet(np.ones(9), (3, 3)), rng.dirichlet(np.ones(9), (3, 3))
    p[:, :, ::4] = 0.0  # 0 * log 0 terms against positive and zero q'
    pp[0, 2, ::4] = 0.0
    pp[0, 1] = p[0, 1]
    for x, y in inf_settings:
        pp[x, y, 1] = 0.0
    p[1, 0] = p[2, 2] = [0.0, 0.9, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    pp[1, 0] = pp[2, 2] = np.full(9, 1.0 / 9.0)
    p /= p.sum(axis=2, keepdims=True)
    pp /= pp.sum(axis=2, keepdims=True)
    shape = SC3333.shape
    return bw.Behavior(SC3333, p.reshape(shape)), bw.Behavior(SC3333, pp.reshape(shape))


def test_kl_evaluator_matches_per_support_oracle_at_3333():
    # rows of 9 outcome pairs: the zero-filled row sums may differ from
    # the per-support sums in the last digit, never in where they are
    # +inf or exactly 0
    for inf_settings, argmax in (((), (1, 0)), (((1, 2), (2, 1)), (1, 2))):
        p, pp = _pair_3333(inf_settings)
        oracle = np.array([[_per_support_kl(p.p[x, y].ravel(), pp.p[x, y].ravel())
                            for y in range(3)] for x in range(3)])
        table = bw.per_setting_kl(p, pp)
        np.testing.assert_allclose(table, oracle, rtol=1e-13, atol=0.0)
        assert np.array_equal(np.isinf(table), np.isinf(oracle))
        assert np.isinf(oracle).sum() == len(inf_settings)
        assert table[0, 1] == 0.0 and oracle[0, 1] == 0.0
        assert 0.0 < table[0, 2] < math.inf
        # the tied maximum, or the first +inf, in lexicographic order
        assert table[1, 0] == table[2, 2] == np.max(oracle[np.isfinite(oracle)])
        val = bw.behavior_re(p, pp)
        assert val.argmax_setting == argmax
        assert val.bits == table[argmax]
        for d in (bw.InputDistribution.uniform(SC3333),
                  bw.InputDistribution.general(SC3333, np.arange(9.0) / 36.0)):
            q = bw.product_with_inputs(p, d).q
            qp = bw.product_with_inputs(pp, d).q
            got = bw.kl(q, qp).bits
            want = _per_support_kl(q.ravel(), qp.ravel())
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert bw.kl(q, q).bits == 0.0
