import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellwire as bw
from bellwire.errors import (
    LengthMismatch,
    NegativeEntry,
    NormalizationViolation,
    NotNormalized,
    ParameterOutOfRange,
    ScenarioMismatch,
    VertexCapExceeded,
)

SC2222 = bw.Scenario(2, 2, 2, 2)
SC_PAIR = bw.Scenario(2, 2, 1, 2)


def test_scenario_rejects_nonpositive_fields():
    for bad in [(0, 2, 2, 2), (2, 0, 2, 2), (2, 2, -1, 2), (2, 2, 2, 0)]:
        with pytest.raises(ParameterOutOfRange):
            bw.Scenario(*bad)


def test_scenario_vertex_cap():
    with pytest.raises(VertexCapExceeded):
        bw.Scenario(5, 20, 5, 20)  # 20^5 * 20^5 >> 1e6
    sc = bw.Scenario(5, 20, 1, 1, vertex_cap=10**7)
    assert sc.vertex_count == 20**5


def test_behavior_from_array_epsilon_pair_column():
    # single-Bob-input table at eps=1/8: both x-columns are (3/8,1/8,1/8,3/8)
    # in the (a=b diag heavy) pattern
    col = [3 / 8, 1 / 8, 1 / 8, 3 / 8]
    entries = col + col
    p = bw.behavior_from_array(SC_PAIR, entries)
    assert p.p[0, 0, 0, 0] == 3 / 8
    assert p.p[1, 0, 1, 0] == 1 / 8
    assert p.allclose(bw.doubling_pair_first(1 / 8))


def test_behavior_from_array_uniform():
    p = bw.behavior_from_array(SC2222, [0.25] * 16)
    assert p.allclose(bw.white_noise(SC2222))


def test_behavior_from_array_rejects_bad_column_sum():
    entries = [1.0, 0.1, 0.0, 0.0] + [0.25] * 12
    with pytest.raises(NormalizationViolation) as err:
        bw.behavior_from_array(SC2222, entries)
    assert err.value.x == 0 and err.value.y == 0
    assert err.value.deviation == pytest.approx(0.1)


def test_behavior_from_array_rejects_wrong_length():
    with pytest.raises(LengthMismatch):
        bw.behavior_from_array(SC2222, [0.25] * 15)


def test_behavior_from_array_rejects_negative():
    entries = [-0.25, 0.5, 0.5, 0.25] + [0.25] * 12
    with pytest.raises(NegativeEntry):
        bw.behavior_from_array(SC2222, entries)


def test_behavior_table_is_immutable():
    p = bw.white_noise(SC2222)
    with pytest.raises(ValueError):
        p.p[0, 0, 0, 0] = 1.0


def test_product_with_inputs_uniform_blocks():
    p = bw.random_behavior(SC2222, 17)
    q = bw.product_with_inputs(p, bw.InputDistribution.uniform(SC2222))
    block_mass = q.q.sum(axis=(2, 3))
    assert np.allclose(block_mass, 0.25, atol=1e-15)
    assert q.q.sum() == pytest.approx(1.0, abs=1e-12)


def test_product_with_inputs_point_mass_selects_column():
    p0 = bw.doubling_pair_first(1 / 8)
    d = bw.InputDistribution.point_mass(SC_PAIR, 0, 0)
    q = bw.product_with_inputs(p0, d)
    assert np.array_equal(q.q[0, 0], p0.p[0, 0])
    assert np.all(q.q[1, 0] == 0.0)


@pytest.mark.parametrize("x, y", [(-1, 0), (2, 0), (0, -1), (0, 2), (0.5, 0), (0, 1.0)])
def test_point_mass_rejects_settings_out_of_range(x, y):
    # a negative index is not read from the end, and a float is no index
    with pytest.raises(ParameterOutOfRange):
        bw.InputDistribution.point_mass(SC2222, x, y)


def test_product_with_inputs_deterministic_behavior():
    table = np.zeros(SC2222.shape)
    table[:, :, 0, 0] = 1.0
    det = bw.Behavior(SC2222, table)
    d = bw.InputDistribution.general(SC2222, [[0.5, 0.25], [0.125, 0.125]])
    q = bw.product_with_inputs(det, d)
    assert np.array_equal(q.q[:, :, 0, 0], d.d)
    assert q.q.sum() == pytest.approx(1.0, abs=1e-15)


def test_product_with_inputs_scenario_mismatch():
    with pytest.raises(ScenarioMismatch):
        bw.product_with_inputs(
            bw.white_noise(SC2222), bw.InputDistribution.uniform(SC_PAIR)
        )


@given(st.floats(min_value=0.01, max_value=0.49))
def test_doubling_pair_tables(eps):
    p0, p0p = bw.doubling_pair(eps)
    for x in range(2):
        for a in range(2):
            for b in range(2):
                expect0 = 0.5 - eps if a == b else eps
                assert p0.p[x, 0, a, b] == expect0
                expectp = eps if a == x else 0.5 - eps
                assert p0p.p[x, 0, a, b] == expectp


@given(st.floats(min_value=0.001, max_value=0.499))
def test_doubling_pair_bob_marginal_x_independent(eps):
    # stated no-signaling property of the family
    for p in bw.doubling_pair(eps):
        mB = p.bob_marginal()  # (sA, sB, rB)
        assert np.allclose(mB[0], mB[1], atol=1e-15)


def test_doubling_pair_epsilon_range():
    for eps in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ParameterOutOfRange):
            bw.doubling_pair_first(eps)
        with pytest.raises(ParameterOutOfRange):
            bw.doubling_pair_second(eps)


def test_tsirelson_table_values():
    p = bw.TSIRELSON_P
    assert p == pytest.approx(0.5 + 0.5 / math.sqrt(2.0), abs=0)
    box = bw.tsirelson_four_setting()
    for x in range(4):
        for y in range(4):
            if x * y == 0:
                assert box.p[x, y, 0, 0] == p / 2
                assert box.p[x, y, 0, 1] == (1 - p) / 2
            elif x * y == 1:
                assert box.p[x, y, 0, 0] == (1 - p) / 2
                assert box.p[x, y, 1, 0] == p / 2
            else:
                assert np.all(box.p[x, y] == 0.25)


def test_pr_box_table():
    pr = bw.pr_box()
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    expect = 0.5 if (a ^ b) == (x & y) else 0.0
                    assert pr.p[x, y, a, b] == expect


def test_white_noise_flat():
    p = bw.white_noise(SC2222)
    assert np.all(p.p == 0.25)


def test_input_distribution_kinds():
    u = bw.InputDistribution.uniform(SC2222)
    assert np.all(u.d == 0.25)
    pr = bw.InputDistribution.product(SC2222, [0.25, 0.75], [1.0, 0.0])
    assert np.array_equal(pr.d, np.outer([0.25, 0.75], [1.0, 0.0]))
    with pytest.raises(NotNormalized):
        bw.InputDistribution.general(SC2222, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(NegativeEntry):
        bw.InputDistribution.general(SC2222, [[1.5, -0.5], [0.0, 0.0]])
    with pytest.raises(NegativeEntry):
        bw.InputDistribution.general(SC2222, [[math.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(NegativeEntry):
        bw.InputDistribution.product(SC2222, [math.nan, 0.5], [1.0, 0.0])
    with pytest.raises(NotNormalized):
        bw.InputDistribution.product(SC2222, [0.25, 0.75], [1.0, 0.5])
    # the entry count is checked before the reshape
    for d in ([0.5, 0.25, 0.25], [0.2] * 5, np.full((2, 3), 1.0 / 6)):
        with pytest.raises(LengthMismatch):
            bw.InputDistribution.general(SC2222, d)


def test_non_numeric_tables_raise_parameter_out_of_range():
    # numpy's float conversion fails before any shape or entry check
    ragged = [[0.5, 0.5], [1.0]]
    for make in (lambda: bw.Behavior(SC2222, "abc"),
                 lambda: bw.Behavior(SC2222, ragged),
                 lambda: bw.behavior_from_array(SC2222, ["x"] * 16),
                 lambda: bw.behavior_from_array(SC2222, ["0.25"] * 16),
                 lambda: bw.InputDistribution.general(SC2222, "abcd"),
                 lambda: bw.JointDistribution(SC2222, {"q": 1.0}),
                 lambda: bw.LocalModel(SC2222, ["x"] * 16),
                 lambda: bw.LocalModel(SC2222, ragged),
                 lambda: bw.LocalModel(SC2222, {"w": 1.0}),
                 lambda: bw.BellCertificate(SC2222, [["x"]], 1, 2),
                 lambda: bw.BellCertificate(SC2222, ragged, 1, 2),
                 lambda: bw.BellCertificate(SC2222, {"c": 1.0}, 1, 2),
                 lambda: bw.kl(["x", 1], [0.5, 0.5]),
                 lambda: bw.kl([0.5, 0.5], ragged),
                 lambda: bw.kl({"q": 1.0}, [1.0])):
        with pytest.raises(ParameterOutOfRange):
            make()


def test_joint_distribution_rejects_invalid_tables():
    q = np.full(SC2222.shape, 1.0 / 16)
    assert bw.JointDistribution(SC2222, q).q.sum() == 1.0
    with pytest.raises(LengthMismatch):
        bw.JointDistribution(SC2222, q[:1])
    with pytest.raises(NotNormalized):
        bw.JointDistribution(SC2222, 2 * q)
    for bad in (math.nan, math.inf, -1.0 / 16):
        table = q.copy()
        table[1, 0, 1, 1] = bad
        with pytest.raises(NegativeEntry):
            bw.JointDistribution(SC2222, table)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_mass_conservation_random(seed):
    rng = np.random.default_rng(seed)
    p = bw.random_behavior(SC2222, seed)
    d = bw.InputDistribution.general(
        SC2222, rng.dirichlet(np.ones(4)).reshape(2, 2)
    )
    q = bw.product_with_inputs(p, d)
    assert q.q.sum() == pytest.approx(1.0, abs=1e-12)
