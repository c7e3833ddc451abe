import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellwire as bw
from bellwire.errors import (
    NegativeEntry,
    NotNormalized,
    ScenarioMismatch,
    SolverFailure,
    VertexCapExceeded,
)

SC2222 = bw.Scenario(2, 2, 2, 2)
SC_PAIR = bw.Scenario(2, 2, 1, 2)
SC4422 = bw.Scenario(4, 2, 4, 2)


def test_vertex_counts():
    assert len(bw.enumerate_local_vertices(SC2222)) == 16
    assert bw.local_vertex_matrix(SC4422).shape[0] == 256
    assert len(bw.enumerate_local_vertices(bw.Scenario(2, 1, 1, 2))) == 2


def test_vertices_are_deterministic_and_distinct():
    V = bw.local_vertex_matrix(SC2222)
    assert set(np.unique(V)) == {0.0, 1.0}
    assert len({tuple(row) for row in V}) == 16


@pytest.mark.parametrize("key", [(3, 2, 2, 3), (2, 3, 4, 2), (1, 2, 3, 1)])
def test_vertex_matrix_is_one_read_only_column_major_array(key):
    # every reader, the quantifier engine included, reads this one array
    # in place: the same object on every call, read-only, with contiguous
    # columns, and entries equal to a loop over the strategy digits
    sc = bw.Scenario(*key)
    V = bw.local_vertex_matrix(sc)
    assert V is bw.local_vertex_matrix(sc)
    assert V.flags.f_contiguous and not V.flags.writeable
    with pytest.raises(ValueError):
        V[0, 0] = 1.0
    want = np.zeros((sc.vertex_count,) + sc.shape)
    for alpha in range(sc.rA**sc.sA):
        for beta in range(sc.rB**sc.sB):
            for x in range(sc.sA):
                a = alpha // sc.rA ** (sc.sA - 1 - x) % sc.rA
                for y in range(sc.sB):
                    b = beta // sc.rB ** (sc.sB - 1 - y) % sc.rB
                    want[alpha * sc.rB**sc.sB + beta, x, y, a, b] = 1.0
    assert np.array_equal(V, want.reshape(sc.vertex_count, -1))


def test_vertex_order_is_lexicographic():
    # vertex 0: both parties output 0 everywhere
    verts = bw.enumerate_local_vertices(SC2222)
    assert verts[0].p[0, 0, 0, 0] == 1.0
    assert verts[0].p[1, 1, 0, 0] == 1.0
    # vertex 1: bob strategy index 1 = outcomes (0,1)
    assert verts[1].p[0, 0, 0, 0] == 1.0
    assert verts[1].p[0, 1, 0, 1] == 1.0


def test_vertex_cap_enforced_at_construction():
    with pytest.raises(VertexCapExceeded):
        bw.Scenario(2, 2, 2, 2, vertex_cap=10)
    sc = bw.Scenario(5, 20, 1, 1, vertex_cap=10**7)
    assert sc.vertex_count == 3200000


def test_all_vertices_no_signaling():
    # L is inside NS
    for v in bw.enumerate_local_vertices(SC2222):
        assert bw.is_no_signaling(v, 1e-12).ok


def test_pr_box_no_signaling():
    assert bw.is_no_signaling(bw.pr_box(), 1e-12).ok


def test_signaling_behavior_detected():
    # Alice's outcome copies Bob's setting: maximally signaling
    table = np.zeros(SC2222.shape)
    for x in range(2):
        for y in range(2):
            table[x, y, y, 0] = 1.0
    p = bw.Behavior(SC2222, table)
    rep = bw.is_no_signaling(p, 1e-9)
    assert not rep.ok
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.worst[0] == "alice"


@given(st.floats(min_value=0.001, max_value=0.499))
@settings(max_examples=30)
def test_doubling_family_no_signaling(eps):
    for p in bw.doubling_pair(eps):
        assert bw.is_no_signaling(p, 1e-12).ok


def test_doubling_first_is_local():
    res = bw.is_local(bw.doubling_pair_first(1 / 8))
    assert res.is_local
    assert res.model.matches(bw.doubling_pair_first(1 / 8), tol=1e-8)


def test_doubling_second_is_local():
    res = bw.is_local(bw.doubling_pair_second(0.3))
    assert res.is_local


def test_pr_box_nonlocal_with_verified_certificate():
    res = bw.is_local(bw.pr_box())
    assert not res.is_local
    cert = res.certificate
    # re-verify exhaustively, independent of the solver
    f = cert.coefficients.reshape(-1)
    values = bw.local_vertex_matrix(SC2222) @ f
    assert np.max(values) == pytest.approx(cert.local_bound, abs=1e-12)
    assert cert.value_on(bw.pr_box()) > np.max(values) + 1e-9
    # a certificate whose bound does not re-check is refused, NaN included
    nan = cert.coefficients.copy()
    nan[0, 0, 0, 0] = np.nan
    for coeff, bound in ((cert.coefficients, cert.local_bound + 1e-6),
                         (nan, cert.local_bound)):
        with pytest.raises(SolverFailure):
            bw.BellCertificate(SC2222, coeff, bound, cert.value_on_behavior)


def test_certificates_refuse_a_box_of_another_scenario():
    # 4222 and 2242 tables both have 32 entries and 64 vertices, so a
    # plain product would read one box through the other's layout
    sc, other = bw.Scenario(4, 2, 2, 2), bw.Scenario(2, 2, 4, 2)
    pr = bw.pr_box().p
    cert = bw.is_local(bw.Behavior(sc, pr[[0, 1, 0, 1]])).certificate
    model = bw.random_local_behavior(sc, 0)[1]
    q = bw.random_ns_behavior(other, 0)
    with pytest.raises(ScenarioMismatch):
        cert.value_on(q)
    with pytest.raises(ScenarioMismatch):
        model.matches(q)


def test_every_vertex_is_local_with_unit_weight():
    for i, v in enumerate(bw.enumerate_local_vertices(SC2222)):
        res = bw.is_local(v)
        assert res.is_local
        w = res.model.weights
        # reconstruction must match; the weight vector reconstructs v
        assert res.model.matches(v, tol=1e-9)


@given(
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_vertex_mixtures_are_local(i, j, mu):
    V = bw.local_vertex_matrix(SC2222)
    mix = mu * V[i] + (1 - mu) * V[j]
    p = bw.Behavior(SC2222, mix.reshape(SC2222.shape))
    assert bw.is_local(p).is_local


def test_local_model_reconstruction_accuracy():
    p, model = bw.random_local_behavior(SC2222, 5)
    assert np.max(np.abs(model.reconstruct().p - p.p)) < 1e-8
    res = bw.is_local(p)
    assert res.is_local
    assert res.model.matches(p, tol=1e-8)


def test_sparse_pairs_lists_weights_above_threshold():
    _, model = bw.random_local_behavior(SC2222, 4)
    t = float(np.median(model.weights))
    expected = [(i // 4, i % 4, float(w)) for i, w in enumerate(model.weights) if w > t]
    pairs = model.sparse_pairs(t)
    assert pairs == expected and len(pairs) == 8
    assert all(type(v) is k for pair in pairs for v, k in zip(pair, (int, int, float)))


def test_local_model_rejects_bad_weights():
    w = np.full(16, 1.0 / 16)
    with pytest.raises(NotNormalized):
        bw.LocalModel(SC2222, 0.5 * w)
    w[0], w[1] = -w[0], 3.0 * w[1]
    with pytest.raises(NegativeEntry):
        bw.LocalModel(SC2222, w)
    w[0], w[1] = np.nan, 1.0 / 16
    with pytest.raises(NegativeEntry):
        bw.LocalModel(SC2222, w)


def test_random_ns_behavior_contract():
    for seed in range(20):
        p = bw.random_ns_behavior(SC2222, seed)
        assert bw.is_no_signaling(p, 1e-9).ok
    a = bw.random_ns_behavior(SC2222, 123)
    b = bw.random_ns_behavior(SC2222, 123)
    assert np.array_equal(a.p, b.p)


def test_random_ns_behavior_other_scenarios():
    for sc in (SC_PAIR, bw.Scenario(3, 2, 2, 3), SC4422):
        p = bw.random_ns_behavior(sc, 9)
        assert bw.is_no_signaling(p, 1e-9).ok


@pytest.mark.parametrize(
    "key", [(2, 2, 2, 2), (3, 2, 2, 3), (1, 2, 2, 2), (2, 2, 1, 3), (2, 1, 2, 2),
            (1, 1, 1, 1), (4, 3, 4, 3)]
)
def test_ns_constraints_hold_on_every_vertex_with_full_rank(key):
    from bellwire.geometry import _ns_projector

    sA, rA, sB, rB = key
    sc = bw.Scenario(*key)
    C, _, d = _ns_projector(key)
    V = bw.local_vertex_matrix(sc)
    assert np.all(C @ V.T == d[:, None])
    # the no-signaling set spans an affine subspace of dimension
    # (sA(rA-1)+1)(sB(rB-1)+1) - 1, the local polytope's
    ns_dim = (sA * (rA - 1) + 1) * (sB * (rB - 1) + 1) - 1
    assert np.linalg.matrix_rank(C) == sc.table_size - ns_dim


def test_degenerate_scenarios_ns_implies_local():
    # one-outcome parties collapse the polytope: every no-signaling
    # behavior there is local
    for sc in (bw.Scenario(2, 1, 2, 2), bw.Scenario(1, 1, 1, 1), bw.Scenario(2, 1, 1, 2)):
        for seed in range(5):
            p = bw.random_ns_behavior(sc, seed)
            assert bw.is_local(p).is_local


def test_single_bob_setting_ns_implies_local():
    # Bob with one input cannot make any no-signaling behavior nonlocal
    for seed in range(10):
        p = bw.random_ns_behavior(SC_PAIR, seed)
        assert bw.is_local(p).is_local


def test_membership_verdict_matches_dantzig_resolve():
    for seed in range(50):
        p = (
            bw.random_behavior(SC2222, seed)
            if seed % 2
            else bw.random_ns_behavior(SC2222, seed)
        )
        assert (
            bw.is_local(p, pivot="bland").is_local
            == bw.is_local(p, pivot="dantzig").is_local
        )


def test_strategy_enumeration():
    from bellwire.geometry import alice_strategy, bob_strategy

    s = alice_strategy(SC4422, 5)
    assert s.outcomes == (0, 1, 0, 1)
    t = bob_strategy(SC2222, 2)
    assert t.outcomes == (1, 0)


@pytest.mark.parametrize("index", [-1, 4, 17, 1.5])
def test_strategy_index_out_of_range(index):
    from bellwire.errors import ParameterOutOfRange
    from bellwire.geometry import alice_strategy, bob_strategy

    # 2222 has 4 strategies per party, indexed 0..3; a float is not
    # truncated to one
    for strategy in (alice_strategy, bob_strategy):
        with pytest.raises(ParameterOutOfRange):
            strategy(SC2222, index)


@pytest.mark.parametrize("key", [
    (2, 2, 2, 2), (4, 3, 4, 3), (3, 2, 2, 3), (2, 1, 2, 2), (1, 1, 1, 1),
    (3, 3, 3, 3), (4, 2, 4, 2),
])
def test_vertices_match_dense_vertex_matrix(key):
    from bellwire.geometry import Vertices, alice_strategy, bob_strategy

    sc = bw.Scenario(*key)
    V = bw.local_vertex_matrix(sc)
    A = np.vstack([V.T, np.ones(V.shape[0])])
    vertices = Vertices(sc)
    assert np.array_equal(vertices.dense, V)
    assert vertices.shape == A.shape
    assert alice_strategy(sc, len(vertices.alice) - 1).outcomes == tuple(vertices.alice[-1])
    assert bob_strategy(sc, len(vertices.bob) - 1).outcomes == tuple(vertices.bob[-1])
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = rng.normal(size=A.shape[0])
        assert np.max(np.abs(vertices.price(y) - (V @ y[:-1] + y[-1]))) <= 1e-12
    # the best-response maximum: exact on small-integer functionals,
    # whose maxima are tied across many vertices, and within rounding
    # on Gaussian ones
    for _ in range(20):
        c = rng.integers(-2, 3, size=sc.table_size).astype(float)
        assert vertices.best(c) == np.max(V @ c)
        c = rng.normal(size=sc.table_size)
        assert abs(vertices.best(c.reshape(sc.shape)) - np.max(V @ c)) <= 1e-12
    assert np.array_equal(vertices.columns(np.arange(A.shape[1])), A)
    for j in rng.choice(A.shape[1], size=min(A.shape[1], 40), replace=False):
        assert np.array_equal(vertices.columns([int(j)])[:, 0], A[:, j])


def _highs_is_local(p):
    from scipy.optimize import linprog

    V = bw.local_vertex_matrix(p.scenario)
    A = np.vstack([V.T, np.ones(V.shape[0])])
    b = np.append(p.flat(), 1.0)
    res = linprog(np.zeros(V.shape[0]), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs")
    assert res.status in (0, 2)  # feasible or infeasible, nothing else
    return res.status == 0


def _assert_certified(p, res):
    """Re-check the verdict's certificate without trusting the solver."""
    if res.is_local:
        assert res.model.matches(p)
    else:
        cert = res.certificate
        bound = float(np.max(bw.local_vertex_matrix(p.scenario)
                             @ cert.coefficients.reshape(-1)))
        # construction recomputes the exhaustive bound and the separation
        bw.BellCertificate(p.scenario, cert.coefficients, bound, cert.value_on(p))


def _embedded_pr(sc, visibility, seed):
    """A no-signaling box: the PR correlations a xor b = [x > 0][y > 0] on
    outcomes {0, 1}, mixed with a random no-signaling box."""
    t = np.zeros(sc.shape)
    for x in range(sc.sA):
        for y in range(sc.sB):
            for a in range(2):
                t[x, y, a, a ^ (min(x, 1) * min(y, 1))] = 0.5
    noise = bw.random_ns_behavior(sc, seed).p
    return bw.Behavior(sc, visibility * t + (1 - visibility) * noise)


@pytest.mark.parametrize("key", [(3, 3, 2, 2), (5, 2, 5, 2)])
def test_membership_matches_highs(key):
    sc = bw.Scenario(*key)
    boxes = [bw.random_ns_behavior(sc, seed) for seed in range(3)]
    boxes += [_embedded_pr(sc, v, seed) for v in (0.3, 0.6) for seed in range(2)]
    boxes += [bw.random_behavior(sc, seed) for seed in range(3)]
    verdicts = set()
    for p in boxes:
        expected = _highs_is_local(p)
        verdicts.add(expected)
        for pivot in ("bland", "dantzig"):
            res = bw.is_local(p, pivot=pivot)
            assert res.is_local == expected
            _assert_certified(p, res)
    assert verdicts == {True, False}


def test_membership_matches_highs_on_random_4343_box():
    # a local box: from the crash basis, Bland's rule decides it in 1,789
    # pivots and Dantzig's in 136; from the artificial basis they took
    # 15,681 and 264 (60,047 and 264 over the canonical vertex order)
    p = bw.random_ns_behavior(bw.Scenario(4, 3, 4, 3), 5)
    expected = _highs_is_local(p)
    for pivot in ("dantzig", "bland"):
        res = bw.is_local(p, pivot=pivot)
        assert res.is_local == expected
        _assert_certified(p, res)
        if pivot == "bland":
            assert res.lp_iterations <= 3000


def test_bland_decides_a_nonlocal_4343_box_in_few_pivots():
    # Bland's rule took 9,107 pivots here over the canonical vertex order
    # and 470 over the best-fit one; from the crash basis (31 vertices)
    # it takes 565
    p = _embedded_pr(bw.Scenario(4, 3, 4, 3), 0.6, 1)
    expected = _highs_is_local(p)
    for pivot in ("bland", "dantzig"):
        res = bw.is_local(p, pivot=pivot)
        assert res.is_local == expected
        _assert_certified(p, res)
        if pivot == "bland":
            assert res.lp_iterations <= 2000


@pytest.mark.parametrize("key", [
    (2, 2, 2, 2), (3, 2, 3, 2), (4, 2, 4, 2), (3, 3, 3, 3), (5, 2, 5, 2), (4, 3, 4, 3),
])
def test_crash_basis_is_a_feasible_triangular_start(key):
    from bellwire.geometry import Vertices

    sc = bw.Scenario(*key)
    vertices = Vertices.of(sc)
    V = bw.local_vertex_matrix(sc)
    m, n = vertices.shape
    rng = np.random.default_rng(1)
    mixed = rng.choice(n, min(n, 12), replace=False)
    boxes = {"local": bw.Behavior(sc, (rng.dirichlet(np.ones(mixed.size)) @ V[mixed])
                                  .reshape(sc.shape)),
             "no-signaling": bw.random_ns_behavior(sc, 1),
             "nonlocal": _embedded_pr(sc, 0.9, 1), "signaling": bw.random_behavior(sc, 1)}
    for kind, p in boxes.items():
        expected = _highs_is_local(p)
        assert kind == "no-signaling" or expected == (kind == "local")
        b = np.append(p.flat(), 1.0)
        order = np.argsort(-vertices.price(np.append(p.flat(), 0.0)), kind="stable")
        start = vertices.crash(b, order)
        structural = start < n
        assert 0 < structural.sum() <= m
        assert np.array_equal(np.sort(start), np.unique(start))
        # the basis matrix: vertex order[k] for column k, e_i for n + i
        B = np.eye(m)
        B[:, structural] = vertices.columns(order[start[structural]])
        # the structural block on the rows the crash took is a 0/1
        # matrix that is triangular with a unit diagonal up to
        # permutation, so its determinant is +-1
        rows = np.flatnonzero(structural)
        assert abs(np.linalg.det(B[np.ix_(rows, rows)])) == pytest.approx(1.0, abs=1e-9)
        z = np.linalg.solve(B, b)
        assert z.min() >= -1e-12
        assert z[structural].min() > 1e-12  # each vertex took a positive weight
        for pivot in ("bland", "dantzig"):
            res = bw.is_local(p, pivot=pivot)
            assert res.is_local == expected
            _assert_certified(p, res)


def _crash_oracle(vertices, b, order):
    """`Vertices.crash` as it was before it kept its capacities between
    steps: every capacity recomputed from the residual at each step."""
    sA, sB, rA, rB = vertices.table_shape
    x, y_b = np.arange(sA)[:, None], np.arange(sB * rB)
    alice_rows = (x * sB * rA + vertices.alice[:, :, None] + y_b // rB * rA) * rB + y_b % rB
    bob_cols = np.arange(sB)[:, None] * rB + vertices.bob.T
    m, n = vertices.shape
    start = np.arange(n, n + m)
    residual = np.array(b, dtype=float)
    while True:
        T = residual.take(alice_rows).min(axis=1)
        capacity = np.minimum(T[:, bob_cols].min(axis=1).reshape(-1),
                              residual[-1]).take(order)
        k = int(capacity.argmax())
        c = capacity[k]
        if c <= 1e-12:
            return start
        alpha, beta = divmod(order[k], vertices.nB)
        xy = np.arange(sA * sB)
        rows = np.append((xy * rA + vertices.alice[alpha, xy // sB]) * rB
                         + vertices.bob[beta, xy % sB], m - 1)
        start[rows[np.argmin(residual[rows])]] = k
        residual[rows] -= c


@pytest.mark.parametrize("key", [
    (2, 2, 2, 2), (3, 2, 3, 2), (4, 2, 4, 2), (3, 3, 3, 3), (5, 2, 5, 2), (4, 3, 4, 3),
])
def test_crash_matches_its_oracle(key):
    # the boxes of test_crash_basis_is_a_feasible_triangular_start, plus
    # the nonlocal 4343 box of test_bland_decides_a_nonlocal_4343_box_in_few_pivots
    # and a signaling 5252 box
    from bellwire.geometry import Vertices

    sc = bw.Scenario(*key)
    vertices = Vertices.of(sc)
    V = bw.local_vertex_matrix(sc)
    n = vertices.shape[1]
    rng = np.random.default_rng(1)
    mixed = rng.choice(n, min(n, 12), replace=False)
    boxes = [bw.Behavior(sc, (rng.dirichlet(np.ones(mixed.size)) @ V[mixed]).reshape(sc.shape)),
             bw.random_ns_behavior(sc, 1), _embedded_pr(sc, 0.9, 1), bw.random_behavior(sc, 1)]
    if key == (4, 3, 4, 3):
        boxes.append(_embedded_pr(sc, 0.6, 1))
    if key == (5, 2, 5, 2):
        boxes.append(bw.random_behavior(sc, 3))
    for p in boxes:
        b = np.append(p.flat(), 1.0)
        order = np.argsort(-vertices.price(np.append(p.flat(), 0.0)), kind="stable")
        start = vertices.crash(b, order)
        assert np.array_equal(start, _crash_oracle(vertices, b, order))
        assert np.sum(start < n) > 0


def _deterministic_box(sc, alice, bob):
    from bellwire.geometry import alice_strategy, bob_strategy

    a = alice_strategy(sc, alice).outcomes
    b = bob_strategy(sc, bob).outcomes
    t = np.zeros(sc.shape)
    for x in range(sc.sA):
        for y in range(sc.sB):
            t[x, y, a[x], b[y]] = 1.0
    return t


@pytest.mark.parametrize("pivot", ["bland", "dantzig"])
def test_local_model_weights_are_in_canonical_vertex_order(pivot):
    # the LP sees the vertices in best-fit order; its weights must come
    # back at alice * nB + bob
    sc = bw.Scenario(3, 2, 3, 2)
    nA, nB = sc.n_alice_strategies, sc.n_bob_strategies
    for alice in range(nA):
        for bob in range(nB):
            p = bw.Behavior(sc, _deterministic_box(sc, alice, bob))
            expected = np.zeros(nA * nB)
            expected[alice * nB + bob] = 1.0
            assert np.allclose(bw.is_local(p, pivot=pivot).model.weights, expected,
                               atol=1e-12)
    # Alice's strategies 1 and 5 differ only at setting 0, Bob's 2 and 3
    # only at setting 2, so this mixture has one decomposition
    p = bw.Behavior(sc, 0.3 * _deterministic_box(sc, 1, 2)
                    + 0.7 * _deterministic_box(sc, 5, 3))
    expected = np.zeros(nA * nB)
    expected[[1 * nB + 2, 5 * nB + 3]] = [0.3, 0.7]
    assert np.allclose(bw.is_local(p, pivot=pivot).model.weights, expected, atol=1e-12)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_is_local_refuses_a_bad_tol(tol):
    from bellwire.errors import ParameterOutOfRange

    with pytest.raises(ParameterOutOfRange):
        bw.is_local(bw.white_noise(bw.Scenario(2, 2, 2, 2)), tol=tol)
