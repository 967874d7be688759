"""Norms, Laplacians, energies: examples, identities, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varopt import (
    Field,
    GraphSpec,
    InvalidExponent,
    InvalidSpec,
    build_graph,
    dirichlet_energy,
    dirichlet_gradient,
    energy_report,
    laplacian,
    lp_norm,
    nls_energy,
    nls_gradient,
    p_laplacian,
    path_graph,
    sphere_deletion_spec,
    translate,
)
from varopt.analysis import ball_indicator_field

RNG = np.random.default_rng(421)


def delta_at(graph, x):
    u = np.zeros(graph.n)
    u[graph.vertex_id(x)] = 1.0
    return u


# ---------------------------------------------------------------------------
# lp_norm

def test_lp_norm_delta():
    g = build_graph(GraphSpec(d=2, L=3))
    u = delta_at(g, (0, 0))
    for p in (1, 2, 3.5, np.inf):
        assert lp_norm(u, p) == 1.0
    assert lp_norm(math.sqrt(7.0) * u, 2) == pytest.approx(math.sqrt(7.0), rel=1e-15)


def test_lp_norm_against_resummation():
    g = build_graph(GraphSpec(d=2, L=4))
    for _ in range(10):
        u = RNG.standard_normal(g.n)
        for p in (1.0, 2.0, 2.7, 5.0):
            direct = math.fsum(abs(x) ** p for x in u) ** (1.0 / p)
            assert lp_norm(u, p) == pytest.approx(direct, rel=1e-12)
    assert lp_norm(u, np.inf) == np.max(np.abs(u))


def test_lp_norm_invalid_exponent():
    g = path_graph(3)
    with pytest.raises(InvalidExponent):
        lp_norm(np.ones(g.n), 0.5)


# ---------------------------------------------------------------------------
# dirichlet_energy

@pytest.mark.parametrize("d,L", [(1, 2), (2, 3), (3, 2)])
def test_dirichlet_energy_of_delta(d, L):
    g = build_graph(GraphSpec(d=d, L=L))
    assert dirichlet_energy(g, delta_at(g, (0,) * d), 2) == pytest.approx(2 * d, abs=1e-15)


@pytest.mark.parametrize("p,q", [(2.0, 6.0), (1.5, 3.0)])
def test_flat_profile_energy_on_cut_sphere(p, q):
    # one surviving shell edge carries the whole energy |B_R|^(-p/q)
    R = 2
    g = build_graph(sphere_deletion_spec(3, R, 6))
    f = ball_indicator_field(g, R, q)
    expected = float(27 ** (-p / q))
    assert dirichlet_energy(g, f, p) == pytest.approx(expected, abs=1e-12)
    assert lp_norm(f, q) == pytest.approx(1.0, rel=1e-14)


def test_constant_field_has_zero_drop_energy():
    g = build_graph(GraphSpec(d=2, L=4))
    u = 3.7 * np.ones(g.n)
    assert dirichlet_energy(g, u, 2) == 0.0
    g_dir = build_graph(GraphSpec(d=2, L=4), boundary="dirichlet")
    # dirichlet mode charges the box boundary for not decaying
    assert dirichlet_energy(g_dir, u, 2) == pytest.approx(3.7 ** 2 * np.sum(g_dir.phantom))


def test_dirichlet_invalid_exponent():
    g = path_graph(3)
    with pytest.raises(InvalidExponent):
        dirichlet_energy(g, np.ones(g.n), 0.9)


# ---------------------------------------------------------------------------
# laplacians

def test_laplacian_of_delta_d1():
    g = build_graph(GraphSpec(d=1, L=3))
    out = laplacian(g, delta_at(g, (0,))).values
    assert out[g.vertex_id((0,))] == -2.0
    assert out[g.vertex_id((1,))] == 1.0
    assert out[g.vertex_id((-1,))] == 1.0
    assert out[g.vertex_id((2,))] == 0.0


def test_laplacian_of_constant_is_zero():
    for boundary, expected in (("drop", 0.0),):
        g = build_graph(GraphSpec(d=2, L=3), boundary=boundary)
        out = laplacian(g, np.ones(g.n)).values
        assert np.max(np.abs(out)) == expected


def test_laplacian_divergence_theorem():
    g = build_graph(GraphSpec(d=2, L=4))
    for _ in range(10):
        u = RNG.standard_normal(g.n)
        assert math.fsum(laplacian(g, u).values) == pytest.approx(0.0, abs=1e-12)


def test_p_laplacian_matches_laplacian_at_p2():
    g = build_graph(GraphSpec(d=2, L=3))
    u = RNG.standard_normal(g.n)
    assert np.allclose(p_laplacian(g, u, 2).values, laplacian(g, u).values, atol=1e-15)


def test_p_laplacian_of_delta_d1_p3():
    g = build_graph(GraphSpec(d=1, L=3))
    out = p_laplacian(g, delta_at(g, (0,)), 3).values
    assert out[g.vertex_id((0,))] == -2.0
    assert out[g.vertex_id((1,))] == 1.0
    assert out[g.vertex_id((-1,))] == 1.0


def test_p_laplacian_antisymmetry_sum():
    g = build_graph(GraphSpec(d=1, L=6))
    for p in (2.0, 2.5, 3.0, 4.0):
        u = RNG.standard_normal(g.n)
        assert math.fsum(p_laplacian(g, u, p).values) == pytest.approx(0.0, abs=1e-11)


def test_p_laplacian_invalid_exponent():
    g = path_graph(3)
    with pytest.raises(InvalidExponent):
        p_laplacian(g, np.ones(g.n), 1.0)


# ---------------------------------------------------------------------------
# nls energy

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("p", [2.5, 4.0, 6.0])
def test_delta_identity(d, a, p):
    g = build_graph(GraphSpec(d=d, L=2))
    u = math.sqrt(a) * delta_at(g, (0,) * d)
    assert nls_energy(g, u, p) == pytest.approx(d * a - a ** (p / 2) / p, abs=1e-12)


def test_nls_energy_of_zero_field():
    g = build_graph(GraphSpec(d=2, L=3))
    assert nls_energy(g, np.zeros(g.n), 4) == 0.0


def test_nls_energy_two_vertex_closed_form():
    g = path_graph(2)
    u = np.array([math.sqrt(0.5), math.sqrt(0.5)])
    assert nls_energy(g, u, 4) == pytest.approx(-0.125, abs=1e-15)


def test_nls_energy_invalid_exponent():
    g = path_graph(2)
    with pytest.raises(InvalidExponent):
        nls_energy(g, np.ones(2), 2.0)


# ---------------------------------------------------------------------------
# translate

def test_translate_delta():
    g = build_graph(GraphSpec(d=2, L=3))
    u = Field(g, delta_at(g, (0, 0)))
    moved = translate(u, (1, 0))
    assert moved.values[g.vertex_id((-1, 0))] == 1.0
    assert np.sum(moved.values) == 1.0


def translate_reference(graph, u, shift):
    """Tuple-loop translate: v(x) = u(x + shift) where x + shift is a vertex, else 0."""
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    out = np.zeros(graph.n)
    for i, x in enumerate(verts):
        j = index.get(tuple(a + b for a, b in zip(x, shift)))
        if j is not None:
            out[i] = u[j]
    return out


@pytest.mark.parametrize("shift", [(0, 0), (1, -2), (-3, 3), (4, 0), (-2, -5), (6, 0),
                                   (0, -9), (-12, 5)])
def test_translate_matches_tuple_loop_on_perturbed_graph(shift):
    # a field on B_2 of the box B_5 stays inside for |shift| <= 3, leaves it
    # partly at 4 or 5 and entirely from 6 on; a field on the whole box leaves
    # partly for every nonzero shift and entirely from 9 on
    g = build_graph(sphere_deletion_spec(2, 2, 5))
    local = np.where(np.max(np.abs(g.coords), axis=1) < 2, RNG.standard_normal(g.n), 0.0)
    for u in (local, RNG.standard_normal(g.n)):
        moved = translate(Field(g, u), shift).values
        assert np.array_equal(moved, translate_reference(g, u, shift))


def test_translate_rejects_shift_of_wrong_dimension():
    g = build_graph(GraphSpec(d=2, L=3))
    with pytest.raises(InvalidSpec):
        translate(Field(g, np.zeros(g.n)), (1,))


def test_translate_by_zero_is_identity():
    g = build_graph(GraphSpec(d=1, L=5))
    u = Field(g, RNG.standard_normal(g.n))
    assert np.array_equal(translate(u, (0,)).values, u.values)


def test_translate_preserves_interior_energy():
    g = build_graph(GraphSpec(d=1, L=8))
    u = np.zeros(g.n)
    for x in range(-3, 2):
        u[g.vertex_id((x,))] = RNG.standard_normal()
    f = Field(g, u)
    moved = translate(f, (-2,))  # support shifts to [-1, 4), still interior
    assert dirichlet_energy(g, moved, 2) == pytest.approx(dirichlet_energy(g, f, 2), rel=1e-12)
    assert nls_energy(g, moved, 4) == pytest.approx(nls_energy(g, f, 4), rel=1e-12)


# ---------------------------------------------------------------------------
# invariants

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=30),
       st.sampled_from([(1.0, 1.5), (1.0, 2.0), (2.0, 3.0), (2.0, 6.0), (3.0, 17.0)]))
def test_norm_nesting(values, exponents):
    lo, hi = exponents
    u = np.array(values)
    assert lp_norm(u, hi) <= lp_norm(u, lo) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.floats(min_value=0.1, max_value=9.0),
       st.sampled_from([3.0, 4.0, 6.0]))
def test_mass_lower_bound(seed, a, p):
    g = build_graph(GraphSpec(d=1, L=6))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.n)
    u *= math.sqrt(a) / lp_norm(u, 2)
    assert nls_energy(g, u, p) >= -(a ** (p / 2)) / p - 1e-12


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
def test_summation_by_parts(boundary):
    g = build_graph(GraphSpec(d=2, L=4), boundary=boundary)
    for p in (2.0, 2.5, 3.0, 4.0):
        u = RNG.standard_normal(g.n)
        pairing = -float(np.dot(u, p_laplacian(g, u, p).values))
        assert pairing == pytest.approx(dirichlet_energy(g, u, p), rel=1e-10)


def test_split_sequence_identities():
    g = build_graph(GraphSpec(d=1, L=12))
    q = 6.0
    for _ in range(20):
        v = np.zeros(g.n)
        w = np.zeros(g.n)
        for x in range(-11, -5):
            v[g.vertex_id((x,))] = RNG.standard_normal()
        for x in range(-2, 3):
            w[g.vertex_id((x,))] = RNG.standard_normal()
        moved = translate(Field(g, w), (-8,)).values  # support lands in [6, 11)
        u_n = v + moved
        assert np.array_equal(u_n - v, moved)
        norm_split = lp_norm(u_n, q) ** q - lp_norm(u_n - v, q) ** q - lp_norm(v, q) ** q
        assert abs(norm_split) <= 1e-10
        dir_split = (dirichlet_energy(g, u_n, q) - dirichlet_energy(g, u_n - v, q)
                     - dirichlet_energy(g, v, q))
        assert abs(dir_split) <= 1e-10


def central_difference(f, u, h=1e-6):
    out = np.zeros_like(u)
    for i in range(len(u)):
        up, dn = u.copy(), u.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2 * h)
    return out


def test_gradients_match_finite_differences():
    g = build_graph(GraphSpec(d=1, L=4))
    u = RNG.standard_normal(g.n) + 2.0  # keep |u| away from 0 for smoothness
    p = 4.0
    num = central_difference(lambda x: nls_energy(g, x, p), u)
    ana = nls_gradient(g, u, p)
    assert np.max(np.abs(num - ana)) / np.max(np.abs(ana)) <= 1e-6
    p2 = 2.5
    num2 = central_difference(lambda x: dirichlet_energy(g, x, p2), u)
    ana2 = dirichlet_gradient(g, u, p2)
    assert np.max(np.abs(num2 - ana2)) / max(np.max(np.abs(ana2)), 1e-12) <= 1e-6


def test_sobolev_quotient_running_max_is_stable():
    g = build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")
    p, q = 2.0, 6.0
    quotients = []
    for _ in range(50):
        u = RNG.standard_normal(g.n)
        quotients.append(lp_norm(u, q) / dirichlet_energy(g, u, p) ** (1 / p))
    best = 0.0
    for quotient in quotients:
        best = max(best, quotient)
        assert quotient <= best  # the estimator is never violated retroactively
    assert all(quotient <= best for quotient in quotients)


def test_energy_report():
    g = build_graph(GraphSpec(d=1, L=3))
    u = delta_at(g, (0,))
    rep = energy_report(g, u, 4.0, q_exponents=(2.0, 4.0))
    assert rep.dirichlet_p == pytest.approx(2.0)
    assert rep.lq_norms[2.0] == 1.0
    assert rep.phi == pytest.approx(nls_energy(g, u, 4.0))
    blob = rep.to_json_dict()
    assert blob["phi"] == rep.phi
    rep15 = energy_report(g, u, 1.5)
    assert rep15.phi is None


def test_field_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        Field(g, np.ones(5))
    with pytest.raises(ValueError):
        Field(g, np.array([1.0, np.nan, 0.0]))
