"""Norms, Laplacians, energies: examples, identities, and invariants."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varopt import (
    Field,
    Graph,
    GraphSpec,
    InvalidExponent,
    InvalidSpec,
    box_inverse,
    build_graph,
    dirichlet_energy,
    dirichlet_gradient,
    laplacian,
    lp_norm,
    nls_energy,
    nls_gradient,
    p_laplacian,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
    translate,
)
from varopt import calculus
from varopt.analysis import ball_indicator_field
from varopt.calculus import _abs_pow, _edge_diff, _kinetic, _signed_pow, _weighted_laplacian

RNG = np.random.default_rng(421)


def delta_at(graph, x):
    u = np.zeros(graph.n)
    u[graph.vertex_id(x)] = 1.0
    return u


# ---------------------------------------------------------------------------
# power helpers

@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0])
def test_power_helpers_match_numpy(p):
    # each fast path against the generic numpy expression, to 2 ulps, on zeros,
    # negatives, subnormals and results that underflow
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0, tiny, -tiny, 3e-310, -3e-310, 1e-100, -1e-100, 1e40, -1e40],
                        np.random.default_rng(7).standard_normal(64) * 10.0 ** np.arange(-8, 8).repeat(4)])
    for got, want in ((_abs_pow(x, p), np.abs(x) ** p), (_signed_pow(x, p), np.sign(x) * np.abs(x) ** p)):
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want))), p


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
    with pytest.raises(InvalidExponent):
        lp_norm(np.ones(g.n), math.nan)


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
    with pytest.raises(InvalidExponent):
        dirichlet_energy(g, np.ones(g.n), math.nan)


def test_dirichlet_gradient_invalid_exponent():
    g = path_graph(3)
    u = np.ones(g.n)
    for p, eps in [(0.9, 1e-8), (1.0, 0.0), (math.nan, 0.0), (math.nan, 1e-8), (1.0, math.nan)]:
        with pytest.raises(InvalidExponent):
            dirichlet_gradient(g, u, p, eps)


@pytest.mark.parametrize("call", [
    lambda g, u: dirichlet_energy(g, u, 2), laplacian, lambda g, u: p_laplacian(g, u, 3),
    lambda g, u: nls_energy(g, u, 4), lambda g, u: nls_gradient(g, u, 4), lambda g, u: dirichlet_gradient(g, u, 2),
], ids=["dirichlet_energy", "laplacian", "p_laplacian", "nls_energy", "nls_gradient", "dirichlet_gradient"])
def test_calculus_functions_check_the_field_length(call):
    # a long field once ran on its first n values (nls_energy counted the rest in its
    # potential only, giving -640023.5 here), and a short one raised a bare IndexError
    g = path_graph(3)
    for values in ([1.0, 2.0, 3.0, 40.0], [1.0, 2.0], np.ones((3, 1))):
        with pytest.raises(ValueError, match="for a graph with 3 vertices"):
            call(g, values)
    call(g, [1.0, 2.0, 3.0])
    call(g, Field(g, [1.0, 2.0, 3.0]))


U3 = [1.0, 2.0, 4.0]
NUMPY_WARNS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("call,error,fragment", [
    (lambda g: dirichlet_energy(g, U3, True), InvalidExponent, "got True"),  # once computed as p = 1: 3.0
    (lambda g: dirichlet_energy(g, U3, np.inf), InvalidExponent, "got inf"),  # once inf
    (lambda g: nls_energy(g, U3, np.inf), InvalidExponent, "got inf"),  # once nan
    (lambda g: nls_gradient(g, U3, np.inf), InvalidExponent, "got inf"),
    (lambda g: p_laplacian(g, U3, np.inf), InvalidExponent, "got inf"),  # once "non-finite values"
    (lambda g: dirichlet_gradient(g, U3, 1.0, True), InvalidExponent, "eps=True"),
    (lambda g: dirichlet_gradient(g, U3, np.inf), InvalidExponent, "p=inf"),
    (lambda g: lp_norm([3.0, 4.0], True), InvalidExponent, "got True"),  # once computed as p = 1: 7.0
    (lambda g: dirichlet_energy(g, [np.nan, 0.0, 0.0], 2), ValueError, "energy is nan"),
    # numpy warns of inf - inf and of the overflow before the energy's check raises
    pytest.param(lambda g: nls_energy(g, [np.inf, 0.0, 0.0], 4), ValueError, "energy is nan",
                 marks=NUMPY_WARNS),
    pytest.param(lambda g: dirichlet_energy(g, [1e200, 0.0, 0.0], 2), ValueError, "energy is inf",
                 marks=NUMPY_WARNS),
    (lambda g: nls_gradient(g, [np.nan, 0.0, 0.0], 4), ValueError, "non-finite values"),
    (lambda g: dirichlet_gradient(g, [np.nan, 0.0, 0.0], 2), ValueError, "non-finite values"),
], ids=["energy-p-bool", "energy-p-inf", "nls-p-inf", "nls-gradient-p-inf", "p-laplacian-p-inf",
        "gradient-eps-bool", "gradient-p-inf", "lp-norm-p-bool", "energy-nan-field", "nls-inf-field",
        "energy-overflow", "nls-gradient-nan-field", "gradient-nan-field"])
def test_calculus_functions_check_exponents_and_results(call, error, fragment):
    # exponents are finite numbers that are not booleans, and no energy or gradient comes back
    # non-finite (the gradients once returned [nan, nan, 0], the energies nan)
    with pytest.raises(error, match=re.escape(fragment)):
        call(path_graph(3))


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
    with pytest.raises(InvalidExponent):
        p_laplacian(g, np.ones(g.n), math.nan)  # would otherwise run the p = 1 branch


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
def test_p_laplacian_diagonal_is_the_hessian_diagonal(boundary):
    # the diagonal of the linearized p-Laplacian, which scales the Newton-CG metric
    g = build_graph(sphere_deletion_spec(2, 2, 5), boundary=boundary)
    phantom = g.phantom if boundary == "dirichlet" else 0.0
    u = np.random.default_rng(7).standard_normal(g.n)
    # p = 2: every weight is 1, so the diagonal is the degree plus the phantom count
    assert np.array_equal(_weighted_laplacian(g, u, 2.0, 1e-8)[1],
                          np.bincount(g.edges.ravel(), minlength=g.n) + phantom)
    # p = 1.5, eps = 0: p (p - 1) times the diagonal is that of the energy's Hessian
    diagonal = _weighted_laplacian(g, u, 1.5, 0.0)[1]
    assert np.array_equal(_weighted_laplacian(g, u, 1.5, 0.0, u[g.heads] - u[g.tails])[1], diagonal)
    h = 1e-6
    for v in range(0, g.n, 5):
        step = np.zeros(g.n)
        step[v] = h
        fd = (dirichlet_gradient(g, u + step, 1.5)[v] - dirichlet_gradient(g, u - step, 1.5)[v]) / (2 * h)
        assert fd == pytest.approx(0.75 * diagonal[v], rel=1e-6)
    # eps keeps the weights finite where a difference vanishes
    assert np.all(np.isfinite(_weighted_laplacian(g, np.zeros(g.n), 1.0, 1e-8)[1]))


@pytest.mark.parametrize("d,L", [(1, 2), (1, 5), (1, 12), (2, 3), (2, 10), (3, 2), (3, 4), (3, 8), (3, 20)])
def test_box_inverse_inverts_the_dirichlet_laplacian(d, L):
    g = build_graph(GraphSpec(d=d, L=L), boundary="dirichlet")
    solve = box_inverse(g)
    for _ in range(3):
        v = RNG.standard_normal(g.n)
        assert np.max(np.abs(-laplacian(g, solve(v)).values - v)) <= 1e-13


def tensordot_box_inverse(g):
    """The box inverse with each sine transform written as np.tensordot over the
    leading axis, which appends the result axis."""
    d, m = g.d, 2 * g.spec.L - 1
    k = np.arange(1, m + 1)
    S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    eig = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
    inv_eig = 1.0 / sum(eig.reshape((m,) + (1,) * (d - 1 - axis)) for axis in range(d))

    def solve(v):
        x = v.reshape((m,) * d)
        for _ in range(d):
            x = np.tensordot(x, S, axes=(0, 0))
        x = x * inv_eig
        for _ in range(d):
            x = np.tensordot(x, S, axes=(0, 0))
        return x.ravel()
    return solve


@pytest.mark.parametrize("d,L", [(1, 2), (1, 12), (1, 30), (2, 3), (2, 12), (3, 2), (3, 5), (3, 8), (3, 20)])
def test_box_inverse_is_the_tensordot_contraction_bit_for_bit(d, L):
    # each pass is the GEMM that tensordot makes, without its transpose copy
    g = build_graph(GraphSpec(d=d, L=L), boundary="dirichlet")
    solve, reference = box_inverse(g), tensordot_box_inverse(g)
    for _ in range(5):
        v = RNG.standard_normal(g.n)
        kept = v.copy()
        assert np.array_equal(solve(v), reference(v))
        assert np.array_equal(v, kept)


def test_box_inverse_matches_a_dense_solve():
    g = build_graph(GraphSpec(d=3, L=4), boundary="dirichlet")
    dense = np.column_stack([-laplacian(g, e).values for e in np.eye(g.n)])
    v = RNG.standard_normal(g.n)
    assert np.max(np.abs(box_inverse(g)(v) - np.linalg.solve(dense, v))) <= 1e-13


def test_box_inverse_needs_a_dirichlet_box():
    with pytest.raises(InvalidSpec):
        box_inverse(build_graph(GraphSpec(d=2, L=3)))
    g = build_graph(GraphSpec(d=2, L=3), boundary="dirichlet")
    # the same box built directly, without BoxEdges
    with pytest.raises(InvalidSpec):
        box_inverse(Graph(g.lo, g.shape, g.edges, boundary="dirichlet"))


# ---------------------------------------------------------------------------
# edge layouts: the box layout of large build_graph truncations against the edge list

LAYOUT_GRAPHS = {
    "box-d1": GraphSpec(d=1, L=30),
    "box-d3": GraphSpec(d=3, L=6),
    "sphere-deletion-d3": sphere_deletion_spec(3, 2, 6),
    "star-d3": star_addition_spec(3, 2, 6),
    "cut-d2": GraphSpec(d=2, L=12, deletions={((0, 0), (1, 0))}),
}


def both_layouts(monkeypatch, g, compute):
    """compute() in the edge layout and in the box layout, which the cut-off picks."""
    out = []
    for cut_off, layout in ((g.n + 1, np.ndarray), (0, tuple)):
        monkeypatch.setattr(calculus, "_BOX_MIN_VERTICES", cut_off)
        assert type(_edge_diff(g, np.zeros(g.n))) is layout
        out.append(compute())
    return out


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
@pytest.mark.parametrize("case", list(LAYOUT_GRAPHS))
def test_box_layout_agrees_with_the_edge_layout(monkeypatch, case, boundary):
    g = build_graph(LAYOUT_GRAPHS[case], boundary=boundary)
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal(g.n), rng.standard_normal(g.n)

    def kernels():
        out = [dirichlet_energy(g, u, p) for p in (1.0, 1.5, 2.0, 3.0, 4.0)]
        out += [_kinetic(g, u), nls_energy(g, u, 4.0), laplacian(g, u).values,
                dirichlet_gradient(g, u, 1.0, 1e-8)]
        out += [p_laplacian(g, u, p).values for p in (1.5, 2.0, 3.0, 4.0)]
        for p in (1.0, 1.5, 2.0, 3.0):
            apply, diagonal = _weighted_laplacian(g, u, p, 1e-8)
            out += [apply(v), diagonal]
        return out

    for edge, box in zip(*both_layouts(monkeypatch, g, kernels)):
        assert np.linalg.norm(np.subtract(box, edge)) <= 1e-14 * np.linalg.norm(edge)


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
@pytest.mark.parametrize("case", list(LAYOUT_GRAPHS))
def test_box_layout_weighs_absent_edges_zero(monkeypatch, case, boundary):
    # at p = 2 every present edge weighs (d^2 + eps^2)^0 = 1, so a deleted edge, or a
    # phantom slab in drop mode, weighing (0 + eps^2)^0 would show in the degree
    g = build_graph(LAYOUT_GRAPHS[case], boundary=boundary)
    u = np.random.default_rng(12).standard_normal(g.n)
    degree = np.bincount(g.edges.ravel(), minlength=g.n) + (g.phantom if boundary == "dirichlet" else 0.0)
    for diagonal in both_layouts(monkeypatch, g, lambda: _weighted_laplacian(g, u, 2.0, 1e-8)[1]):
        assert np.array_equal(diagonal, degree)


def test_kernels_pick_the_layout_by_vertex_count():
    # the goldens and the benchmark's small graphs keep the edge layout, and its bits;
    # the large truncations take the box layout
    edge = [build_graph(GraphSpec(d=3, L=5), boundary="dirichlet"),  # 729
            build_graph(sphere_deletion_spec(3, 2, 6), boundary="dirichlet"),  # 1,331
            build_graph(GraphSpec(d=2, L=12, deletions={((0, 0), (1, 0))})),  # 529
            build_graph(star_addition_spec(1, 3, 20)),
            build_graph(GraphSpec(d=3, L=7), boundary="dirichlet"),  # 2,197
            path_graph(5)]
    box = [build_graph(GraphSpec(d=2, L=30, deletions={((0, 0), (1, 0))}), boundary="dirichlet"),  # 3,481
           build_graph(sphere_deletion_spec(3, 2, 8), boundary="dirichlet"),  # 3,375
           build_graph(GraphSpec(d=3, L=20), boundary="dirichlet"),  # 59,319
           build_graph(sphere_deletion_spec(3, 6, 25), boundary="dirichlet")]  # 117,649
    assert [g.n for g in box[2:]] == [59319, 117649]
    for graphs, layout in ((edge, np.ndarray), (box, tuple)):
        for g in graphs:
            assert type(_edge_diff(g, np.zeros(g.n))) is layout, g
    # a Graph built directly keeps the edge layout at any size
    g = box[-1]
    direct = Graph(g.lo, g.shape, g.edges, boundary=g.boundary)
    assert direct.box is None and type(_edge_diff(direct, np.zeros(g.n))) is np.ndarray


THREAD_SCRIPT = """
import hashlib
import numpy as np
from varopt import GraphSpec, build_graph, dirichlet_energy, p_laplacian
g = build_graph(GraphSpec(d=3, L=20), boundary="dirichlet")
u = np.random.default_rng(3).standard_normal(g.n)
print(dirichlet_energy(g, u, 1.5).hex(), hashlib.sha256(p_laplacian(g, u, 1.5).values.tobytes()).hexdigest())
"""


def test_large_graph_kernels_do_not_depend_on_the_blas_thread_count():
    # the box layout sums by np.add.reduce only, so no BLAS thread split reorders a sum
    src = os.path.dirname(os.path.dirname(calculus.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 2


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
    for fn in (nls_energy, nls_gradient):
        with pytest.raises(InvalidExponent):
            fn(g, np.ones(2), math.nan)


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
    verts = [tuple(x) for x in graph.coords.tolist()]
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


@pytest.mark.parametrize("shift", [(1.9, 0), (True, 0), (1, 0.0), ("1", 0)], ids=["fraction", "bool", "float", "str"])
def test_translate_rejects_a_shift_that_is_not_whole(shift):
    # each entry was cast with int(), so (1.9, 0) and (True, 0) shifted by (1, 0) without a word
    g = build_graph(GraphSpec(d=2, L=3))
    with pytest.raises(InvalidSpec, match=r"shift \("):
        translate(Field(g, np.ones(g.n)), shift)
    u = Field(g, RNG.standard_normal(g.n))
    assert np.array_equal(translate(u, (np.int64(1), np.int32(0))).values, translate(u, (1, 0)).values)


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


def test_field_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        Field(g, np.ones(5))
    with pytest.raises(ValueError):
        Field(g, np.array([1.0, np.nan, 0.0]))
