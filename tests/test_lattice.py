"""Graph construction: box truncations, perturbation specs, adjacency."""

import gc
import itertools
import json
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varopt import (
    DisconnectedGraph,
    Graph,
    GraphSpec,
    InvalidSpec,
    OutOfBox,
    ball_boundary_edges,
    box_vertices,
    build_graph,
    canonical_edge,
    is_base_edge,
    is_connected,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
)
from varopt import lattice
from varopt.analysis import ball_indicator_field
from varopt.solver import _default_probe_radius, _localize, default_seed_plan, make_seed


def bfs_oracle(vertices, edge_set):
    """Independent reachability check used to validate library connectivity."""
    adj = {v: set() for v in vertices}
    for x, y in edge_set:
        adj[x].add(y)
        adj[y].add(x)
    seen = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(vertices)


def vertex_tuples(g):
    return [tuple(x) for x in g.coords.tolist()]


def degree(g, x):
    return int(np.count_nonzero(g.edges == g.vertex_id(x)))


def neighbours(g, x):
    """Neighbours of x as tuples, ascending, read off the edge list."""
    i = g.vertex_id(x)
    others = np.sort(np.concatenate([g.heads[g.tails == i], g.tails[g.heads == i]]))
    return [tuple(y) for y in g.coords[others].tolist()]


def all_base_edges(d, L):
    verts = set(box_vertices(d, L))
    out = set()
    for x in verts:
        for k in range(d):
            y = x[:k] + (x[k] + 1,) + x[k + 1:]
            if y in verts:
                out.add((x, y))
    return out


def test_unperturbed_d1_L2():
    g = build_graph(GraphSpec(d=1, L=2))
    assert g.n == 3
    assert g.n_edges == 2
    assert g.coords.tolist() == [[-1], [0], [1]]


def test_deletion_reduces_degree():
    g = build_graph(GraphSpec(d=2, L=3, deletions={((0, 0), (1, 0))}))
    assert degree(g, (0, 0)) == 3
    assert is_connected(g)
    assert (1, 0) not in neighbours(g, (0, 0))


@pytest.mark.parametrize("boundary", ["drop", "dirichlet"])
@pytest.mark.parametrize("spec", [GraphSpec(d=3, L=8), sphere_deletion_spec(3, 2, 8), star_addition_spec(3, 2, 8),
                                  GraphSpec(d=2, L=30, deletions={((0, 0), (1, 0))})],
                         ids=["box-d3", "sphere-deletion-d3", "star-d3", "cut-d2"])
def test_truncations_above_the_cut_off_rebuild_their_edge_list(spec, boundary):
    # from the cut-off on, build_graph keeps no edge list and each read rebuilds it from
    # the box; a directly built Graph of the same pairs stores the rows it must equal
    g = build_graph(spec, boundary=boundary)
    assert g.n >= lattice._BOX_MIN_VERTICES and not np.shares_memory(g.tails, g.tails)
    index = {v: i for i, v in enumerate(box_vertices(spec.d, spec.L))}
    pairs = [(index[x], index[y]) for x, y in (all_base_edges(spec.d, spec.L) - spec.deletions) | spec.additions]
    direct = Graph(g.lo, g.shape, np.array(pairs), boundary=boundary)
    assert np.shares_memory(direct.tails, direct.tails) and g.n_edges == direct.n_edges == len(pairs)
    for name in ("tails", "heads", "edges"):
        got, want = getattr(g, name), getattr(direct, name)
        assert (got.dtype, got.shape, got.flags.c_contiguous, got.flags.f_contiguous) == \
            (np.dtype(np.int64), want.shape, want.flags.c_contiguous, want.flags.f_contiguous)
        assert np.array_equal(got, want)
    small = build_graph(GraphSpec(d=3, L=7), boundary=boundary)  # 2,197 vertices store theirs
    assert small.n < lattice._BOX_MIN_VERTICES and np.shares_memory(small.tails, small.tails)


def test_truncation_above_the_cut_off_retains_no_edge_list():
    # the two id rows would take 16 bytes per edge; the graph keeps its phantom
    # counts (8 per vertex) and its BoxEdges, and a read of the list caches nothing
    build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")  # warm numpy
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(GraphSpec(d=3, L=20), boundary="dirichlet")
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 16 * g.n_edges
        assert g.edges.shape == (g.n_edges, 2)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 16 * g.n_edges
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", [sphere_deletion_spec(3, 3, 20), GraphSpec(d=3, L=20)],
                         ids=["sphere-deletion", "box"])
def test_build_peak_memory_per_edge(spec):
    # the unsorted pairs (16 bytes per edge), the sorted keys (8) and the sorted rows
    # written in place (16), with the id grid and the phantom counts, stay below 50
    # bytes per edge; a connectivity pass over the whole truncation would add 32 more
    build_graph(GraphSpec(d=3, L=3), boundary="dirichlet")  # warm numpy
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(spec, boundary="dirichlet")
        assert tracemalloc.get_traced_memory()[1] - before < 50 * g.n_edges
    finally:
        tracemalloc.stop()


def test_disconnecting_deletions_above_the_cut_off_still_raise():
    spec = GraphSpec(d=3, L=8, deletions=set(ball_boundary_edges(3, 2)))
    with pytest.raises(DisconnectedGraph):
        build_graph(spec)


@pytest.mark.parametrize("spec,message", [
    (GraphSpec(d=3, L=8, deletions=set(ball_boundary_edges(3, 2))),
     "deleting 54 edge(s) disconnected the box B_8: 27 vertices cut off, the smallest (-1, -1, -1)"),
    (GraphSpec(d=2, L=3, deletions=set(ball_boundary_edges(2, 2))),  # T is the whole box
     "deleting 12 edge(s) disconnected the box B_3: 9 vertices cut off, the smallest (-1, -1)"),
    (sphere_deletion_spec(1, 2, 5),  # B_5 minus ((-2,), (-1,)): (-1,) ... (4,) lose the corner (-4,)
     "deleting 1 edge(s) disconnected the box B_5: 6 vertices cut off, the smallest (-1,)"),
], ids=["ball-d3", "whole-box-d2", "ray-d1"])
def test_disconnected_graph_names_what_was_cut_off(spec, message):
    with pytest.raises(DisconnectedGraph, match=f"^{re.escape(message)}$"):
        build_graph(spec)


def _cut_off(g):
    """Ids of the vertices that no path joins to vertex 0, the box corner, by breadth-first search."""
    adj = [[] for _ in range(g.n)]
    for i, j in g.edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    seen, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return [v for v in range(g.n) if v not in seen]


def _random_deletions(rng, d, R):
    """Base edges inside B_R: a sphere cut missing up to two edges, a vertex's star or a random set."""
    inside = sorted(all_base_edges(d, R))
    deletions = set()
    if R >= 2 and rng.random() < 0.5:
        rho = int(rng.integers(1, R))
        sphere = ball_boundary_edges(d, rho)
        deletions |= {sphere[i] for i in rng.permutation(len(sphere))[int(rng.integers(0, 3)):]}
    if R >= 2 and rng.random() < 0.4:
        x = tuple(int(c) for c in rng.integers(2 - R, R - 1, size=d))
        deletions |= {e for e in inside if x in e}
    if inside and (not deletions or rng.random() < 0.5):
        k = int(rng.integers(1, min(len(inside), 4 * d) + 1))
        deletions |= {inside[i] for i in rng.choice(len(inside), size=k, replace=False)}
    return deletions


def test_local_connectivity_check_agrees_with_the_whole_graph():
    # build_graph decides connectivity on the ball around the deletions; it must raise
    # exactly when the whole truncation, built by hand, is disconnected, and name its cut
    rng = np.random.default_rng(20261020)
    specs = [sphere_deletion_spec(2, 4, 5), GraphSpec(d=2, L=5, deletions=set(ball_boundary_edges(2, 4)))]
    while len(specs) < 600:
        d = int(rng.integers(1, 5))
        L = int(rng.integers(2, (12, 8, 6, 4)[d - 1] + 1))
        R = int(rng.integers(2, L + 1 if rng.random() < 0.3 else max(L - 1, 3)))  # mostly R < L - 1
        if deletions := _random_deletions(rng, d, R):
            specs.append(GraphSpec(d=d, L=L, deletions=deletions))
    kinds = ("whole-box", "hub", "ray")  # T is the box; T and a hub; d = 1 with rays outside T
    seen = dict.fromkeys(["cut", *kinds, *(f"{k}-cut" for k in kinds), *(f"d={d}" for d in (1, 2, 3, 4))], 0)
    for spec in specs:
        box = build_graph(GraphSpec(d=spec.d, L=spec.L))
        gone = {box.vertex_id(x) * box.n + box.vertex_id(y) for x, y in spec.deletions}
        keys = box.edges[:, 0] * box.n + box.edges[:, 1]
        whole = Graph(box.lo, box.shape, box.edges[~np.isin(keys, list(gone))])
        cut = _cut_off(whole)
        assert is_connected(whole) == (not cut)
        if cut:
            smallest = tuple(whole.coords[cut[0]].tolist())
            tail = f": {len(cut)} vertices cut off, the smallest {smallest}"
            with pytest.raises(DisconnectedGraph, match=re.escape(tail) + "$"):
                build_graph(spec)
        else:
            assert build_graph(spec).n_edges == whole.n_edges
        kind = "whole-box" if spec.perturbation_radius() >= spec.L - 1 else "hub" if spec.d >= 2 else "ray"
        seen[kind] += 1
        seen[f"d={spec.d}"] += 1
        if cut:
            seen["cut"] += 1
            seen[f"{kind}-cut"] += 1
    # every kind, and each cut, at least 50 times; at least 150 connected specs
    assert min(seen.values()) >= 50 and seen["cut"] <= 450, seen


def test_double_deletion_disconnects_path():
    spec = GraphSpec(d=1, L=3, deletions={((0,), (1,)), ((-1,), (0,))})
    # oracle: removing both edges at 0 splits the 5-vertex path
    verts = box_vertices(1, 3)
    remaining = all_base_edges(1, 3) - spec.deletions
    assert not bfs_oracle(verts, remaining)
    with pytest.raises(DisconnectedGraph):
        build_graph(spec)


def test_sphere_deletion_d1():
    spec = sphere_deletion_spec(1, 2, 4)
    assert set(ball_boundary_edges(1, 2)) == {((-2,), (-1,)), ((1,), (2,))}
    assert spec.deletions == frozenset({((-2,), (-1,))})  # default keeps ((1,),(2,))


def test_sphere_deletion_d3_count_and_connectivity():
    # enumeration oracle: boundary edges of B_2 in Z^3
    count = 0
    for y in itertools.product((-1, 0, 1), repeat=3):
        for k in range(3):
            for s in (1, -1):
                z = y[:k] + (y[k] + s,) + y[k + 1:]
                if max(abs(c) for c in z) >= 2:
                    count += 1
    assert count == len(ball_boundary_edges(3, 2)) == 54
    spec = sphere_deletion_spec(3, 2, 5)
    assert len(spec.deletions) == 53
    g = build_graph(spec)
    assert is_connected(g)
    verts = vertex_tuples(g)
    edges = {(verts[i], verts[j]) for i, j in g.edges}
    assert bfs_oracle(verts, edges)


def test_sphere_deletion_invalid_radius():
    for args in ((2, 2, 2), (1, True, 6), (1, 2.0, 6), (1.0, 2, 6), (1, 2, 6.0)):
        with pytest.raises(InvalidSpec):
            sphere_deletion_spec(*args)


@pytest.mark.parametrize("d,R", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sphere_deletion_connectivity_matrix(d, R):
    g = build_graph(sphere_deletion_spec(d, R, R + 2))
    assert is_connected(g)


def test_sphere_deletion_d1_truncation_disconnects():
    # cutting the line anywhere separates the box; the builder must refuse
    with pytest.raises(DisconnectedGraph):
        build_graph(sphere_deletion_spec(1, 2, 5))


def test_star_addition_d1():
    spec = star_addition_spec(1, 2, 4)
    assert spec.additions == frozenset({((-1,), (1,))})


def test_star_addition_d2_enumeration_oracle():
    spec = star_addition_spec(2, 2, 5)
    centres = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    expected = set()
    for c in centres:
        for y in itertools.product((-1, 0, 1), repeat=2):
            if y == c:
                continue
            if abs(y[0] - c[0]) + abs(y[1] - c[1]) == 1:
                continue
            expected.add(canonical_edge(c, y))
    assert spec.additions == frozenset(expected)
    assert canonical_edge((0, 0), (1, 1)) in spec.additions
    assert canonical_edge((1, 0), (-1, 0)) in spec.additions


@pytest.mark.parametrize("d,R", [(d, R) for d in (1, 2, 3) for R in (1, 2, 3, 4)])
def test_factories_match_brute_force_comprehensions(d, R):
    ball = box_vertices(d, R)
    steps = [(k, s) for k in range(d) for s in (1, -1)]
    crossing = {canonical_edge(y, y[:k] + (y[k] + s,) + y[k + 1:]) for y in ball for k, s in steps
                if abs(y[k] + s) >= R}
    assert ball_boundary_edges(d, R) == sorted(crossing)
    kept = ((R - 1,) + (0,) * (d - 1), (R,) + (0,) * (d - 1))
    assert sphere_deletion_spec(d, R, R + 1).deletions == crossing - {kept}
    if R < 2:
        return
    origin = (0,) * d
    centres = [origin] + [origin[:k] + (s,) + origin[k + 1:] for k, s in steps]
    star = {canonical_edge(c, y) for c in centres for y in ball if y != c and not is_base_edge(c, y)}
    spec = star_addition_spec(d, R, R + 1)
    assert spec.additions == star and spec.perturbation_radius() == R
    assert sphere_deletion_spec(d, R, R + 2).perturbation_radius() == R + 1
    # the edge array the factory keeps builds what the same tuples build through the constructor
    for built, again in [(spec, GraphSpec(d=d, L=R + 1, additions=star)),
                         (sphere_deletion_spec(d, R, R + 2),
                          GraphSpec(d=d, L=R + 2, deletions=crossing - {kept}))]:
        if d == 1 and built.deletions:
            continue  # a cut line is disconnected
        g, h = build_graph(built, boundary="dirichlet"), build_graph(again, boundary="dirichlet")
        assert built == again
        # the spec's arrays are canonical: rows sorted, distinct, each the canonical edge
        rows = [tuple(map(tuple, e)) for e in np.concatenate([built.deletion_array, built.addition_array]).tolist()]
        assert rows == sorted(set(rows)) and set(rows) == again.deletions | again.additions
        assert all(np.array_equal(getattr(g, a), getattr(h, a)) for a in ("tails", "heads", "phantom"))


def test_star_addition_full_adjacency_of_ball():
    spec = star_addition_spec(2, 3, 5)
    g = build_graph(spec)
    for y in box_vertices(2, 3):
        for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]:
            if y != c:
                assert y in neighbours(g, c)


def test_star_addition_invalid():
    with pytest.raises(InvalidSpec):
        star_addition_spec(2, 5, 5)
    for args in ((2, 1, 5), (1, True, 6), (2, 2, 6.0), (2.5, 2, 6)):
        with pytest.raises(InvalidSpec):
            star_addition_spec(*args)


def test_neighbors_unperturbed_d2():
    g = build_graph(GraphSpec(d=2, L=3))
    assert neighbours(g, (0, 0)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_neighbors_star_added():
    g = build_graph(star_addition_spec(1, 2, 4))
    assert {(0,), (-2,), (1,)} <= set(neighbours(g, (-1,)))


def test_neighbors_out_of_box():
    g = build_graph(GraphSpec(d=1, L=2))
    with pytest.raises(OutOfBox):
        neighbours(g, (5,))


def test_out_of_box_points_never_alias_an_id():
    # (0, 3) flattens to id 15 of the 25 in the d=2 L=3 box but lies outside it
    g = build_graph(GraphSpec(d=2, L=3))
    for x in [(0, 3), (3, 0), (-3, 2), (2, -3), (0,), (0, 0, 0)]:
        assert x not in g
        for query in (g.vertex_id, lambda y: degree(g, y), lambda y: neighbours(g, y)):
            with pytest.raises(OutOfBox):
                query(x)


def test_fractional_coordinates_are_not_vertices():
    # (0.7,) once cast to 0 and answered with the id of (0,)
    g = path_graph(5)
    for x in [(0.7,), (-1.5,), (2.0,), (np.float64(1.0),), (True,), (np.True_,)]:
        assert x not in g
        with pytest.raises(OutOfBox):
            g.vertex_id(x)
    for x, i in [((np.int64(1),), 3), ((np.int32(-2),), 0), (np.array([2]), 4), ((0,), 2)]:
        assert x in g
        assert g.vertex_id(x) == i
    box = build_graph(GraphSpec(d=2, L=3))
    assert [box.vertex_id(x) for x in box.coords] == list(range(box.n))


@pytest.mark.parametrize("lo,shape,edges", [
    ((0,), (3,), [[0, 5]]),          # id 5 would alias the edge (1, 2)
    ((0,), (3,), [[-1, 1]]),
    ((0,), (3,), [[1, 1]]),          # self-loop
    ((0,), (3,), [[2, 1]]),          # reversed pair
    ((0,), (3,), [[0, 1], [1, 2], [0, 1]]),  # repeated pair
    ((0,), (3,), [[0.0, 1.0]]),
    ((0,), (3,), [[True, True]]),
    ((0,), (3,), [0, 1]),
    ((0,), (3,), [[0, 1, 2]]),
    ((0, 0), (3,), [[0, 1]]),
    ((0,), (0,), np.zeros((0, 2), dtype=np.int64)),
    ((), (), np.zeros((0, 2), dtype=np.int64)),
], ids=["aliasing-id", "negative-id", "self-loop", "reversed", "repeated", "float-ids",
        "bool-ids", "flat", "triples", "lo-shape-mismatch", "empty-side", "no-axes"])
def test_graph_rejects_malformed_box_or_edges(lo, shape, edges):
    with pytest.raises(InvalidSpec):
        Graph(lo, shape, np.asarray(edges))


@pytest.mark.parametrize("lo,shape,bad", [
    ((0.5,), (3,), "0.5"), ((0,), (3.9,), "3.9"), ((0,), (3.0,), "3.0"), ((True,), (3,), "True"),
    ((0,), (np.True_,), "np.True_"), (("a",), (3,), "'a'"),
])
def test_graph_refuses_a_box_entry_that_is_not_a_whole_number(lo, shape, bad):
    # int() would truncate 3.9 to 3 and read True as 1
    with pytest.raises(InvalidSpec, match=f"not {re.escape(bad)}$"):
        Graph(lo, shape, np.array([[0, 1], [1, 2]]))
    g = Graph((np.int64(-1),), (np.int32(3),), np.array([[0, 1], [1, 2]]))
    assert (g.lo, g.shape) == ((-1,), (3,)) and type(g.lo[0]) is int


def test_graph_on_a_shifted_box():
    g = Graph((-1, -1), (3, 3), build_graph(GraphSpec(d=2, L=2)).edges)
    assert g.n_edges == 12
    shifted = Graph((5,), (3,), np.array([[0, 1]]))
    assert vertex_tuples(shifted) == [(5,), (6,), (7,)]
    assert shifted.vertex_id((6,)) == 1
    assert neighbours(shifted, (6,)) == [(5,)]
    assert degree(shifted, (7,)) == 0
    assert not is_connected(shifted)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_connected_matches_bfs_for_any_id_order(data):
    """Random edge subsets, and paths through a random permutation of the ids:
    orders a lattice never produces, where hooking takes several rounds."""
    n = data.draw(st.integers(1, 40), label="n")
    if data.draw(st.booleans(), label="path"):
        perm = data.draw(st.permutations(range(n)), label="perm")
        path = list(zip(perm, perm[1:]))
        cut = data.draw(st.none() | st.integers(0, max(len(path) - 1, 0)), label="cut")
        pairs = path if cut is None else path[:cut] + path[cut + 1:]
    else:
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=3 * n), label="pairs")
    edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
    g = Graph((0,), (n,), np.array(sorted(edges), dtype=np.int64).reshape(-1, 2))
    assert is_connected(g) == bfs_oracle(list(range(n)), edges)


def test_is_connected_examples():
    for d, L in [(1, 4), (2, 3), (3, 2)]:
        assert is_connected(build_graph(GraphSpec(d=d, L=L)))
    # direct construction of the path -2..2 with both edges at 0 removed
    assert not is_connected(Graph((-2,), (5,), np.array([[0, 1], [3, 4]])))


@pytest.mark.parametrize("d,L", [(1, 4), (2, 3), (3, 2)])
def test_degree_formula(d, L):
    g = build_graph(GraphSpec(d=d, L=L))
    box = set(box_vertices(d, L))
    for x in vertex_tuples(g):
        expected = 0
        for k in range(d):
            for s in (1, -1):
                y = x[:k] + (x[k] + s,) + x[k + 1:]
                expected += y in box
        assert degree(g, x) == expected


def test_adjacency_symmetry():
    g = build_graph(star_addition_spec(2, 2, 4))
    for x in vertex_tuples(g):
        for y in neighbours(g, x):
            assert x in neighbours(g, y)


def test_perturbation_locality():
    for spec in (sphere_deletion_spec(2, 2, 5), star_addition_spec(2, 3, 6)):
        R_eff = spec.perturbation_radius()
        for e in spec.deletions | spec.additions:
            for vtx in e:
                assert max(abs(c) for c in vtx) < R_eff


def test_interior_degree_constant_outside_perturbation():
    spec = star_addition_spec(2, 2, 5)
    g = build_graph(spec)
    R_eff = spec.perturbation_radius()
    for x in vertex_tuples(g):
        r = max(abs(c) for c in x)
        if r < g.L - 1 and r >= R_eff:
            assert degree(g, x) == 2 * g.d


def test_spec_invariant_violations():
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, deletions={((0,), (1,))},
                  additions={((-2,), (2,))}).validate()
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, additions={((0,), (1,))}).validate()  # base edge
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, deletions={((0,), (2,))}).validate()  # not a base edge
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=1).validate()
    for bad in ({"d": True}, {"d": 0}, {"L": True}):
        with pytest.raises(InvalidSpec):
            GraphSpec(**{"d": 2, "L": 5, **bad}).validate()
    for edge in ([[-1.7], [1]], [["1"], [2]], [[-1], 1]):  # coordinates must be integers
        with pytest.raises(InvalidSpec):
            GraphSpec(d=1, L=6, additions=[edge])
    assert GraphSpec(d=1, L=6, additions=[[[np.int64(-1)], [1]]]).additions == {((-1,), (1,))}


@pytest.mark.parametrize("call,fragment", [
    (lambda: canonical_edge((1, 0), (1, 0)), "degenerate edge at (1, 0)"),
    (lambda: GraphSpec(d=1, L=3, additions={((0,), (5,))}).validate(), "vertex (5,) lies outside the box B_3"),
    (lambda: GraphSpec(d=2, L=4, additions={((0,), (2,))}).validate(), "wrong dimension (expected 2)"),
    (lambda: GraphSpec.from_json_dict({"d": 1, "L": 4, "radius": 2}), "malformed graph spec"),
    (lambda: GraphSpec(d=2, L=5, additions=5), "additions must be a collection of (x, y) vertex pairs, got 5"),
    (lambda: GraphSpec(d=1, L=5, deletions=[((0,), (1,), (2,))]), "deletions must be a collection of (x, y) vertex"),
    (lambda: GraphSpec.from_json_dict({"d": 1, "L": 4, "deletions": 3}), "deletions must be a collection"),
], ids=["degenerate-edge", "ball-exceeds-box", "vertex-dimension", "json-unknown-key", "edges-scalar",
        "edge-of-three-vertices", "json-edges-scalar"])
def test_spec_checks_name_their_cause(call, fragment):
    with pytest.raises(InvalidSpec, match=re.escape(fragment)):
        call()


BIG = 2 ** 70  # beyond int64


@pytest.mark.parametrize("make,message", [
    (lambda: GraphSpec(d=2, L=4, additions={((0,), (2,))}), "vertex (0,) has wrong dimension (expected 2)"),
    (lambda: GraphSpec(d=2, L=4, additions={((0, 0), (2, 0)), ((0,), (2,))}),
     "vertex (0,) has wrong dimension (expected 2)"),
    (lambda: GraphSpec(d=1, L=4, additions={((BIG,), (0,))}),
     f"perturbed vertex ({BIG},) lies outside the box B_4"),
    (lambda: GraphSpec(d=1, L=4, additions={((-BIG,), (0,))}),
     f"perturbed vertex ({-BIG},) lies outside the box B_4"),
    (lambda: GraphSpec(d=1, L=3, deletions={((0,), (2,))}), "deletion ((0,), (2,)) is not a base lattice edge"),
    (lambda: GraphSpec(d=2, L=3, deletions={((0, 0), (1, 1))}), "deletion ((0, 0), (1, 1)) is not a base lattice edge"),
    (lambda: GraphSpec(d=1, L=3, additions={((1,), (0,))}), "addition ((0,), (1,)) is already a base lattice edge"),
    (lambda: GraphSpec(d=1, L=3, deletions={((0,), (1,))}, additions={((-2,), (2,))}),
     "deletions and additions cannot both be nonempty"),
    (lambda: GraphSpec(d=1, L=6, additions=[[[True], [-1]]]),
     "edge ([True], [-1]) needs integer coordinates: boolean coordinate True"),
    (lambda: GraphSpec(d=2, L=6, additions=[((0, 1), (0, False))]),
     "edge ((0, 1), (0, False)) needs integer coordinates: boolean coordinate False"),
    (lambda: GraphSpec(d=1, L=6, additions=[((np.True_,), (-1,))]),
     "needs integer coordinates: 'numpy.bool' object cannot be interpreted as an integer"),
    (lambda: GraphSpec(d=1, L=6, additions=[[[-1.7], [1]]]),
     "edge ([-1.7], [1]) needs integer coordinates: 'float' object cannot be interpreted as an integer"),
    (lambda: GraphSpec(d=1, L=6, additions=[[["1"], [2]]]),
     "needs integer coordinates: 'str' object cannot be interpreted as an integer"),
    (lambda: GraphSpec(d=2, L=4, deletions=[((1, 0), (1, 0))]), "degenerate edge at (1, 0)"),
], ids=["dimension", "mixed-dimensions", "outside-R-beyond-int64", "ball-beyond-int64",
        "deletion-not-base", "deletion-diagonal", "addition-base", "both-kinds",
        "bool", "bool-False", "numpy-bool", "float", "str", "degenerate"])
def test_each_spec_check_raises_its_message(make, message):
    # coordinates are checked at construction, the rest by validate(), which build_graph calls first
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        make().validate()
    with pytest.raises(InvalidSpec, match=re.escape(message)):
        build_graph(make())


@pytest.mark.parametrize("edge", [((True,), (-1,)), ((1,), (False,)), ((0, True), (0, 2)),
                                  ((np.True_,), (-1,))])
def test_boolean_edge_coordinates_are_invalid(edge):
    # operator.index reads True as 1; a boolean is no more a coordinate than a d or an L
    with pytest.raises(InvalidSpec, match="integer coordinates"):
        canonical_edge(*edge)
    with pytest.raises(InvalidSpec, match="integer coordinates"):  # each coordinate is read once
        canonical_edge(iter(edge[0]), iter(edge[1]))
    with pytest.raises(InvalidSpec):
        GraphSpec(d=len(edge[0]), L=6, additions=[edge])


def test_the_first_bad_coordinate_is_named():
    with pytest.raises(InvalidSpec, match="boolean coordinate True"):
        canonical_edge((True,), (1.5,))


def test_numpy_integer_sizes_build_the_same_graph():
    for spec, numpy_spec in [(GraphSpec(d=3, L=4), GraphSpec(d=np.int64(3), L=np.int64(4))),
                             (sphere_deletion_spec(3, 2, 5), sphere_deletion_spec(3, np.int64(2), 5)),
                             (star_addition_spec(2, 2, 4), star_addition_spec(np.int32(2), 2, 4))]:
        assert np.array_equal(build_graph(numpy_spec).edges, build_graph(spec).edges)
        assert json.loads(json.dumps(numpy_spec.to_json_dict())) == spec.to_json_dict()
    assert vertex_tuples(path_graph(np.int64(3))) == vertex_tuples(path_graph(3))
    for bad in ({"d": np.True_}, {"L": np.True_}):
        with pytest.raises(InvalidSpec):
            GraphSpec(**{"d": 2, "L": 5, **bad}).validate()
    with pytest.raises(InvalidSpec):
        path_graph(np.True_)


def test_spec_json_round_trip():
    spec = sphere_deletion_spec(2, 2, 5)
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert GraphSpec.from_json_dict(data) == spec
    spec2 = star_addition_spec(3, 2, 4)
    assert GraphSpec.from_json_dict(spec2.to_json_dict()) == spec2


def test_equal_perturbations_are_equal_specs():
    # a spec is its dimension, box and edges: the radius is derived, so it cannot differ
    cut = GraphSpec(d=2, L=5, deletions={((0, 0), (1, 0))})
    assert cut == GraphSpec(d=2, L=5, deletions=[[[1, 0], [0, 0]]]) and cut.perturbation_radius() == 2
    for spec in (sphere_deletion_spec(3, 2, 6), star_addition_spec(3, 2, 6)):
        again = GraphSpec(d=3, L=6, deletions=spec.deletions, additions=spec.additions)
        assert spec == again and hash(spec) == hash(again)
        assert spec.perturbation_radius() == again.perturbation_radius()
        assert _default_probe_radius(build_graph(spec)) == _default_probe_radius(build_graph(again))
        assert "R" not in spec.to_json_dict() and GraphSpec.from_json_dict(spec.to_json_dict()) == spec
    assert GraphSpec(d=2, L=5).perturbation_radius() is None
    with pytest.raises(InvalidSpec, match="malformed graph spec"):  # a record that states a radius
        GraphSpec.from_json_dict(dict(cut.to_json_dict(), R=4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_spec_is_its_canonical_edge_set(data):
    # shuffled, flipped, repeated, as pairs or as an array: the same edges make an equal spec
    d = data.draw(st.integers(1, 3), label="d")
    verts = box_vertices(d, 3)
    edge = st.tuples(st.sampled_from(verts), st.sampled_from(verts)).filter(lambda e: e[0] != e[1])
    pairs = data.draw(st.lists(edge, min_size=1, max_size=10), label="pairs")
    kind = data.draw(st.sampled_from(["deletions", "additions"]), label="kind")
    canonical = sorted({canonical_edge(*e) for e in pairs})
    spec = GraphSpec(d=d, L=3, **{kind: canonical})
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)), label="flips")
    variant = [e[::-1] if flip else e for e, flip in zip(pairs, flips)]
    variant += data.draw(st.lists(st.sampled_from(variant), max_size=4), label="repeats")
    variant = data.draw(st.permutations(variant), label="order")
    for edges in (variant, np.array(variant), np.array(variant, dtype=np.int32), set(variant),
                  getattr(spec, kind), spec.deletion_array if kind == "deletions" else spec.addition_array):
        again = GraphSpec(d=d, L=3, **{kind: edges})
        assert again == spec and hash(again) == hash(spec)
    edges, other = (spec.deletion_array, spec.addition_array)[::1 if kind == "deletions" else -1]
    assert edges.dtype == np.int64 and edges.shape == (len(canonical), 2, d) and other.shape == (0, 2, d)
    assert [tuple(map(tuple, e)) for e in edges.tolist()] == canonical and not edges.flags.writeable
    assert getattr(spec, kind) == set(canonical) and not getattr(GraphSpec(d=d, L=3), kind)
    again = GraphSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
    assert again == spec and hash(again) == hash(spec) and again.to_json_dict() == spec.to_json_dict()
    assert spec != GraphSpec(d=d, L=4, **{kind: canonical}) and spec != GraphSpec(d=d, L=3, **{kind: canonical[1:]})


def test_a_spec_keeps_no_python_object_per_edge():
    # as frozensets of tuple pairs the star's 9,253 edges once kept about 2.9 MB
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        spec = star_addition_spec(3, 6, 25)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 2 * 9253 * 2 * 3 * 8
    assert spec.addition_array.shape == (9253, 2, 3) and spec.addition_array.nbytes == 9253 * 2 * 3 * 8
    # the pairs view is built on each access, never kept
    assert spec.additions is not spec.additions and spec.additions == spec.additions
    assert len(spec.additions) == 9253 and not spec.deletions
    assert repr(spec) == "GraphSpec(d=3, L=25, 0 deletions, 9253 additions)"
    assert repr(sphere_deletion_spec(2, 2, 5)) == "GraphSpec(d=2, L=5, 11 deletions, 0 additions)"
    for name in ("d", "addition_array", "additions"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(spec, name)
    with pytest.raises(ValueError, match="read-only"):
        spec.addition_array[0, 0, 0] = 5


def test_graph_takes_no_spec_or_box():
    g = build_graph(sphere_deletion_spec(2, 2, 5), boundary="dirichlet")
    for extra in ({"spec": g.spec}, {"box": g.box}):
        with pytest.raises(TypeError):
            Graph(g.lo, g.shape, g.edges, boundary="dirichlet", **extra)
    direct = Graph(g.lo, g.shape, g.edges, "dirichlet")
    assert direct.spec is None and direct.box is None and direct.boundary == "dirichlet"
    assert path_graph(4).spec is None and path_graph(4).box is None


@pytest.mark.parametrize("spec", [GraphSpec(d=3, L=3), sphere_deletion_spec(2, 2, 5), star_addition_spec(2, 2, 4),
                                  GraphSpec(d=3, L=4, deletions={((0, 0, 0), (0, 0, 1)), ((0, 0, 0), (1, 0, 0)),
                                                                 ((-1, 2, 0), (-1, 3, 0))})],
                         ids=["box", "sphere", "star", "cut-each-axis"])
def test_build_graph_attaches_its_spec_and_box(spec):
    g = build_graph(spec)
    assert g.spec is spec
    # the box's base edges, less the deleted slots, plus the added pairs, are the edge list
    ids = np.arange(g.n).reshape(g.shape)
    edges = []
    for k, slots in enumerate(g.box.deleted):
        tails, heads = (np.moveaxis(ids, k, 0)[s] for s in (slice(None, -1), slice(1, None)))
        keep = np.ones(tails.shape, dtype=bool)
        if slots is not None:
            np.moveaxis(keep, 0, k)[slots] = False
        edges += zip(tails[keep].tolist(), heads[keep].tolist())
    edges += zip(g.box.tails.tolist(), g.box.heads.tolist())
    assert sorted(edges) == list(map(tuple, g.edges.tolist()))
    assert sum(0 if s is None else len(s[0]) for s in g.box.deleted) == len(spec.deletions)
    assert len(g.box.heads) == len(spec.additions)


def test_path_graph():
    g2 = path_graph(2)
    assert vertex_tuples(g2) == [(0,), (1,)]
    assert g2.n_edges == 1
    g3 = path_graph(3)
    assert vertex_tuples(g3) == [(-1,), (0,), (1,)]
    for bad in (0, True, 2.5):
        with pytest.raises(InvalidSpec):
            path_graph(bad)


def test_phantom_counts():
    g = build_graph(GraphSpec(d=1, L=3))
    by_vertex = {v: g.phantom[i] for i, v in enumerate(vertex_tuples(g))}
    assert by_vertex == {(-2,): 1, (-1,): 0, (0,): 0, (1,): 0, (2,): 1}
    g2 = build_graph(GraphSpec(d=2, L=2))
    assert g2.phantom[g2.vertex_id((1, 1))] == 2
    assert g2.phantom[g2.vertex_id((0, 0))] == 0
    # a Graph derives its counts from its box alone: one per box face a vertex lies on
    shifted = Graph((5, -1), (3, 4), np.zeros((0, 2), dtype=np.int64))
    assert shifted.phantom.reshape(3, 4).tolist() == [[2, 1, 1, 2], [1, 0, 0, 1], [2, 1, 1, 2]]
    assert path_graph(4).phantom.tolist() == [1, 0, 0, 1]
    for spec in (GraphSpec(d=3, L=4), sphere_deletion_spec(2, 2, 5), star_addition_spec(2, 2, 4)):
        g = build_graph(spec, boundary="dirichlet")
        direct = Graph(g.lo, g.shape, g.edges, boundary="dirichlet")
        assert direct.phantom.dtype == g.phantom.dtype and direct.phantom.tobytes() == g.phantom.tobytes()


def test_boundary_mode_validation():
    with pytest.raises(InvalidSpec):
        build_graph(GraphSpec(d=1, L=2), boundary="periodic")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_build_graph_matches_tuple_reference(data):
    """Random small specs against a tuple-and-set construction of the same graph."""
    d = data.draw(st.integers(1, 4), label="d")
    L = data.draw(st.integers(2, 5 if d < 4 else 3), label="L")
    R = data.draw(st.integers(1, L), label="R")
    verts = box_vertices(d, L)
    ball = box_vertices(d, R)
    base = all_base_edges(d, L)
    deletions, additions = set(), set()
    if data.draw(st.booleans(), label="delete"):
        inside = sorted(e for e in base if all(max(map(abs, v)) < R for v in e))
        if inside:
            deletions = data.draw(st.sets(st.sampled_from(inside), max_size=8), label="deletions")
    else:
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ball), st.sampled_from(ball)),
                                   max_size=8), label="pairs")
        additions = {canonical_edge(x, y) for x, y in pairs if x != y and not is_base_edge(x, y)}
    spec = GraphSpec(d=d, L=L, deletions=deletions, additions=additions)
    perturbed = [v for e in deletions | additions for v in e]
    # the radius is derived: the smallest whose ball holds every perturbed vertex
    assert spec.perturbation_radius() == (max(max(map(abs, v)) for v in perturbed) + 1 if perturbed else None)
    edges = (base - spec.deletions) | spec.additions
    connected = bfs_oracle(verts, edges)
    if spec.deletions and not connected:
        with pytest.raises(DisconnectedGraph):
            build_graph(spec)
        index = {v: i for i, v in enumerate(verts)}
        ids = np.array(sorted((index[x], index[y]) for x, y in edges), dtype=np.int64)
        assert not is_connected(Graph((1 - L,) * d, (2 * L - 1,) * d, ids.reshape(-1, 2)))
        return
    g = build_graph(spec, boundary=data.draw(st.sampled_from(["drop", "dirichlet"])))
    assert vertex_tuples(g) == verts
    assert [g.vertex_id(v) for v in verts] == list(range(g.n))
    assert [(verts[i], verts[j]) for i, j in g.edges.tolist()] == sorted(edges)
    assert g.phantom.tolist() == [sum(abs(c) == L - 1 for c in v) for v in verts]
    adj = {v: set() for v in verts}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    for v in verts:
        assert degree(g, v) == len(adj[v])
        assert neighbours(g, v) == sorted(adj[v])
    assert is_connected(g) == connected


@pytest.mark.parametrize("g", [
    *(build_graph(GraphSpec(d=d, L=3)) for d in (1, 2, 3, 4)),
    Graph((2, -3), (3, 4), np.zeros((0, 2), dtype=np.int64)),
    path_graph(5), path_graph(6),
    build_graph(sphere_deletion_spec(2, 2, 4)), build_graph(star_addition_spec(2, 2, 4)),
], ids=["box-d1", "box-d2", "box-d3", "box-d4", "shifted-box", "path-5", "path-6",
        "deletion", "addition"])
def test_offsets_give_coordinate_radii_and_distances(g):
    coords = g.coords
    for centre in ((0,) * g.d, tuple(coords[g.n // 3]), tuple(coords[-1] + 2),
                   tuple(np.asarray(g.lo) - 3)):
        offsets = g.offsets(centre)
        radius = reduce(np.maximum, map(np.abs, offsets)).ravel()
        dist2 = sum(o * o for o in offsets).ravel()
        want_radius = np.max(np.abs(coords - np.asarray(centre)), axis=1)
        want_dist2 = np.sum((coords - np.asarray(centre)) ** 2, axis=1)
        assert radius.dtype == want_radius.dtype and np.array_equal(radius, want_radius)
        assert dist2.dtype == want_dist2.dtype and np.array_equal(dist2, want_dist2)
    assert all(np.array_equal(a, b) for a, b in zip(g.offsets(), g.offsets((0,) * g.d)))


def _read_positions(g):
    """Every library use of vertex positions: all seed kinds, localization, a ball."""
    rng = np.random.default_rng(0)
    for descriptor in default_seed_plan(8):
        u, _ = make_seed(g, descriptor, rng)
        _localize(g, u, _default_probe_radius(g))
    ball_indicator_field(g, 2, 6.0)


@pytest.mark.parametrize("spec", [GraphSpec(d=3, L=12), sphere_deletion_spec(3, 2, 12)],
                         ids=["box", "sphere-deletion"])
def test_graph_retains_only_edges_and_phantom_counts(spec):
    # a Graph keeps at most tails, heads and phantom (8 bytes each per edge end or
    # vertex); an (n, d) coordinate table, built or cached, would add 8nd bytes
    _read_positions(build_graph(GraphSpec(d=3, L=3), boundary="dirichlet"))  # warm numpy
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(spec, boundary="dirichlet")
        budget = 8 * (2 * g.n_edges + g.n) + 64 * 1024
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before <= budget
        _read_positions(g)
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before <= budget
    finally:
        tracemalloc.stop()
