"""Graph construction: box truncations, perturbation specs, adjacency."""

import itertools
import json

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
    neighbors,
    path_graph,
    sphere_deletion_spec,
    star_addition_spec,
)


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
    assert sorted(g.vertices) == [(-1,), (0,), (1,)]


def test_deletion_reduces_degree():
    g = build_graph(GraphSpec(d=2, L=3, deletions={((0, 0), (1, 0))}))
    assert g.degree((0, 0)) == 3
    assert is_connected(g)
    assert (1, 0) not in neighbors(g, (0, 0))


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
    edges = {(g.vertices[i], g.vertices[j]) for i, j in g.edges}
    assert bfs_oracle(g.vertices, edges)


def test_sphere_deletion_invalid_radius():
    with pytest.raises(InvalidSpec):
        sphere_deletion_spec(2, 2, 2)


@pytest.mark.parametrize("d,R", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sphere_deletion_connectivity_matrix(d, R):
    g = build_graph(sphere_deletion_spec(d, R, R + 2))
    assert is_connected(g)


def test_sphere_deletion_kept_edge_override():
    kept = ((-2,), (-1,))
    spec = sphere_deletion_spec(1, 2, 4, kept_edge=kept)
    assert spec.deletions == frozenset({((1,), (2,))})
    spec2 = sphere_deletion_spec(1, 2, 4, kept_edge=lambda edges: edges[0])
    assert len(spec2.deletions) == 1
    with pytest.raises(InvalidSpec):
        sphere_deletion_spec(1, 2, 4, kept_edge=((0,), (1,)))


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


def test_star_addition_full_adjacency_of_ball():
    spec = star_addition_spec(2, 3, 5)
    g = build_graph(spec)
    for y in box_vertices(2, 3):
        for c in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]:
            if y != c:
                assert y in neighbors(g, c)


def test_star_addition_invalid():
    with pytest.raises(InvalidSpec):
        star_addition_spec(2, 5, 5)
    with pytest.raises(InvalidSpec):
        star_addition_spec(2, 1, 5)


def test_neighbors_unperturbed_d2():
    g = build_graph(GraphSpec(d=2, L=3))
    assert neighbors(g, (0, 0)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_neighbors_star_added():
    g = build_graph(star_addition_spec(1, 2, 4))
    assert {(0,), (-2,), (1,)} <= set(neighbors(g, (-1,)))


def test_neighbors_out_of_box():
    g = build_graph(GraphSpec(d=1, L=2))
    with pytest.raises(OutOfBox):
        neighbors(g, (5,))


def test_out_of_box_points_never_alias_an_id():
    # (0, 3) flattens to id 15 of the 25 in the d=2 L=3 box but lies outside it
    g = build_graph(GraphSpec(d=2, L=3))
    for x in [(0, 3), (3, 0), (-3, 2), (2, -3), (0,), (0, 0, 0)]:
        for query in (g.vertex_id, g.degree, lambda y: neighbors(g, y)):
            with pytest.raises(OutOfBox):
                query(x)


def test_graph_requires_a_full_box_in_lexicographic_order():
    verts = box_vertices(2, 2)
    edges = all_base_edges(2, 2)
    for bad in (verts[::-1], verts[:-1], verts + [(0, 0)], verts[:4] + [(0, 1)] + verts[5:], []):
        with pytest.raises(InvalidSpec):
            Graph(bad, set(), 2)
    # flattened, these 2-tuples would read as the 1-d box 0..3
    with pytest.raises(InvalidSpec):
        Graph([(0, 1), (2, 3)], set(), 1)
    with pytest.raises(InvalidSpec):
        Graph([(0,), (1,), (2,), (3,)], {((0, 1), (2, 3))}, 1)
    assert Graph(verts, edges, 2).n_edges == 12
    shifted = Graph([(5,), (6,), (7,)], {((5,), (6,))}, 1)
    assert shifted.vertex_id((6,)) == 1
    assert neighbors(shifted, (6,)) == [(5,)]
    assert not is_connected(shifted)


def test_is_connected_examples():
    for d, L in [(1, 4), (2, 3), (3, 2)]:
        assert is_connected(build_graph(GraphSpec(d=d, L=L)))
    # direct construction with both edges at 0 removed
    verts = box_vertices(1, 3)
    edges = all_base_edges(1, 3) - {((-1,), (0,)), ((0,), (1,))}
    assert not is_connected(Graph(verts, edges, 1))


@pytest.mark.parametrize("d,L", [(1, 4), (2, 3), (3, 2)])
def test_degree_formula(d, L):
    g = build_graph(GraphSpec(d=d, L=L))
    box = set(box_vertices(d, L))
    for x in g.vertices:
        expected = 0
        for k in range(d):
            for s in (1, -1):
                y = x[:k] + (x[k] + s,) + x[k + 1:]
                expected += y in box
        assert g.degree(x) == expected


def test_adjacency_symmetry():
    g = build_graph(star_addition_spec(2, 2, 4))
    for x in g.vertices:
        for y in neighbors(g, x):
            assert x in neighbors(g, y)


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
    for x in g.vertices:
        r = max(abs(c) for c in x)
        if r < g.L - 1 and r >= R_eff:
            assert g.degree(x) == 2 * g.d


def test_spec_invariant_violations():
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, deletions={((0,), (1,))},
                  additions={((-2,), (2,))}).validate()
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, additions={((0,), (1,))}).validate()  # base edge
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, deletions={((0,), (2,))}).validate()  # not a base edge
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=3, R=1, deletions={((1,), (2,))}).validate()  # outside B_R
    with pytest.raises(InvalidSpec):
        GraphSpec(d=1, L=1).validate()
    with pytest.raises(InvalidSpec):
        build_graph(GraphSpec(d=2, L=8, deletions={((0, 0), (0, 1)), ((0, 0), (0, 1))},
                              additions=frozenset(), R=9))


def test_spec_json_round_trip():
    spec = sphere_deletion_spec(2, 2, 5)
    data = json.loads(json.dumps(spec.to_json_dict()))
    assert GraphSpec.from_json_dict(data) == spec
    spec2 = star_addition_spec(3, 2, 4)
    assert GraphSpec.from_json_dict(spec2.to_json_dict()) == spec2


def test_path_graph():
    g2 = path_graph(2)
    assert g2.vertices == [(0,), (1,)]
    assert g2.n_edges == 1
    g3 = path_graph(3)
    assert g3.vertices == [(-1,), (0,), (1,)]
    with pytest.raises(InvalidSpec):
        path_graph(0)


def test_phantom_counts():
    g = build_graph(GraphSpec(d=1, L=3))
    by_vertex = {v: g.phantom[i] for i, v in enumerate(g.vertices)}
    assert by_vertex == {(-2,): 1, (-1,): 0, (0,): 0, (1,): 0, (2,): 1}
    g2 = build_graph(GraphSpec(d=2, L=2))
    assert g2.phantom[g2.vertex_id((1, 1))] == 2
    assert g2.phantom[g2.vertex_id((0, 0))] == 0


def test_boundary_mode_validation():
    with pytest.raises(InvalidSpec):
        build_graph(GraphSpec(d=1, L=2), boundary="periodic")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_build_graph_matches_tuple_reference(data):
    """Random small specs against a tuple-and-set construction of the same graph."""
    d = data.draw(st.integers(1, 3), label="d")
    L = data.draw(st.integers(2, 5), label="L")
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
    spec = GraphSpec(d=d, L=L, deletions=deletions, additions=additions, R=R)
    edges = (base - spec.deletions) | spec.additions
    connected = bfs_oracle(verts, edges)
    if spec.deletions and not connected:
        with pytest.raises(DisconnectedGraph):
            build_graph(spec)
        return
    g = build_graph(spec, boundary=data.draw(st.sampled_from(["drop", "dirichlet"])))
    assert g.vertices == verts
    assert [(verts[i], verts[j]) for i, j in g.edges.tolist()] == sorted(edges)
    assert g.phantom.tolist() == [sum(abs(c) == L - 1 for c in v) for v in verts]
    adj = {v: set() for v in verts}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    for v in verts:
        assert g.degree(v) == len(adj[v])
        assert neighbors(g, v) == sorted(adj[v])
    assert is_connected(g) == connected
