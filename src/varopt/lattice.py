"""Finite truncations of the integer lattice Z^d with local edge perturbations.

Vertices are d-tuples of ints with sup-norm < L (the box B_L); base edges
connect points at l1-distance 1. A perturbation either deletes a finite set
of base edges (connectivity must survive) or adds a finite set of non-base
edges, all inside a ball B_R around the origin. Fields on a truncation are
zero-extended outside the box; edges crossing the box boundary are either
dropped entirely (``boundary="drop"``, the default) or kept with a
zero-valued phantom endpoint (``boundary="dirichlet"``).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedGraph, InvalidSpec, OutOfBox

BOUNDARY_MODES = ("drop", "dirichlet")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, (bool, np.bool_))


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, (bool, np.bool_))


def _is_finite(x) -> bool:
    """True iff x is a finite real number that is not a boolean."""
    return _is_number(x) and -math.inf < x < math.inf


def _coordinate(c) -> int:
    if isinstance(c, bool):  # operator.index would read True as 1
        raise TypeError(f"boolean coordinate {c}")
    return operator.index(c)


def canonical_edge(x, y) -> tuple:
    """Return the undirected edge (x, y) in its canonical ordered form."""
    try:
        x, y = tuple(map(_coordinate, x)), tuple(map(_coordinate, y))
    except TypeError as exc:
        raise InvalidSpec(f"edge ({x}, {y}) needs integer coordinates: {exc}") from exc
    if x == y:
        raise InvalidSpec(f"degenerate edge at {x}")
    return (x, y) if x < y else (y, x)


def is_base_edge(x, y) -> bool:
    """True iff x and y are lattice neighbours (l1-distance exactly 1)."""
    return sum(abs(a - b) for a, b in zip(x, y)) == 1 if len(x) == len(y) else False


def box_vertices(d: int, L: int):
    """All vertices of B_L in canonical (lexicographic) order."""
    return [tuple(c) for c in itertools.product(range(-(L - 1), L), repeat=d)]


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for a perturbed truncation: dimension, box radius, edge changes.

    Deletions and additions are mutually exclusive (the two perturbation
    families are handled separately); the radius of the ball holding them is
    derived, never stated (``perturbation_radius``).
    """

    d: int
    L: int
    deletions: frozenset = field(default_factory=frozenset)
    additions: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "deletions", frozenset(canonical_edge(*e) for e in self.deletions))
        object.__setattr__(self, "additions", frozenset(canonical_edge(*e) for e in self.additions))

    @cached_property
    def _edge_array(self) -> np.ndarray:
        """Deletions then additions as one (k >= 1, 2, d) int64 array (object beyond int64)."""
        edges = [*self.deletions, *self.additions]
        try:
            return np.array(edges, dtype=np.int64)
        except OverflowError:
            return np.array(edges, dtype=object)
        except ValueError:  # vertices of different lengths
            v = next(v for e in edges for v in e if len(v) != self.d)
            raise InvalidSpec(f"vertex {v} has wrong dimension (expected {self.d})") from None

    @classmethod
    def _from_array(cls, d, L, kind: str, edges: np.ndarray) -> "GraphSpec":
        """The spec whose ``kind`` are the rows of ``edges``, cached as given with no canonical_edge pass.
        Callers pass a (k, 2, d) int64 array of distinct rows, x < y as tuples: a repeat is built twice."""
        spec = cls(d=d, L=L)
        spec.__dict__.update({kind: frozenset(_pairs(edges)), "_edge_array": edges})
        return spec

    def perturbation_radius(self) -> int | None:
        """The smallest R whose ball B_R holds every perturbed edge; None with no perturbation."""
        if not (self.deletions or self.additions):
            return None
        return max(-int(self._edge_array.min()), int(self._edge_array.max())) + 1

    def validate(self) -> None:
        if not _is_int(self.d) or self.d < 1:
            raise InvalidSpec(f"dimension must be an integer >= 1, got {self.d!r}")
        if not _is_int(self.L) or self.L < 2:
            raise InvalidSpec(f"box radius L must be an integer >= 2, got {self.L!r}")
        if self.deletions and self.additions:
            raise InvalidSpec("deletions and additions cannot both be nonempty")
        if not (self.deletions or self.additions):
            return
        edges = self._edge_array
        outside = edges[((edges <= -self.L) | (edges >= self.L)).any(axis=2)]
        if len(outside):
            raise InvalidSpec(f"perturbed vertex {tuple(outside[0].tolist())} lies outside the box B_{self.L}")
        if edges.shape[2] != self.d:
            raise InvalidSpec(f"vertex {tuple(edges[0, 0].tolist())} has wrong dimension (expected {self.d})")
        base = np.abs(edges[:, 0] - edges[:, 1]).sum(axis=1) == 1
        if self.deletions and not base.all():
            raise InvalidSpec(f"deletion {next(_pairs(edges[~base]))} is not a base lattice edge")
        if self.additions and base.any():
            raise InvalidSpec(f"addition {next(_pairs(edges[base]))} is already a base lattice edge")

    def to_json_dict(self) -> dict:
        return {
            "d": int(self.d),
            "L": int(self.L),
            "deletions": [[list(x), list(y)] for x, y in sorted(self.deletions)],
            "additions": [[list(x), list(y)] for x, y in sorted(self.additions)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GraphSpec":
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidSpec(f"malformed graph spec: {exc}") from exc


def _pairs(edges: np.ndarray):
    """The rows of a (k, 2, d) edge array as (x, y) pairs of coordinate tuples (zip's grouper)."""
    return zip(*[iter(map(tuple, edges.reshape(-1, edges.shape[2]).tolist()))] * 2)


def _flat_ids(points, lo, shape) -> np.ndarray:
    """C-order ids of an (..., d) array of points in the box lo + [0, shape)."""
    offset = np.asarray(points, dtype=np.int64) - lo
    return np.ravel_multi_index(tuple(np.moveaxis(offset, -1, 0)), shape)


class BoxEdges(NamedTuple):
    """A build_graph truncation's edges as the box's base edges minus deletions plus additions.

    ``deleted[k]`` indexes the deleted edges (x, x + e_k) along axis k by their
    tails' offsets x - lo, as a tuple of d index arrays, or is None when axis k
    has none; ``tails`` and ``heads`` are the added edges' id pairs.
    """

    deleted: tuple
    tails: np.ndarray
    heads: np.ndarray


class Graph:
    """Immutable truncation: the box lo + [0, shape), its edge list and its phantom counts.

    Vertex ids run in C order, which is lexicographic order on coordinates,
    so ids and positions are computed, never looked up (``vertex_id`` and
    ``build_graph`` share ``_flat_ids``). ``coords`` builds the (n, d) position
    table on each access and is deliberately not cached; ``offsets(c)`` gives
    the per-axis offsets x_k - c_k as broadcasting ranges, from which radii and
    distances are reduced without it. ``tails`` and ``heads`` are contiguous
    int64 rows of the id pairs i < j sorted by (i, j); ``edges`` is their (m, 2)
    transposed view. Degrees are ``np.bincount(edges.ravel(), minlength=n)``;
    ``phantom`` counts each vertex's base-lattice edges that leave the box (one
    per box face it lies on), read in dirichlet mode only. ``box`` holds the
    same edges as ``BoxEdges`` and ``spec`` labels them when ``build_graph``
    made the graph, which sets both; else both are None. ``box`` is the one mark
    of a box truncation, which the kernels' box layout and the box inverse read.
    Safe for concurrent reads; never mutated once built.
    """

    def __init__(self, lo, shape, edges, boundary="drop"):
        """From the box's lower corner and shape and an (m, 2) integer array of
        id pairs i < j, none repeated; raises InvalidSpec otherwise."""
        if boundary not in BOUNDARY_MODES:
            raise InvalidSpec(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")
        self.boundary, self.spec, self.box = boundary, None, None
        self.lo, self.shape = tuple(int(a) for a in lo), tuple(int(m) for m in shape)
        if len(self.lo) != len(self.shape) or min(self.shape, default=0) < 1:
            raise InvalidSpec(f"box needs lo and shape of one length and sides >= 1, got {lo}, {shape}")
        self.d = len(self.shape)
        self.n = n = int(np.prod(self.shape))
        edges = np.asarray(edges)
        if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
            raise InvalidSpec(f"edges must be an (m, 2) integer array, got {edges.dtype} {edges.shape}")
        edges = edges.astype(np.int64, copy=False)
        if np.any((edges[:, 0] < 0) | (edges[:, 0] >= edges[:, 1]) | (edges[:, 1] >= n)):
            raise InvalidSpec(f"every edge must be an id pair 0 <= i < j < {n}")
        # one phantom edge per box face: per axis, at offset 0 and at offset m - 1
        self.phantom = sum(np.add(o == 0, o == m - 1, dtype=np.float64)
                           for o, m in zip(np.ix_(*map(np.arange, self.shape)), self.shape)).ravel()
        ordered = np.sort(edges[:, 0] * n + edges[:, 1])  # i * n + j sorts like the pair (i, j)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidSpec("an edge is listed twice")
        pairs = np.stack(np.divmod(ordered, n))  # contiguous rows for the edge kernels
        self.tails, self.heads = pairs
        self.edges = pairs.T
        self.n_edges = len(self.edges)
        # sup-norm extent of the vertex set; box semantics for localization
        self.extent = max(max(-a, a + m - 1) for a, m in zip(self.lo, self.shape))
        self.L = self.extent + 1

    @property
    def coords(self) -> np.ndarray:
        """The (n, d) int64 coordinates in id order, built anew on each access."""
        return np.stack(np.unravel_index(np.arange(self.n), self.shape), axis=1) + self.lo

    def offsets(self, centre=None) -> tuple:
        """Per-axis offsets x_k - c_k (c defaults to the origin) as int64 ranges
        shaped to broadcast over ``shape``: ``sum(o * o for o in offs).ravel()``
        is the squared distance of every vertex, in id order."""
        centre = (0,) * self.d if centre is None else centre
        return np.ix_(*(np.arange(m, dtype=np.int64) + (a - _coordinate(c))
                        for a, m, c in zip(self.lo, self.shape, centre, strict=True)))

    def sup_distance(self, centre=None) -> np.ndarray:
        """The sup-norm distance of every vertex from c (the origin by default), in id order."""
        return reduce(np.maximum, map(np.abs, self.offsets(centre))).ravel()

    def __contains__(self, x) -> bool:
        return len(x) == self.d and all(_is_int(c) and 0 <= c - a < m
                                        for c, a, m in zip(x, self.lo, self.shape))

    def vertex_id(self, x) -> int:
        if x not in self:
            raise OutOfBox(f"{tuple(x)} is not an integer point of the box {self.lo} + [0, {self.shape})")
        return int(_flat_ids(x, self.lo, self.shape))

    def __repr__(self):
        return f"Graph(d={self.d}, n={self.n}, edges={self.n_edges}, boundary={self.boundary!r})"


def build_graph(spec: GraphSpec, boundary: str = "drop") -> Graph:
    """Build the truncation graph for a spec: base edges minus deletions plus additions,
    labelled with the spec and holding the same edges as BoxEdges.

    Raises DisconnectedGraph when a deletion spec leaves the box disconnected,
    InvalidSpec when the spec itself is inconsistent.
    """
    spec.validate()
    lo, shape = (1 - spec.L,) * spec.d, (2 * spec.L - 1,) * spec.d
    ids = np.arange(int(np.prod(shape))).reshape(shape)
    # base edges join each vertex to its successor along each axis: one block per axis
    edges = np.concatenate([np.stack([a[:-1].ravel(), a[1:].ravel()], axis=1)
                            for a in (np.moveaxis(ids, k, 0) for k in range(spec.d))])
    deleted, added = [None] * spec.d, np.empty((0, 2), dtype=np.int64)
    if spec.deletions:
        # (x, x + e_k) is in block k at x's C-order position in moveaxis(ids, k, 0)[:-1],
        # whose axes run k first and then the others in order: x's coordinates in k_first order
        x, y = spec._edge_array[:, 0], spec._edge_array[:, 1]
        k_first = np.argsort(np.argmax(y - x, axis=1)[:, None] != np.arange(spec.d), axis=1, kind="stable")
        moved, block = np.take_along_axis(x, k_first, axis=1), (shape[0] - 1,) + shape[1:]
        edges = np.delete(edges, k_first[:, 0] * np.prod(block) + _flat_ids(moved, lo, block), axis=0)
        tails = [np.asarray(x[k_first[:, 0] == k], dtype=np.int64) - lo for k in range(spec.d)]
        deleted = [tuple(t.T) if len(t) else None for t in tails]
    if spec.additions:
        added = _flat_ids(spec._edge_array, lo, shape)
        edges = np.concatenate([edges, added])
    graph = Graph(lo, shape, edges, boundary=boundary)
    graph.spec, graph.box = spec, BoxEdges(tuple(deleted), *np.ascontiguousarray(added.T))
    if spec.deletions and not is_connected(graph):
        raise DisconnectedGraph(f"deleting {len(spec.deletions)} edge(s) disconnected the box B_{spec.L}")
    return graph


def path_graph(n: int) -> Graph:
    """A 1-d path on n consecutive integers, roughly centred at 0, in drop mode.

    Used for exhaustive-oracle cross checks on tiny graphs. It has no BoxEdges,
    and its ends' phantom counts go unread, since a path is always in drop mode.
    """
    if not (_is_int(n) and n >= 1):
        raise InvalidSpec(f"path graph needs an integer number of vertices n >= 1, got {n!r}")
    ids = np.arange(n)
    return Graph((-((n - 1) // 2),), (n,),
                 np.stack([ids[:-1], ids[1:]], axis=1))


def is_connected(graph: Graph) -> bool:
    """True iff the edges join all the vertices into one component.

    Hook-and-compress (Shiloach & Vishkin, J. Algorithms 3, 1982): each round
    hooks the larger root of every edge between two trees onto the smaller,
    then jumps pointers to the roots, until no edge joins two trees. Pointers
    only decrease, so it ends. A tree whose root is below all its neighbours'
    is hooked onto, or hooks onto them next round: every tree merges within
    two rounds, so O(log n) rounds suffice. A lattice-ordered box needs one.
    """
    parent = np.arange(graph.n)
    while not np.array_equal(a := parent[graph.tails], b := parent[graph.heads]):
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
    return bool(np.all(parent == parent[0]))


def ball_boundary_edges(d: int, R: int) -> list:
    """Base edges (y, z) with y inside B_R and z outside, canonically ordered."""
    ball, e = np.indices((2 * R - 1,) * d).reshape(d, -1).T - (R - 1), np.eye(d, dtype=int)
    # (t, t + e_k) crosses the sphere exactly when t_k is R - 1 (t inside) or -R (t outside)
    tails = [(k, t) for k in range(d) for t in (ball[ball[:, k] == R - 1], ball[ball[:, k] == 1 - R] - e[k])]
    return sorted(_pairs(np.concatenate([np.stack([t, t + e[k]], axis=1) for k, t in tails])))


def sphere_deletion_spec(d: int, R: int, L: int, kept_edge=None) -> GraphSpec:
    """Delete every edge crossing the sphere of B_R except one kept edge.

    The kept edge defaults to ((R-1, 0, ..., 0), (R, 0, ..., 0)); pass an
    explicit edge or a selector callable over the boundary edge list to
    override. All deleted edges lie inside B_{R+1}, so the spec's perturbation
    radius is R + 1.
    """
    if not (_is_int(d) and _is_int(R) and _is_int(L) and d >= 1 and 1 <= R < L):
        raise InvalidSpec(f"need integers d >= 1 and 1 <= R < L, got d={d!r}, R={R!r}, L={L!r}")
    boundary = ball_boundary_edges(d, R)
    if kept_edge is None:
        kept_edge = ((R - 1,) + (0,) * (d - 1), (R,) + (0,) * (d - 1))
    kept = canonical_edge(*(kept_edge(boundary) if callable(kept_edge) else kept_edge))
    if kept not in boundary:
        raise InvalidSpec(f"kept edge {kept} is not a boundary edge of B_{R}")
    return GraphSpec._from_array(d, L, "deletions", np.array([e for e in boundary if e != kept]))


def star_addition_spec(d: int, R: int, L: int) -> GraphSpec:
    """Join the origin and its lattice neighbours to every vertex of B_R.

    Adds (c, y) for each centre c in {0, +-e_k} and every y in B_R that is
    neither c itself nor already a lattice neighbour of c, deduplicated in
    canonical form.
    """
    if not (_is_int(d) and _is_int(R) and _is_int(L) and d >= 1 and 2 <= R < L):
        raise InvalidSpec(f"need integers d >= 1 and 2 <= R < L, got d={d!r}, R={R!r}, L={L!r}")
    ball = np.indices((2 * R - 1,) * d).reshape(d, -1).T - (R - 1)
    ids = np.flatnonzero(np.abs(ball).sum(axis=1) <= 1)  # the centres, by their ids in B_R
    # pairs (c, y) at l1-distance >= 2, as ids in B_R's C order, which sorts like the points
    far = np.abs(ball[ids, None] - ball).sum(axis=2) > 1
    far[:, ids] &= ids[:, None] < ids  # a pair of centres once, from the smaller
    i, y = np.nonzero(far)
    return GraphSpec._from_array(d, L, "additions", ball[np.sort(np.stack([ids[i], y], axis=1))])
