"""Finite truncations of the integer lattice Z^d with local edge perturbations.

Vertices are d-tuples of ints with sup-norm < L (the box B_L); base edges
connect points at l1-distance 1. A perturbation either deletes a finite set
of base edges (connectivity must survive) or adds a finite set of non-base
edges, all inside a ball B_R around the origin; a GraphSpec holds each set as one
canonical (k, 2, d) int64 array of edges. Fields on a truncation are
zero-extended outside the box; edges crossing the box boundary are either
dropped entirely (``boundary="drop"``, the default) or kept with a
zero-valued phantom endpoint (``boundary="dirichlet"``).
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import reprlib
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedGraph, InvalidSpec, OutOfBox

BOUNDARY_MODES = ("drop", "dirichlet")
# From this many vertices on, build_graph makes a _BoxTruncation: it keeps no edge
# list and the calculus kernels take the box layout (the crossover table is in calculus.py).
_BOX_MIN_VERTICES = 2500


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


class GraphSpec:
    """Recipe for a perturbed truncation: dimension, box radius, edge changes.

    ``deletion_array`` and ``addition_array`` hold the perturbation, each as one
    read-only canonical int64 array of shape (k, 2, d): every row an edge (x, y)
    with x < y lexicographically, the rows sorted lexicographically, none twice.
    The constructor takes such an integer array or any collection of (x, y)
    vertex pairs, in any order and orientation and with repeats, so two specs
    with the same d, L and edges are equal. ``deletions`` and ``additions`` are
    the same edges as a frozenset of coordinate-tuple pairs, built anew on each
    access. Deletions and additions are mutually exclusive (the two
    perturbation families are handled separately); the radius of the ball
    holding them is derived, never stated (``perturbation_radius``).
    """

    def __init__(self, d, L, deletions=(), additions=()):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "deletion_array", _read_edges("deletions", deletions, d, L))
        object.__setattr__(self, "addition_array", _read_edges("additions", additions, d, L))

    def __setattr__(self, name, value):
        raise AttributeError(f"a GraphSpec is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a GraphSpec is immutable: cannot delete {name}")

    @property
    def deletions(self) -> frozenset:
        """The deleted edges as (x, y) coordinate-tuple pairs, built on each access."""
        return frozenset(_pairs(self.deletion_array))

    @property
    def additions(self) -> frozenset:
        """The added edges as (x, y) coordinate-tuple pairs, built on each access."""
        return frozenset(_pairs(self.addition_array))

    def _key(self) -> tuple:
        """What equality and the hash compare: d, L and each array's shape and bytes."""
        return (self.d, self.L, *((a.shape, a.tobytes()) for a in (self.deletion_array, self.addition_array)))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is GraphSpec else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"GraphSpec(d={self.d!r}, L={self.L!r}, {len(self.deletion_array)} deletions, "
                f"{len(self.addition_array)} additions)")

    def perturbation_radius(self) -> int | None:
        """The smallest R whose ball B_R holds every perturbed edge; None with no perturbation."""
        return max((max(-int(a.min()), int(a.max())) + 1 for a in (self.deletion_array, self.addition_array)
                    if a.size), default=None)

    def validate(self) -> None:
        if not _is_int(self.d) or self.d < 1:
            raise InvalidSpec(f"dimension must be an integer >= 1, got {self.d!r}")
        if not _is_int(self.L) or self.L < 2:
            raise InvalidSpec(f"box radius L must be an integer >= 2, got {self.L!r}")
        deleting = len(self.deletion_array) > 0
        if deleting and len(self.addition_array):
            raise InvalidSpec("deletions and additions cannot both be nonempty")
        edges = self.deletion_array if deleting else self.addition_array
        if not len(edges):
            return
        outside = edges[((edges <= -self.L) | (edges >= self.L)).any(axis=2)]
        if len(outside):
            raise InvalidSpec(f"perturbed vertex {tuple(outside[0].tolist())} lies outside the box B_{self.L}")
        if edges.shape[2] != self.d:
            raise InvalidSpec(f"vertex {tuple(edges[0, 0].tolist())} has wrong dimension (expected {self.d})")
        base = np.abs(edges[:, 0] - edges[:, 1]).sum(axis=1) == 1
        if deleting and not base.all():
            raise InvalidSpec(f"deletion {next(_pairs(edges[~base]))} is not a base lattice edge")
        if not deleting and base.any():
            raise InvalidSpec(f"addition {next(_pairs(edges[base]))} is already a base lattice edge")

    def to_json_dict(self) -> dict:
        return {
            "d": int(self.d),
            "L": int(self.L),
            "deletions": self.deletion_array.tolist(),
            "additions": self.addition_array.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GraphSpec":
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidSpec(f"malformed graph spec: {exc}") from exc


def _read_edges(name: str, edges, d, L) -> np.ndarray:
    """A GraphSpec's deletions or additions as a canonical read-only (k, 2, d') int64 array, d' the
    vertices' length. An integer array of shape (k, 2, d') is read as it is, anything else as (x, y)
    pairs by canonical_edge, whose vertices must share one length and fit in int64."""
    if not (isinstance(edges, np.ndarray) and edges.ndim == 3 and edges.shape[1] == 2
            and np.issubdtype(edges.dtype, np.integer) and np.can_cast(edges.dtype, np.int64)):
        try:
            pairs = [canonical_edge(*e) for e in edges]
        except TypeError as exc:  # canonical_edge reports bad coordinates itself
            raise InvalidSpec(f"{name} must be a collection of (x, y) vertex pairs, got {reprlib.repr(edges)}: "
                              f"{exc}") from None
        vertices = [v for e in pairs for v in e]
        if len(set(map(len, vertices))) > 1:
            raise InvalidSpec(f"vertex {next(v for v in vertices if len(v) != d)} has wrong dimension "
                              f"(expected {d})")
        try:
            edges = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2, -1 if pairs else 0)
        except OverflowError:  # no box that fits in memory holds it
            big = next(v for v in vertices if not all(-2 ** 63 <= c < 2 ** 63 for c in v))
            raise InvalidSpec(f"perturbed vertex {big} lies outside the box B_{L}") from None
    if not len(edges):  # no edges have one shape, however they came
        edges = np.empty((0, 2, d if _is_int(d) and d >= 1 else 0), dtype=np.int64)
    return _canonical_edges(edges.astype(np.int64))


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """The rows of a (k, 2, d) int64 array, which it overwrites, as a read-only array: each edge
    (x, y) turned so that x < y lexicographically, sorted lexicographically, each once."""
    k, _, d = edges.shape
    if k:
        differ = edges[:, 0] != edges[:, 1]
        if not (distinct := differ.any(axis=1)).all():
            raise InvalidSpec(f"degenerate edge at {tuple(edges[~distinct][0, 0].tolist())}")
        rows, first = np.arange(k), differ.argmax(axis=1)  # the first coordinate where x and y differ
        flip = edges[rows, 0, first] > edges[rows, 1, first]
        edges[flip] = edges[flip, ::-1]
        flat = edges.reshape(k, 2 * d)
        flat = flat[np.lexsort(flat.T[::-1])]
        edges = flat[np.concatenate([[True], (flat[1:] != flat[:-1]).any(axis=1)])].reshape(-1, 2, d)
    edges.flags.writeable = False
    return edges


def _pairs(edges: np.ndarray):
    """The rows of a (k, 2, d) edge array as (x, y) pairs of coordinate tuples."""
    return ((tuple(x), tuple(y)) for x, y in edges.tolist())


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


@cache
def _axis_slices(d: int) -> tuple:
    """Per axis k, the index tuples (head, tail, inner, first, last) that pick x + e_k and x
    from a d-dimensional array, and the inner part and the first and last slab along k of an
    array with one more entry along k. The box layout's one slot convention: the edge
    (x, x + e_k) sits at x - lo in array[tail] and array[inner], as BoxEdges.deleted[k] indexes it."""
    picks = (slice(1, None), slice(None, -1), slice(1, -1), slice(None, 1), slice(-1, None))
    return tuple(tuple((slice(None),) * k + (i,) for i in picks) for k in range(d))


class Graph:
    """Immutable truncation: the box lo + [0, shape), its edge list and its phantom counts.

    Vertex ids run in C order, which is lexicographic order on coordinates, so ids and positions
    are computed, never looked up (``vertex_id`` and ``build_graph`` share ``_flat_ids``).
    ``coords`` builds the (n, d) position table on each access and is deliberately not cached;
    ``offsets(c)`` gives the per-axis offsets x_k - c_k as broadcasting ranges, from which radii
    and distances are reduced without it. ``tails`` and ``heads`` are contiguous int64 rows of
    the id pairs i < j sorted by (i, j); ``edges`` is their (m, 2) transposed view, stored and
    read by the kernels in the edge layout. Degrees are ``np.bincount(edges.ravel(), minlength=n)``;
    ``phantom`` counts each vertex's base-lattice edges that leave the box (one per box face it
    lies on), read in dirichlet mode only. ``box`` holds the same edges as ``BoxEdges`` and
    ``spec`` labels them when ``build_graph`` made the graph, which sets both; else both are None.
    ``box`` marks a box truncation, which the box inverse reads. The layout is the type: the
    kernels read the subclass ``_BoxTruncation`` in the box layout, whose slots ``_axis_slices``
    fixes. Safe for concurrent reads; never mutated once built.
    """

    def __init__(self, lo, shape, edges, boundary="drop"):
        """From the box's lower corner and shape and an (m, 2) integer array of
        id pairs i < j, none repeated; raises InvalidSpec otherwise."""
        if boundary not in BOUNDARY_MODES:
            raise InvalidSpec(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")
        self.boundary, self.spec, self.box = boundary, None, None
        self.lo, self.shape = tuple(lo), tuple(shape)
        if bad := [a for a in self.lo + self.shape if not _is_int(a)]:
            raise InvalidSpec(f"box lo {self.lo} and shape {self.shape} need whole numbers, not {bad[0]!r}")
        self.lo, self.shape = tuple(map(int, self.lo)), tuple(map(int, self.shape))
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
        pairs = np.empty((2, len(ordered)), dtype=np.int64)  # contiguous rows for the edge kernels
        np.divmod(ordered, n, out=(pairs[0], pairs[1]))
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


class _BoxTruncation(Graph):
    """A build_graph truncation from _BOX_MIN_VERTICES vertices on; the kernels read exactly this
    type in the box layout, by the slots of _axis_slices. It stores no edge list: each read of
    tails, heads or edges rebuilds the rows from the box (10–20 ms at n = 117,649). Only here are
    they properties: on Graph, a property or __getattr__ slowed every small graph's kernel reads."""

    tails = property(lambda self: self._stored().tails)
    heads = property(lambda self: self._stored().heads)
    edges = property(lambda self: self._stored().edges)

    def _stored(self) -> Graph:
        """The same box as a new Graph that stores its edge list."""
        return Graph(self.lo, self.shape, _box_edge_pairs(np.arange(self.n).reshape(self.shape), self.box))


def _box_edge_pairs(ids: np.ndarray, box: BoxEdges) -> np.ndarray:
    """The (m, 2) id pairs of the base edges of the box whose C-order ids are ``ids``,
    minus box.deleted, plus box's added edges: one block per axis, then the added edges."""
    # block k pairs ids[tail] with ids[head], so (x, x + e_k) is its row at x - lo in ids[tail]
    blocks = [(ids[tail], ids[head]) for head, tail, *_ in _axis_slices(ids.ndim)]
    edges = np.concatenate([np.stack([t.ravel(), h.ravel()], axis=1) for t, h in blocks])
    if any(slots is not None for slots in box.deleted):
        starts = np.cumsum([0] + [t.size for t, _ in blocks])
        edges = np.delete(edges, np.concatenate([start + np.ravel_multi_index(slots, t.shape)
                                                 for start, (t, _), slots in zip(starts, blocks, box.deleted)
                                                 if slots is not None]), axis=0)
    if len(box.heads):
        edges = np.concatenate([edges, np.stack([box.tails, box.heads], axis=1)])
    return edges


def build_graph(spec: GraphSpec, boundary: str = "drop") -> Graph:
    """Build the truncation graph for a spec: base edges minus deletions plus additions,
    labelled with the spec and holding the same edges as BoxEdges, whose deleted slots index the
    edge list as _axis_slices does. From _BOX_MIN_VERTICES vertices on it is a _BoxTruncation, which
    the kernels read in the box layout, and keeps no edge list.

    Raises DisconnectedGraph when a deletion spec leaves the box disconnected, decided first, on the
    ball around the deletions (_check_connected); InvalidSpec when the spec is inconsistent.
    """
    spec.validate()
    lo, shape = (1 - spec.L,) * spec.d, (2 * spec.L - 1,) * spec.d
    deleted, added = [None] * spec.d, np.empty((0, 2), dtype=np.int64)
    if len(spec.deletion_array):
        x, y = spec.deletion_array[:, 0], spec.deletion_array[:, 1]
        tails = [x[np.argmax(y - x, axis=1) == k] - lo for k in range(spec.d)]
        deleted = [tuple(t.T) if len(t) else None for t in tails]
        _check_connected(spec, deleted)  # perturbed-d3-L25 peak 65 MB; 69 if run after Graph()
    if len(spec.addition_array):
        added = _flat_ids(spec.addition_array, lo, shape)
    box = BoxEdges(tuple(deleted), *np.ascontiguousarray(added.T))
    # ids and the unsorted edges live until the return: the heap a build leaves decides
    # the kernels' page faults, and with ids freed before Graph() each later
    # perturbed-d3-L25 pass faulted 17k pages (69 MB) back in
    ids = np.arange(int(np.prod(shape))).reshape(shape)
    edges = _box_edge_pairs(ids, box)
    graph = Graph(lo, shape, edges, boundary=boundary)
    graph.spec, graph.box = spec, box
    if graph.n >= _BOX_MIN_VERTICES:
        del graph.tails, graph.heads, graph.edges
        graph.__class__ = _BoxTruncation
    return graph


def _check_connected(spec: GraphSpec, deleted: list) -> None:
    """Raise DisconnectedGraph, naming what is cut off from the box corner, unless the box minus the
    edges at the deleted slots is connected. Decided on T = {|x| <= r}, r = min(R, L - 1), R the
    perturbation radius: no edge outside B_R is deleted and for d >= 2 the shell box minus B_R is
    connected, so one hub joined to T's outer layer stands for it; for d = 1 T's ends touch the rays."""
    r = min(spec.perturbation_radius(), spec.L - 1)
    ids, shift = np.arange((2 * r + 1) ** spec.d).reshape((2 * r + 1,) * spec.d), spec.L - 1 - r
    shifted = tuple(None if slots is None else tuple(a - shift for a in slots) for slots in deleted)  # T's corner
    edges = _box_edge_pairs(ids, BoxEdges(shifted, *np.empty((2, 0), dtype=np.int64)))
    if hub := spec.d >= 2 and shift > 0:
        outer = np.delete(ids, ids[(slice(1, -1),) * spec.d])  # ids are their own flat indices
        edges = np.concatenate([edges, np.stack([outer, np.full_like(outer, ids.size)], axis=1)])
    if not is_connected(local := Graph((0,), (ids.size + hub,), edges)):
        roots = _roots(local)  # with no hub, cut off from vertex 0; for d = 1, the right ray too
        cut = np.flatnonzero(roots[:ids.size] != roots[-1 if hub else 0])
        raise DisconnectedGraph(f"deleting {len(spec.deletion_array)} edge(s) disconnected the box B_{spec.L}: "
                                f"{len(cut) + (not hub) * shift} vertices cut off, the smallest "
                                f"{tuple(np.subtract(np.unravel_index(cut[0], ids.shape), r).tolist())}")


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
    """True iff the edges join all the vertices into one component."""
    return not np.ptp(_roots(graph))


def _roots(graph: Graph) -> np.ndarray:
    """Each vertex's component root, the smallest id in its component.

    Hook-and-compress (Shiloach & Vishkin, J. Algorithms 3, 1982): each round
    hooks the larger root of every edge between two trees onto the smaller,
    then jumps pointers to the roots, until no edge joins two trees. Pointers
    only decrease, so it ends. A tree whose root is below all its neighbours'
    is hooked onto, or hooks onto them next round: every tree merges within
    two rounds, so O(log n) rounds suffice. A lattice-ordered box needs one.
    """
    parent, (tails, heads) = np.arange(graph.n), graph.edges.T
    while not np.array_equal(a := parent[tails], b := parent[heads]):
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
    return parent


def _ball_boundary_array(d: int, R: int) -> np.ndarray:
    """Base edges (y, z) with y inside B_R and z outside, as a canonical (k, 2, d) array."""
    ball, e = np.indices((2 * R - 1,) * d).reshape(d, -1).T - (R - 1), np.eye(d, dtype=np.int64)
    # (t, t + e_k) crosses the sphere exactly when t_k is R - 1 (t inside) or -R (t outside)
    tails = [(k, t) for k in range(d) for t in (ball[ball[:, k] == R - 1], ball[ball[:, k] == 1 - R] - e[k])]
    return _canonical_edges(np.concatenate([np.stack([t, t + e[k]], axis=1) for k, t in tails]))


def ball_boundary_edges(d: int, R: int) -> list:
    """Base edges (y, z) with y inside B_R and z outside, canonically ordered and sorted."""
    return list(_pairs(_ball_boundary_array(d, R)))


def sphere_deletion_spec(d: int, R: int, L: int) -> GraphSpec:
    """Delete every edge crossing the sphere of B_R except ((R-1, 0, ..., 0), (R, 0, ..., 0)).

    All deleted edges lie inside B_{R+1}, so the spec's perturbation radius is R + 1.
    """
    if not (_is_int(d) and _is_int(R) and _is_int(L) and d >= 1 and 1 <= R < L):
        raise InvalidSpec(f"need integers d >= 1 and 1 <= R < L, got d={d!r}, R={R!r}, L={L!r}")
    crossing, kept = _ball_boundary_array(d, R), np.zeros((2, d), dtype=np.int64)
    kept[:, 0] = R - 1, R
    return GraphSpec(d, L, deletions=crossing[(crossing != kept).any(axis=(1, 2))])


def star_addition_spec(d: int, R: int, L: int) -> GraphSpec:
    """Join the origin and its lattice neighbours to every vertex of B_R.

    Adds (c, y) for each centre c in {0, +-e_k} and every y in B_R that is
    neither c itself nor already a lattice neighbour of c; the spec keeps
    each edge once, in canonical form.
    """
    if not (_is_int(d) and _is_int(R) and _is_int(L) and d >= 1 and 2 <= R < L):
        raise InvalidSpec(f"need integers d >= 1 and 2 <= R < L, got d={d!r}, R={R!r}, L={L!r}")
    ball = np.indices((2 * R - 1,) * d).reshape(d, -1).T - (R - 1)
    centres = ball[np.abs(ball).sum(axis=1) <= 1]
    c, y = np.nonzero(np.abs(centres[:, None] - ball).sum(axis=2) > 1)  # l1-distance >= 2
    return GraphSpec(d, L, additions=np.stack([centres[c], ball[y]], axis=1))
