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
import numbers
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DisconnectedGraph, InvalidSpec, OutOfBox

BOUNDARY_MODES = ("drop", "dirichlet")


def sup_norm(x) -> int:
    return max(abs(c) for c in x)


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, (bool, np.bool_))


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

    ``R`` is the radius of the ball containing every perturbed edge; if left
    None it is inferred as the smallest such radius. Deletions and additions
    are mutually exclusive (the two perturbation families are handled
    separately).
    """

    d: int
    L: int
    deletions: frozenset = field(default_factory=frozenset)
    additions: frozenset = field(default_factory=frozenset)
    R: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "deletions", frozenset(canonical_edge(*e) for e in self.deletions))
        object.__setattr__(self, "additions", frozenset(canonical_edge(*e) for e in self.additions))

    def perturbation_radius(self) -> int | None:
        """R if set, else the smallest radius enclosing all perturbed edges."""
        if self.R is not None or not (self.deletions or self.additions):
            return self.R
        return max(sup_norm(v) for e in self.deletions | self.additions for v in e) + 1

    def validate(self) -> None:
        if not _is_int(self.d) or self.d < 1:
            raise InvalidSpec(f"dimension must be an integer >= 1, got {self.d!r}")
        if not _is_int(self.L) or self.L < 2:
            raise InvalidSpec(f"box radius L must be an integer >= 2, got {self.L!r}")
        if self.R is not None and not (_is_int(self.R) and 1 <= self.R <= self.L):
            raise InvalidSpec(f"perturbation radius R must be an integer in [1, L], got {self.R!r}")
        if self.deletions and self.additions:
            raise InvalidSpec("deletions and additions cannot both be nonempty")
        R_eff = self.perturbation_radius()
        if R_eff is not None and R_eff > self.L:
            raise InvalidSpec(f"perturbation ball B_{R_eff} exceeds the box B_{self.L}")
        for e in self.deletions | self.additions:
            for v in e:
                if len(v) != self.d:
                    raise InvalidSpec(f"vertex {v} has wrong dimension (expected {self.d})")
                if sup_norm(v) >= R_eff:  # R_eff <= L, so v also lies in the box
                    raise InvalidSpec(f"perturbed vertex {v} lies outside B_{R_eff}")
        for e in self.deletions:
            if not is_base_edge(*e):
                raise InvalidSpec(f"deletion {e} is not a base lattice edge")
        for e in self.additions:
            if is_base_edge(*e):
                raise InvalidSpec(f"addition {e} is already a base lattice edge")

    def to_json_dict(self) -> dict:
        return {
            "d": int(self.d),
            "L": int(self.L),
            "R": None if self.R is None else int(self.R),
            "deletions": [[list(x), list(y)] for x, y in sorted(self.deletions)],
            "additions": [[list(x), list(y)] for x, y in sorted(self.additions)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GraphSpec":
        try:
            return cls(**data)
        except TypeError as exc:
            raise InvalidSpec(f"malformed graph spec: {exc}") from exc


def _flat_ids(points, lo, shape) -> np.ndarray:
    """C-order ids of an (..., d) array of points in the box lo + [0, shape)."""
    offset = np.asarray(points, dtype=np.int64) - lo
    return np.ravel_multi_index(tuple(np.moveaxis(offset, -1, 0)), shape)


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
    ``phantom`` counts each vertex's base-lattice edges that leave the box
    (dirichlet mode). Safe for concurrent reads; never mutated after construction.
    """

    def __init__(self, lo, shape, edges, spec=None, boundary="drop", phantom=None):
        """From the box's lower corner and shape and an (m, 2) integer array of
        id pairs i < j, none repeated; raises InvalidSpec otherwise."""
        if boundary not in BOUNDARY_MODES:
            raise InvalidSpec(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")
        self.spec, self.boundary = spec, boundary
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
        self.phantom = np.zeros(n) if phantom is None else np.asarray(phantom, dtype=np.float64)
        if self.phantom.shape != (n,):
            raise InvalidSpec(f"phantom needs shape ({n},), got {self.phantom.shape}")
        ordered = np.sort(edges[:, 0] * n + edges[:, 1])  # i * n + j sorts like the pair (i, j)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InvalidSpec("an edge is listed twice")
        pairs = np.stack(np.divmod(ordered, n))  # contiguous rows for the edge kernels
        self.tails, self.heads = pairs
        self.edges = pairs.T
        self.n_edges = len(self.edges)
        # sup-norm extent of the vertex set; box semantics for localization
        self.extent = max(max(-a, a + m - 1) for a, m in zip(self.lo, self.shape))
        self.L = spec.L if spec is not None else self.extent + 1

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
    """Build the truncation graph for a spec: base edges minus deletions plus additions.

    Raises DisconnectedGraph when a deletion spec leaves the box disconnected,
    InvalidSpec when the spec itself is inconsistent.
    """
    spec.validate()
    lo, shape = (1 - spec.L,) * spec.d, (2 * spec.L - 1,) * spec.d
    ids = np.arange(int(np.prod(shape))).reshape(shape)
    # base edges join each vertex to its successor along each axis
    edges = np.concatenate([np.stack([a[:-1].ravel(), a[1:].ravel()], axis=1)
                            for a in (np.moveaxis(ids, k, 0) for k in range(spec.d))])
    if spec.deletions:
        cut = _flat_ids(list(spec.deletions), lo, shape)
        edges = edges[~np.isin(edges @ (ids.size, 1), cut @ (ids.size, 1), assume_unique=True)]
    if spec.additions:
        edges = np.concatenate([edges, _flat_ids(list(spec.additions), lo, shape)])
    # count of base-lattice neighbours outside the box: one per box face the vertex lies on
    face = (np.abs(np.arange(1 - spec.L, spec.L)) == spec.L - 1).astype(np.float64)
    phantom = sum(face.reshape((-1,) + (1,) * k) for k in range(spec.d)).ravel()
    graph = Graph(lo, shape, edges, spec=spec, boundary=boundary, phantom=phantom)
    if spec.deletions and not is_connected(graph):
        raise DisconnectedGraph(
            f"deleting {len(spec.deletions)} edge(s) disconnected the box B_{spec.L}")
    return graph


def path_graph(n: int, boundary: str = "drop") -> Graph:
    """A 1-d path on n consecutive integers, roughly centred at 0.

    Used for exhaustive-oracle cross checks on tiny graphs; it is not a box
    truncation, so there are no phantom boundary edges in either mode.
    """
    if not (_is_int(n) and n >= 1):
        raise InvalidSpec(f"path graph needs an integer number of vertices n >= 1, got {n!r}")
    ids = np.arange(n)
    return Graph((-((n - 1) // 2),), (n,),
                 np.stack([ids[:-1], ids[1:]], axis=1), boundary=boundary)


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
    # z = y +- e_k leaves B_R exactly when its k-th coordinate reaches +-R
    return sorted({canonical_edge(y, y[:k] + (y[k] + s,) + y[k + 1:])
                   for y in box_vertices(d, R) for k in range(d) for s in (1, -1)
                   if abs(y[k] + s) >= R})


def sphere_deletion_spec(d: int, R: int, L: int, kept_edge=None) -> GraphSpec:
    """Delete every edge crossing the sphere of B_R except one kept edge.

    The kept edge defaults to ((R-1, 0, ..., 0), (R, 0, ..., 0)); pass an
    explicit edge or a selector callable over the boundary edge list to
    override. All deleted edges lie inside B_{R+1}, which is recorded as the
    spec's perturbation radius.
    """
    if not (_is_int(d) and _is_int(R) and _is_int(L) and d >= 1 and 1 <= R < L):
        raise InvalidSpec(f"need integers d >= 1 and 1 <= R < L, got d={d!r}, R={R!r}, L={L!r}")
    boundary = ball_boundary_edges(d, R)
    if kept_edge is None:
        kept_edge = ((R - 1,) + (0,) * (d - 1), (R,) + (0,) * (d - 1))
    kept = canonical_edge(*(kept_edge(boundary) if callable(kept_edge) else kept_edge))
    if kept not in boundary:
        raise InvalidSpec(f"kept edge {kept} is not a boundary edge of B_{R}")
    deletions = frozenset(e for e in boundary if e != kept)
    return GraphSpec(d=d, L=L, deletions=deletions, R=R + 1)


def star_addition_spec(d: int, R: int, L: int) -> GraphSpec:
    """Join the origin and its lattice neighbours to every vertex of B_R.

    Adds (c, y) for each centre c in {0, +-e_k} and every y in B_R that is
    neither c itself nor already a lattice neighbour of c, deduplicated in
    canonical form.
    """
    if not (_is_int(d) and _is_int(R) and _is_int(L) and d >= 1 and 2 <= R < L):
        raise InvalidSpec(f"need integers d >= 1 and 2 <= R < L, got d={d!r}, R={R!r}, L={L!r}")
    origin, ball = (0,) * d, box_vertices(d, R)
    centres = [origin] + [origin[:k] + (s,) + origin[k + 1:] for k in range(d) for s in (1, -1)]
    additions = {canonical_edge(c, y) for c in centres for y in ball
                 if y != c and not is_base_edge(c, y)}
    return GraphSpec(d=d, L=L, additions=frozenset(additions), R=R)
