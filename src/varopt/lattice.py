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
from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedGraph, InvalidSpec, OutOfBox

Edge = tuple  # canonical pair (lo, hi) of vertices, lo < hi lexicographically

BOUNDARY_MODES = ("drop", "dirichlet")


def sup_norm(x) -> int:
    return max(abs(c) for c in x)


def canonical_edge(x, y) -> Edge:
    """Return the undirected edge (x, y) in its canonical ordered form."""
    x, y = tuple(int(c) for c in x), tuple(int(c) for c in y)
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
        if not isinstance(self.d, int) or self.d < 1:
            raise InvalidSpec(f"dimension must be an integer >= 1, got {self.d!r}")
        if not isinstance(self.L, int) or self.L < 2:
            raise InvalidSpec(f"box radius L must be an integer >= 2, got {self.L!r}")
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
            "d": self.d,
            "L": self.L,
            "R": self.R,
            "deletions": [[list(x), list(y)] for x, y in sorted(self.deletions)],
            "additions": [[list(x), list(y)] for x, y in sorted(self.additions)],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GraphSpec":
        try:
            return cls(
                d=int(data["d"]),
                L=int(data["L"]),
                deletions=frozenset(canonical_edge(x, y) for x, y in data.get("deletions", [])),
                additions=frozenset(canonical_edge(x, y) for x, y in data.get("additions", [])),
                R=None if data.get("R") is None else int(data["R"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed graph spec: {exc}") from exc


def _flat_ids(points, lo, shape) -> np.ndarray:
    """C-order ids of an (..., d) array of points in the box lo + [0, shape)."""
    offset = np.asarray(points, dtype=np.int64) - lo
    if np.any((offset < 0) | (offset >= shape)):
        raise OutOfBox("a point lies outside the truncation")
    return np.ravel_multi_index(tuple(np.moveaxis(offset, -1, 0)), shape)


class Graph:
    """Immutable adjacency view of a truncation whose vertices fill the box lo + [0, shape).

    Vertex ids run in C order, which is lexicographic order on coordinates,
    so ids and ``coords`` are computed, never looked up. ``edges`` holds the
    (m, 2) int64 id pairs sorted by (i, j), and ``tails``, ``heads`` are its
    columns; the neighbours of i, ascending, are
    ``indices[indptr[i]:indptr[i + 1]]`` (CSR). ``phantom`` counts each
    vertex's base-lattice edges that leave the box (dirichlet mode). Safe for
    concurrent reads; never mutated after construction.
    """

    def __init__(self, vertices, edges, d, spec=None, boundary="drop", phantom=None):
        """From vertex tuples listing a full box in lexicographic order and vertex-pair edges."""
        coords = np.array(list(vertices), dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != d or not len(coords):
            raise InvalidSpec(f"vertices must be a nonempty list of {d}-tuples")
        lo, shape = coords.min(axis=0), np.ptp(coords, axis=0) + 1
        if not np.array_equal(_flat_ids(coords, lo, shape), np.arange(np.prod(shape))):
            raise InvalidSpec("vertices must list a full box in lexicographic order")
        pairs = np.array(list(edges), dtype=np.int64)
        if pairs.size and pairs.shape[1:] != (2, d):
            raise InvalidSpec(f"edges must be pairs of {d}-tuples")
        edges = _flat_ids(pairs.reshape(-1, 2, d), lo, shape)
        self._setup(lo, shape, edges, spec, boundary, phantom)

    @classmethod
    def from_box(cls, lo, shape, edges, spec=None, boundary="drop", phantom=None) -> "Graph":
        """From the box's lower corner and shape and an (m, 2) array of id-pair edges."""
        graph = cls.__new__(cls)
        graph._setup(lo, shape, edges, spec, boundary, phantom)
        return graph

    def _setup(self, lo, shape, edges, spec, boundary, phantom):
        if boundary not in BOUNDARY_MODES:
            raise InvalidSpec(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")
        self.spec, self.boundary = spec, boundary
        self.lo, self.shape = tuple(int(a) for a in lo), tuple(int(m) for m in shape)
        self.d = len(self.shape)
        self.n = n = int(np.prod(self.shape))
        self.strides = tuple(int(np.prod(self.shape[k + 1:])) for k in range(self.d))
        self.coords = np.stack(np.unravel_index(np.arange(n), self.shape), axis=1) + self.lo
        key = edges[:, 0] * n + edges[:, 1]  # (i, j) -> i * n + j sorts like the pair
        self.edges = np.stack(np.divmod(np.sort(key), n), axis=1)
        self.n_edges = len(self.edges)
        self.tails, self.heads = self.edges.T  # column views for the edge kernels
        # CSR adjacency: both directions of every edge, sorted by (source, target)
        arcs = np.sort(np.concatenate([key, edges[:, 1] * n + edges[:, 0]]))
        sources, self.indices = np.divmod(arcs, n)
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(sources, minlength=n))])
        self.phantom = np.zeros(n) if phantom is None else np.asarray(phantom, dtype=np.float64)
        # sup-norm extent of the vertex set; box semantics for localization
        self.extent = max(max(-a, a + m - 1) for a, m in zip(self.lo, self.shape))
        self.L = spec.L if spec is not None else self.extent + 1

    @property
    def vertices(self) -> list:
        """Vertex tuples in id order, built afresh on each access."""
        return [tuple(x) for x in self.coords.tolist()]

    def __contains__(self, x) -> bool:
        return len(x) == self.d and all(0 <= c - a < m for c, a, m in zip(x, self.lo, self.shape))

    def vertex_id(self, x) -> int:
        x = tuple(int(c) for c in x)
        if x not in self:
            raise OutOfBox(f"vertex {x} is not in the truncation")
        return sum((c - a) * s for c, a, s in zip(x, self.lo, self.strides))

    def degree(self, x) -> int:
        i = self.vertex_id(x)
        return int(self.indptr[i + 1] - self.indptr[i])

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
    graph = Graph.from_box(lo, shape, edges, spec=spec, boundary=boundary, phantom=phantom)
    if spec.deletions and not is_connected(graph):
        raise DisconnectedGraph(
            f"deleting {len(spec.deletions)} edge(s) disconnected the box B_{spec.L}")
    return graph


def path_graph(n_vertices: int, boundary: str = "drop") -> Graph:
    """A 1-d path on n_vertices consecutive integers, roughly centred at 0.

    Used for exhaustive-oracle cross checks on tiny graphs; it is not a box
    truncation, so there are no phantom boundary edges in either mode.
    """
    if n_vertices < 1:
        raise InvalidSpec("path graph needs at least one vertex")
    ids = np.arange(n_vertices)
    return Graph.from_box((-((n_vertices - 1) // 2),), (n_vertices,),
                          np.stack([ids[:-1], ids[1:]], axis=1), boundary=boundary)


def neighbors(graph: Graph, x) -> list:
    """Neighbours of x in the graph, in canonical (lexicographic) order."""
    i = graph.vertex_id(x)
    ids = graph.indices[graph.indptr[i]:graph.indptr[i + 1]]
    return [tuple(y) for y in graph.coords[ids].tolist()]


def is_connected(graph: Graph) -> bool:
    """True iff a level-synchronous frontier BFS from the middle vertex reaches every vertex."""
    seen = np.zeros(graph.n, dtype=bool)
    frontier = np.array([graph.n // 2])
    while frontier.size:
        seen[frontier] = True
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        # CSR slots of all the frontier's neighbour lists, concatenated
        reached = graph.indices[np.repeat(starts - np.cumsum(counts) + counts, counts)
                                + np.arange(counts.sum())]
        frontier = np.unique(reached[~seen[reached]])
    return bool(seen.all())


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
    if not (isinstance(R, int) and isinstance(L, int) and 1 <= R < L):
        raise InvalidSpec(f"need integers 1 <= R < L, got R={R!r}, L={L!r}")
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
    if not (isinstance(R, int) and isinstance(L, int) and 2 <= R < L):
        raise InvalidSpec(f"need integers 2 <= R < L, got R={R!r}, L={L!r}")
    origin, ball = (0,) * d, box_vertices(d, R)
    centres = [origin] + [origin[:k] + (s,) + origin[k + 1:] for k in range(d) for s in (1, -1)]
    additions = {canonical_edge(c, y) for c in centres for y in ball
                 if y != c and not is_base_edge(c, y)}
    if not additions:
        raise InvalidSpec(f"star addition with d={d}, R={R} produced no edges")
    return GraphSpec(d=d, L=L, additions=frozenset(additions), R=R)
