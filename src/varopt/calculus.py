"""Discrete norms, Laplacians, and the two energy functionals on a truncation.

Conventions fixed here once and used everywhere:

* Every edge-sum energy counts each undirected edge exactly once; the
  per-vertex form with a 1/2 in the gradient norm is algebraically the same
  after the double count cancels.
* In ``dirichlet`` boundary mode each base-lattice edge leaving the box is
  kept with a zero-valued phantom endpoint, so a vertex x with m dropped
  neighbour slots picks up m * |u(x)|^p in the p-Dirichlet energy and the
  matching terms in the Laplacians. In ``drop`` mode those edges vanish.
* All arithmetic is float64; tolerances are stated per check in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, InvalidSpec
from .lattice import Graph, _is_finite, _is_int


@dataclass
class Field:
    """A real-valued function on the vertices of a graph, zero outside."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        self.values = as_values(self.graph, self.values)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def _finite_energy(e) -> float:
    """e as a float; ValueError unless finite (a non-finite field value or an overflow)."""
    if not math.isfinite(e):
        raise ValueError(f"energy is {e}: the field has non-finite values or overflows")
    return float(e)


def as_values(graph: Graph, field) -> np.ndarray:
    """The value array of a Field or a plain array; ValueError unless it has one value per vertex."""
    u = field.values if isinstance(field, Field) else np.asarray(field, dtype=np.float64)
    if u.shape != (graph.n,):
        raise ValueError(f"field has {u.shape} values for a graph with {graph.n} vertices")
    return u


def lp_norm(field, p) -> float:
    """l^p norm of the field values; sup norm for p = infinity."""
    u = field.values if isinstance(field, Field) else np.asarray(field, dtype=np.float64)
    if p == math.inf:
        return float(np.max(np.abs(u))) if u.size else 0.0
    if not (_is_finite(p) and p >= 1):
        raise InvalidExponent(f"l^p norm needs p = inf or a finite number p >= 1, not a boolean, got {p!r}")
    return float(np.sum(np.abs(u) ** p) ** (1.0 / p))


def _abs_pow(x, p):
    """|x|**p with cheap paths for small integer exponents (hot loops)."""
    if p == 1.0:
        return np.abs(x)
    if p == 2.0:
        return x * x
    if p == 3.0:
        return np.abs(x) * x * x
    if p == 4.0:
        x2 = x * x
        return x2 * x2
    if p == 5.0:
        x2 = x * x
        return np.abs(x) * x2 * x2
    if p == 6.0:
        x2 = x * x
        return x2 * x2 * x2
    return np.abs(x) ** p


def _signed_pow(x, p):
    """sign(x) |x|**p, continuous at 0 for p > 0."""
    if p == 1.0:
        return x
    if p == 3.0:
        return x * x * x
    if p == 5.0:
        x2 = x * x
        return x * x2 * x2
    if p == 2.0 or p == 4.0:
        return x * _abs_pow(x, p - 1.0)
    if p == 0.5:  # numpy takes ** 0.5 as sqrt
        return np.copysign(np.sqrt(np.abs(x)), x)
    return np.sign(x) * np.abs(x) ** p


# Raw-array kernels shared by the public functions below and the solver.
# Each differs edge values as d = u[head] - u[tail], or takes that array from
# a caller that has gathered it already, and adds the phantom terms only in
# dirichlet mode; their summation order is part of the solver's output.
#
# Two layouts hold d. The edge layout gathers it over the edge list, in edge
# order, and scatters by bincount. The box layout, taken on a build_graph
# truncation of at least _BOX_MIN_VERTICES vertices, holds per axis k the
# differences U[x + e_k] - U[x] of the reshaped field U over every base-lattice
# edge along k that meets the box: one slice difference for the edges inside,
# and as first and last slab along k the phantom edges, whose outer end is 0.
# Deleted edges, and the phantom slabs in drop mode, hold exactly 0. The added
# edges' gathered differences follow the d axis arrays. So the phantom terms are
# part of the per-axis sums, a scatter is two slice adds per axis plus a bincount
# over the added edges, and every sum is an np.add.reduce, which no BLAS thread
# count moves. The layout is a function of the graph alone, so every kernel and
# the d a caller passes back agree on it.
#
# The cut-off sits at the measured crossover. Box over edge layout time on a
# dirichlet box (2 CPUs, one BLAS thread, median of 21 interleaved runs) for the
# p = 1.5 mix (_edge_diff, _dirichlet, _minus_p_laplacian, _weighted_laplacian
# and one apply) and the NLS mix (_edge_diff, _kinetic, _minus_p_laplacian at 2):
#
#   d=1  n =   999: 0.60, 0.79   n = 1,999: 0.47, 0.62   n = 3,999: 0.41, 0.49
#   d=2  n =   961: 1.03, 1.21   n = 1,521: 0.84, 1.07   n = 2,025: 0.75, 0.90
#        n = 3,481: 0.70, 0.84
#   d=3  n =   729: 1.57, 2.11   n = 1,331: 1.22, 1.47   n = 2,197: 0.96, 1.19
#        n = 3,375: 0.82, 0.98
#
# d=3, where the Sobolev problem lives, decides: even at n = 2,197 (L=7) and
# ahead from n = 3,375 (L=8) on.
_BOX_MIN_VERTICES = 2500


@functools.cache
def _axis_slices(d: int) -> tuple:
    """Per axis k, the index tuples (head, tail, inner, first, last) that pick
    x + e_k and x from a d-dimensional array, and the inner part and the first
    and last slab along k of an array with one more entry along k."""
    picks = (slice(1, None), slice(None, -1), slice(1, -1), slice(None, 1), slice(-1, None))
    return tuple(tuple((slice(None),) * k + (i,) for i in picks) for k in range(d))


def _zero_absent(graph: Graph, w: tuple) -> None:
    """Set the box layout's slots of deleted edges, and of phantom edges in drop
    mode, to exactly 0, axis by axis."""
    for (_, _, inner, first, last), slots, w_axis in zip(_axis_slices(graph.d), graph.box.deleted, w):
        if slots is not None:
            w_axis[inner][slots] = 0.0
        if graph.boundary == "drop":
            w_axis[first] = w_axis[last] = 0.0


def _edge_diff(graph: Graph, u: np.ndarray):
    """The edge differences d = u[head] - u[tail] in the graph's layout: an array
    in the edge layout, a tuple of arrays in the box layout. In the edge layout,
    subtracting in place keeps two edge-length arrays alive instead of three."""
    if graph.n < _BOX_MIN_VERTICES or graph.box is None:
        d = u[graph.heads]
        d -= u[graph.tails]
        return d
    field = u.reshape(graph.shape)
    diffs = []
    for k, (head, tail, inner, first, last) in enumerate(_axis_slices(graph.d)):
        diff = np.empty(graph.shape[:k] + (graph.shape[k] + 1,) + graph.shape[k + 1:])
        np.subtract(field[head], field[tail], out=diff[inner])
        diff[first] = field[first]
        np.negative(field[last], out=diff[last])
        diffs.append(diff)
    _zero_absent(graph, diffs)
    if len(graph.box.heads):
        added = u[graph.box.heads]
        added -= u[graph.box.tails]
        diffs.append(added)
    return tuple(diffs)


def _box_sum(terms) -> float:
    """The sum of the box layout's per-edge terms, array by array in order."""
    return sum(np.add.reduce(t, axis=None) for t in terms)


def _box_scatter(graph: Graph, w: tuple, sign: float) -> np.ndarray:
    """Per vertex, the box layout's edge values w summed over the edges it heads,
    plus sign times their sum over the edges it tails."""
    tail_op = np.subtract if sign < 0 else np.add
    out = None
    # along axis k, vertex i heads slot i and tails slot i + 1
    for (head, tail, _, _, _), w_axis in zip(_axis_slices(graph.d), w):
        if out is None:
            out = tail_op(w_axis[tail], w_axis[head])
        else:
            out += w_axis[tail]
            tail_op(out, w_axis[head], out=out)
    out = out.reshape(-1)
    if len(w) > graph.d:
        out += np.bincount(graph.box.heads, weights=w[-1], minlength=graph.n)
        tail_op(out, np.bincount(graph.box.tails, weights=w[-1], minlength=graph.n), out=out)
    return out


def _dirichlet(graph: Graph, u: np.ndarray, p, d=None):
    """Sum of |u(head) - u(tail)|^p over edges, plus phantom * |u|^p."""
    d = _edge_diff(graph, u) if d is None else d
    if type(d) is tuple:
        return _box_sum(_abs_pow(x, p) for x in d)
    e = np.add.reduce(_abs_pow(d, p))
    if graph.boundary == "dirichlet":
        e += np.dot(graph.phantom, _abs_pow(u, p))
    return e


def _kinetic(graph: Graph, u: np.ndarray, d=None):
    """Twice the Schrodinger kinetic energy: the 2-Dirichlet sum, in the edge
    layout taken by dot products, which can differ from _dirichlet(graph, u, 2)
    in the last bits."""
    d = _edge_diff(graph, u) if d is None else d
    if type(d) is tuple:
        return _box_sum(x * x for x in d)
    e = np.dot(d, d)
    if graph.boundary == "dirichlet":
        e += np.dot(graph.phantom, u * u)
    return e


def _minus_p_laplacian(graph: Graph, u: np.ndarray, p, eps, d=None):
    """Minus the p-Laplacian; at p = 1 the weight sign(t) is smoothed to
    t / sqrt(t^2 + eps^2)."""
    d = _edge_diff(graph, u) if d is None else d
    if type(d) is tuple:
        return _box_scatter(graph, tuple(_signed_pow(x, p - 1.0) if p > 1 else x / np.sqrt(x * x + eps ** 2)
                                         for x in d), -1.0)
    w = _signed_pow(d, p - 1.0) if p > 1 else d / np.sqrt(d * d + eps ** 2)
    out = (np.bincount(graph.heads, weights=w, minlength=graph.n)
           - np.bincount(graph.tails, weights=w, minlength=graph.n))
    if graph.boundary == "dirichlet":
        out += graph.phantom * (_signed_pow(u, p - 1.0) if p > 1 else u / np.sqrt(u * u + eps ** 2))
    return out


def _weighted_laplacian(graph: Graph, u: np.ndarray, p, eps, d=None):
    """The linearized p-Laplacian at u up to the factor p - 1, as (apply, diagonal).

    Its edge weights are (d^2 + eps^2)^((p-2)/2) and its phantom weights
    phantom * (u^2 + eps^2)^((p-2)/2), regularized so that they stay finite for
    p < 2 where a difference vanishes; an absent slot of the box layout weighs
    exactly 0. apply(v) is the sum over the edges at each vertex of w (v(x) - v(y))
    plus the phantom weight times v(x); diagonal holds each vertex's weight sum.
    """
    d = _edge_diff(graph, u) if d is None else d
    h = 0.5 * p - 1.0
    if type(d) is tuple:
        w = tuple((x * x + eps ** 2) ** h for x in d)
        _zero_absent(graph, w)

        def apply(v):
            wd = _edge_diff(graph, v)
            for x, w_axis in zip(wd, w):
                x *= w_axis
            return _box_scatter(graph, wd, -1.0)

        return apply, _box_scatter(graph, w, 1.0)

    w = (d * d + eps ** 2) ** h
    diagonal = (np.bincount(graph.heads, weights=w, minlength=graph.n)
                + np.bincount(graph.tails, weights=w, minlength=graph.n))
    w_phantom = graph.phantom * (u * u + eps ** 2) ** h if graph.boundary == "dirichlet" else None
    if w_phantom is not None:
        diagonal += w_phantom

    def apply(v):
        wd = _edge_diff(graph, v)
        wd *= w
        out = (np.bincount(graph.heads, weights=wd, minlength=graph.n)
               - np.bincount(graph.tails, weights=wd, minlength=graph.n))
        if w_phantom is not None:
            out += w_phantom * v
        return out

    return apply, diagonal


def box_inverse(graph: Graph):
    """Return v -> A^{-1} v for A minus the dirichlet-mode Laplacian of the plain
    box that a build_graph truncation (a graph with BoxEdges) lives on, perturbations left out.

    A is the tensor sum over the d axes of tridiag(-1, 2, -1) of side
    m = 2L - 1; the orthonormal sine matrix S[j, k] = sqrt(2/(m+1))
    sin(pi j k/(m+1)) diagonalizes each factor with eigenvalues
    2 - 2 cos(pi k/(m+1)). So the solve applies S along every axis, divides
    by the summed eigenvalues and applies S again, each pass one GEMM that
    contracts the leading axis: O(n m d) work, O(n) temporaries.
    """
    if graph.box is None or graph.boundary != "dirichlet":
        raise InvalidSpec("the box inverse needs a build_graph truncation in dirichlet mode")
    d, m = graph.d, graph.shape[0]
    k = np.arange(1, m + 1)
    S = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    eig = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
    inv_eig = (1.0 / sum(eig.reshape((m,) + (1,) * (d - 1 - axis)) for axis in range(d))).reshape(-1, m)

    def solve(v):
        # each pass appends the result axis, so d passes restore the axis order
        x = v
        for _ in range(d):
            x = x.reshape(m, -1).T @ S
        x *= inv_eig
        for _ in range(d):
            x = x.reshape(m, -1).T @ S
        return x.ravel()

    return solve


def dirichlet_energy(graph: Graph, field, p) -> float:
    """Sum of |u(x) - u(y)|^p over undirected edges (plus phantom terms in
    dirichlet mode); equals the integral of the gradient p-norm to the p."""
    if not (_is_finite(p) and p >= 1):
        raise InvalidExponent(f"Dirichlet energy needs a finite number p >= 1, not a boolean, got {p!r}")
    return _finite_energy(_dirichlet(graph, as_values(graph, field), p))


def laplacian(graph: Graph, field) -> Field:
    """Graph Laplacian: (Lu)(x) = sum over neighbours y of u(y) - u(x)."""
    return Field(graph, -_minus_p_laplacian(graph, as_values(graph, field), 2.0, 0.0))


def p_laplacian(graph: Graph, field, p) -> Field:
    """Graph p-Laplacian: sum over neighbours of |u(y)-u(x)|^(p-2) (u(y)-u(x)).

    Restricted to p > 1, where the edge weight |t|^(p-2) t extends
    continuously by 0 at t = 0; coincides with the Laplacian at p = 2.
    """
    if not (_is_finite(p) and p > 1):
        raise InvalidExponent(f"p-Laplacian needs a finite number p > 1, not a boolean, got {p!r}")
    return Field(graph, -_minus_p_laplacian(graph, as_values(graph, field), p, 0.0))


def nls_energy(graph: Graph, field, p) -> float:
    """Focusing Schrodinger energy: half the 2-Dirichlet sum minus the
    l^p mass over p. Defined for p > 2."""
    if not (_is_finite(p) and p > 2):
        raise InvalidExponent(f"Schrodinger energy needs a finite number p > 2, not a boolean, got {p!r}")
    u = as_values(graph, field)
    return _finite_energy(0.5 * _kinetic(graph, u) - np.sum(_abs_pow(u, p)) / p)


def nls_gradient(graph: Graph, field, p) -> np.ndarray:
    """Euclidean gradient of nls_energy: -Lu - |u|^(p-2) u."""
    if not (_is_finite(p) and p > 2):
        raise InvalidExponent(f"Schrodinger energy needs a finite number p > 2, not a boolean, got {p!r}")
    u = as_values(graph, field)
    return Field(graph, _minus_p_laplacian(graph, u, 2.0, 0.0) - _signed_pow(u, p - 1.0)).values


def dirichlet_gradient(graph: Graph, field, p, eps: float = 0.0) -> np.ndarray:
    """Euclidean gradient of dirichlet_energy: p times minus the p-Laplacian.

    For p = 1 the energy is not differentiable; pass eps > 0 to use the
    smoothed weight t / sqrt(t^2 + eps^2) in place of sign(t).
    """
    if not (_is_finite(p) and _is_finite(eps) and (p > 1 or (p == 1 and eps > 0))):
        raise InvalidExponent(f"gradient needs finite numbers, not booleans, p > 1 or p = 1 with eps > 0; "
                              f"got p={p!r}, eps={eps!r}")
    return Field(graph, p * _minus_p_laplacian(graph, as_values(graph, field), p, eps)).values


def translate(field: Field, shift) -> Field:
    """Shifted field v(x) = u(x + shift) with zero extension outside the box."""
    graph, shift = field.graph, tuple(shift)
    if len(shift) != graph.d or not all(map(_is_int, shift)):
        raise InvalidSpec(f"shift {shift} needs {graph.d} whole numbers")
    # per axis, v[a] = u[a + s] wherever both a and a + s lie in [0, m)
    dst = tuple(slice(max(0, -s), max(0, min(m, m - s))) for s, m in zip(shift, graph.shape))
    src = tuple(slice(max(0, s), max(0, min(m, m + s))) for s, m in zip(shift, graph.shape))
    out = np.zeros(graph.shape)
    out[dst] = field.values.reshape(graph.shape)[src]
    return Field(graph, out.ravel())

