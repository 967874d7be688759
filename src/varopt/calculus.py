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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent, InvalidSpec
from .lattice import Graph


@dataclass
class Field:
    """A real-valued function on the vertices of a graph, zero outside."""

    graph: Graph
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.graph.n,):
            raise ValueError(
                f"field has {self.values.shape} values for a graph with {self.graph.n} vertices")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def as_values(field) -> np.ndarray:
    """Accept a Field or a plain array and return the value array."""
    if isinstance(field, Field):
        return field.values
    return np.asarray(field, dtype=np.float64)


def lp_norm(field, p) -> float:
    """l^p norm of the field values; sup norm for p = infinity."""
    u = as_values(field)
    if p == np.inf or p == float("inf"):
        return float(np.max(np.abs(u))) if u.size else 0.0
    if not p >= 1:
        raise InvalidExponent(f"l^p norm needs p >= 1, got {p}")
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

def _edge_diff(graph: Graph, u: np.ndarray) -> np.ndarray:
    """The edge differences d = u[head] - u[tail], in edge order; subtracting in
    place keeps two edge-length arrays alive instead of three."""
    d = u[graph.heads]
    d -= u[graph.tails]
    return d


def _dirichlet(graph: Graph, u: np.ndarray, p, d=None):
    """Sum of |u(head) - u(tail)|^p over edges, plus phantom * |u|^p."""
    e = np.add.reduce(_abs_pow(_edge_diff(graph, u) if d is None else d, p))
    if graph.boundary == "dirichlet":
        e += np.dot(graph.phantom, _abs_pow(u, p))
    return e


def _kinetic(graph: Graph, u: np.ndarray, d=None):
    """Twice the Schrodinger kinetic energy: the 2-Dirichlet sum taken by dot
    products, which can differ from _dirichlet(graph, u, 2) in the last bits."""
    d = _edge_diff(graph, u) if d is None else d
    e = np.dot(d, d)
    if graph.boundary == "dirichlet":
        e += np.dot(graph.phantom, u * u)
    return e


def _minus_p_laplacian(graph: Graph, u: np.ndarray, p, eps, d=None):
    """Minus the p-Laplacian; at p = 1 the weight sign(t) is smoothed to
    t / sqrt(t^2 + eps^2)."""
    d = _edge_diff(graph, u) if d is None else d
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
    p < 2 where a difference vanishes. apply(v) is the sum over the edges at
    each vertex of w (v(x) - v(y)) plus the phantom weight times v(x); diagonal
    holds each vertex's weight sum.
    """
    d = _edge_diff(graph, u) if d is None else d
    h = 0.5 * p - 1.0
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
    box that a build_graph truncation lives on, perturbations left out.

    A is the tensor sum over the d axes of tridiag(-1, 2, -1) of side
    m = 2L - 1; the orthonormal sine matrix S[j, k] = sqrt(2/(m+1))
    sin(pi j k/(m+1)) diagonalizes each factor with eigenvalues
    2 - 2 cos(pi k/(m+1)). So the solve applies S along every axis, divides
    by the summed eigenvalues and applies S again, each pass one GEMM that
    contracts the leading axis: O(n m d) work, O(n) temporaries.
    """
    if graph.spec is None or graph.boundary != "dirichlet":
        raise InvalidSpec("the box inverse needs a build_graph truncation in dirichlet mode")
    d, m = graph.d, 2 * graph.spec.L - 1
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
    if not p >= 1:
        raise InvalidExponent(f"Dirichlet energy needs p >= 1, got {p}")
    return float(_dirichlet(graph, as_values(field), p))


def laplacian(graph: Graph, field) -> Field:
    """Graph Laplacian: (Lu)(x) = sum over neighbours y of u(y) - u(x)."""
    return Field(graph, -_minus_p_laplacian(graph, as_values(field), 2.0, 0.0))


def p_laplacian(graph: Graph, field, p) -> Field:
    """Graph p-Laplacian: sum over neighbours of |u(y)-u(x)|^(p-2) (u(y)-u(x)).

    Restricted to p > 1, where the edge weight |t|^(p-2) t extends
    continuously by 0 at t = 0; coincides with the Laplacian at p = 2.
    """
    if not p > 1:
        raise InvalidExponent(f"p-Laplacian needs p > 1, got {p}")
    return Field(graph, -_minus_p_laplacian(graph, as_values(field), p, 0.0))


def nls_energy(graph: Graph, field, p) -> float:
    """Focusing Schrodinger energy: half the 2-Dirichlet sum minus the
    l^p mass over p. Defined for p > 2."""
    if not p > 2:
        raise InvalidExponent(f"Schrodinger energy needs p > 2, got {p}")
    u = as_values(field)
    return float(0.5 * _kinetic(graph, u) - np.sum(_abs_pow(u, p)) / p)


def nls_gradient(graph: Graph, field, p) -> np.ndarray:
    """Euclidean gradient of nls_energy: -Lu - |u|^(p-2) u."""
    if not p > 2:
        raise InvalidExponent(f"Schrodinger energy needs p > 2, got {p}")
    u = as_values(field)
    return _minus_p_laplacian(graph, u, 2.0, 0.0) - _signed_pow(u, p - 1.0)


def dirichlet_gradient(graph: Graph, field, p, eps: float = 0.0) -> np.ndarray:
    """Euclidean gradient of dirichlet_energy: p times minus the p-Laplacian.

    For p = 1 the energy is not differentiable; pass eps > 0 to use the
    smoothed weight t / sqrt(t^2 + eps^2) in place of sign(t).
    """
    if not (p > 1 or (p == 1 and eps > 0)):
        raise InvalidExponent(f"gradient needs p > 1, or p = 1 with eps > 0; got p={p}, eps={eps}")
    return p * _minus_p_laplacian(graph, as_values(field), p, eps)


def translate(field: Field, shift) -> Field:
    """Shifted field v(x) = u(x + shift) with zero extension outside the box."""
    graph = field.graph
    shift = tuple(int(c) for c in shift)
    if len(shift) != graph.d:
        raise InvalidSpec(f"shift {shift} has wrong dimension (expected {graph.d})")
    # per axis, v[a] = u[a + s] wherever both a and a + s lie in [0, m)
    dst = tuple(slice(max(0, -s), max(0, min(m, m - s))) for s, m in zip(shift, graph.shape))
    src = tuple(slice(max(0, s), max(0, min(m, m + s))) for s, m in zip(shift, graph.shape))
    out = np.zeros(graph.shape)
    out[dst] = field.values.reshape(graph.shape)[src]
    return Field(graph, out.ravel())

