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

from dataclasses import dataclass, field

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

    def copy(self) -> "Field":
        return Field(self.graph, self.values.copy())


def as_values(field) -> np.ndarray:
    """Accept a Field or a plain array and return the value array."""
    if isinstance(field, Field):
        return field.values
    return np.asarray(field, dtype=np.float64)


@dataclass
class EnergyReport:
    """Energies of one field: p-Dirichlet sum, selected l^q norms, and the
    focusing Schrodinger energy when the exponent admits it."""

    dirichlet_p: float
    lq_norms: dict = field(default_factory=dict)
    phi: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "dirichlet_p": self.dirichlet_p,
            "lq_norms": {str(q): v for q, v in self.lq_norms.items()},
            "phi": self.phi,
        }


def lp_norm(field, p) -> float:
    """l^p norm of the field values; sup norm for p = infinity."""
    u = as_values(field)
    if p == np.inf or p == float("inf"):
        return float(np.max(np.abs(u))) if u.size else 0.0
    if p < 1:
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
    return np.sign(x) * np.abs(x) ** p


# Raw-array kernels shared by the public functions below and the solver.
# Each differs edge values as u[head] - u[tail] and adds the phantom terms
# only in dirichlet mode; their summation order is part of the solver's output.

def _dirichlet(graph: Graph, u: np.ndarray, p):
    """Sum of |u(head) - u(tail)|^p over edges, plus phantom * |u|^p."""
    e = np.sum(_abs_pow(u[graph.heads] - u[graph.tails], p))
    if graph.boundary == "dirichlet":
        e += np.dot(graph.phantom, _abs_pow(u, p))
    return e


def _kinetic(graph: Graph, u: np.ndarray):
    """Twice the Schrodinger kinetic energy: the 2-Dirichlet sum taken by dot
    products, which can differ from _dirichlet(graph, u, 2) in the last bits."""
    d = u[graph.heads] - u[graph.tails]
    e = np.dot(d, d)
    if graph.boundary == "dirichlet":
        e += np.dot(graph.phantom, u * u)
    return e


def _minus_p_laplacian(graph: Graph, u: np.ndarray, p, eps):
    """Minus the p-Laplacian; at p = 1 the weight sign(t) is smoothed to
    t / sqrt(t^2 + eps^2)."""
    d = u[graph.heads] - u[graph.tails]
    w = _signed_pow(d, p - 1.0) if p > 1 else d / np.sqrt(d * d + eps ** 2)
    out = (np.bincount(graph.heads, weights=w, minlength=graph.n)
           - np.bincount(graph.tails, weights=w, minlength=graph.n))
    if graph.boundary == "dirichlet":
        out += graph.phantom * (_signed_pow(u, p - 1.0) if p > 1 else u / np.sqrt(u * u + eps ** 2))
    return out


def dirichlet_energy(graph: Graph, field, p) -> float:
    """Sum of |u(x) - u(y)|^p over undirected edges (plus phantom terms in
    dirichlet mode); equals the integral of the gradient p-norm to the p."""
    if p < 1:
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
    if p <= 1:
        raise InvalidExponent(f"p-Laplacian needs p > 1, got {p}")
    return Field(graph, -_minus_p_laplacian(graph, as_values(field), p, 0.0))


def nls_energy(graph: Graph, field, p) -> float:
    """Focusing Schrodinger energy: half the 2-Dirichlet sum minus the
    l^p mass over p. Defined for p > 2."""
    if p <= 2:
        raise InvalidExponent(f"Schrodinger energy needs p > 2, got {p}")
    u = as_values(field)
    return float(0.5 * _kinetic(graph, u) - np.sum(_abs_pow(u, p)) / p)


def nls_gradient(graph: Graph, field, p) -> np.ndarray:
    """Euclidean gradient of nls_energy: -Lu - |u|^(p-2) u."""
    if p <= 2:
        raise InvalidExponent(f"Schrodinger energy needs p > 2, got {p}")
    u = as_values(field)
    return _minus_p_laplacian(graph, u, 2.0, 0.0) - _signed_pow(u, p - 1.0)


def dirichlet_gradient(graph: Graph, field, p, eps: float = 0.0) -> np.ndarray:
    """Euclidean gradient of dirichlet_energy: p times minus the p-Laplacian.

    For p = 1 the energy is not differentiable; pass eps > 0 to use the
    smoothed weight t / sqrt(t^2 + eps^2) in place of sign(t).
    """
    if p < 1 or (p == 1 and eps <= 0):
        raise InvalidExponent(f"gradient needs p > 1, or p = 1 with eps > 0; got p={p}, eps={eps}")
    return p * _minus_p_laplacian(graph, as_values(field), p, eps)


def translate(field: Field, shift) -> Field:
    """Shifted field v(x) = u(x + shift) with zero extension outside the box."""
    graph = field.graph
    shift = tuple(int(c) for c in shift)
    if len(shift) != graph.d:
        raise InvalidSpec(f"shift {shift} has wrong dimension (expected {graph.d})")
    # per axis, v[a] = u[a + s] wherever both indices lie in [0, m)
    dst = tuple(slice(max(0, -s), max(0, min(m, m - s))) for s, m in zip(shift, graph.shape))
    src = tuple(slice(max(0, s), max(0, min(m, m + s))) for s, m in zip(shift, graph.shape))
    out = np.zeros(graph.shape)
    out[dst] = field.values.reshape(graph.shape)[src]
    return Field(graph, out.ravel())


def energy_report(graph: Graph, field, p, q_exponents=()) -> EnergyReport:
    """Bundle the p-Dirichlet energy, requested l^q norms, and (for p > 2)
    the Schrodinger energy of one field."""
    u = as_values(field)
    phi = nls_energy(graph, u, p) if p > 2 else None
    return EnergyReport(
        dirichlet_p=dirichlet_energy(graph, u, p),
        lq_norms={q: lp_norm(u, q) for q in q_exponents},
        phi=phi,
    )
