"""Discrete norms, the TPFA diffusion operator, the upwind convection matrix
and the discrete identities (integration by parts, Poincare) used by the scheme
and its diagnostics.

Conventions, for a field w_h = sum_K w_K 1_K:

    int_Lambda w_h = sum_K m_K w_K
    ||w_h||_2^2   = sum_K m_K w_K^2
    |w_h|_{1,h}^2 = sum_{sigma in E_int} (m_sigma / d_KL) (w_K - w_L)^2

The assembled stiffness matrix A satisfies (A w)_K = sum_sigma t_sigma
(w_K - w_L) with transmissibility t_sigma = m_sigma / d_KL; it is symmetric
positive semidefinite with kernel exactly the constants on a connected mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from .errors import MeshError, SolverError
from .fields import CellField
from .mesh import TensorMesh, box_rule, cell_average, gauss_rule

__all__ = [
    "EdgeVelocity",
    "TpfaOperator",
    "integral",
    "l2_norm_sq",
    "h1_seminorm_sq",
    "discrete_l2_norm",
    "mass",
    "discrete_h1_seminorm",
    "edge_velocity",
    "upwind_cells",
    "convection_matrix",
    "dibp_row_form",
    "dibp_edge_form",
    "dibp_gap",
    "grounded_solve",
    "poincare_constant_estimate",
    "l2_error_vs_function",
]


@dataclass(frozen=True, eq=False)
class EdgeVelocity:
    """Space-time averaged normal velocities v_{K,sigma} on interior faces.

    `values[j]` is the average of v . n_{K,sigma} over face j and the time
    interval, seen from the first (K) cell of the stored orientation; the
    value seen from L is its negation.  Boundary faces carry no entry
    (tangential velocity assumed).
    """

    mesh: TensorMesh
    values: np.ndarray


class TpfaOperator:
    """Assembled two-point flux stiffness of a mesh, reused across steps."""

    def __init__(self, mesh: TensorMesh):
        self.mesh = mesh
        n = mesh.n_cells
        t = mesh.transmissibilities
        k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
        rows = np.concatenate([k, l, k, l])
        cols = np.concatenate([k, l, l, k])
        data = np.concatenate([t, t, -t, -t])
        self.stiffness = sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def laplacian_values(self, values: np.ndarray) -> np.ndarray:
        """Discrete Neumann Laplacian, (1/m_K) sum_sigma t_sigma (w_L - w_K)."""
        return -(self.stiffness @ values) / self.mesh.measures


def integral(mesh: TensorMesh, values: np.ndarray) -> np.ndarray:
    """int_Lambda w_h = sum_K m_K w_K of each row of a (..., n_cells) array."""
    return values @ mesh.measures


def l2_norm_sq(mesh: TensorMesh, values: np.ndarray) -> np.ndarray:
    """||w_h||_2^2 of each row of a (..., n_cells) array."""
    return integral(mesh, values * values)


def h1_seminorm_sq(mesh: TensorMesh, values: np.ndarray) -> np.ndarray:
    """|w_h|_{1,h}^2 of each row of a (..., n_cells) array."""
    k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    jumps = values[..., k] - values[..., l]
    return (jumps * jumps) @ mesh.transmissibilities


def discrete_l2_norm(field: CellField) -> float:
    return float(np.sqrt(l2_norm_sq(field.mesh, field.values)))


def mass(field: CellField) -> float:
    """int_Lambda w_h = sum_K m_K w_K."""
    return float(integral(field.mesh, field.values))


def discrete_h1_seminorm(field: CellField) -> float:
    return float(np.sqrt(h1_seminorm_sq(field.mesh, field.values)))


def edge_velocity(velocity: Callable[[float, np.ndarray], np.ndarray],
                  mesh: TensorMesh, t_start: float,
                  t_end: float) -> EdgeVelocity:
    """Average of v . n_{K,sigma} over each interior face and (t_start, t_end].

    Tensor Gauss quadrature: `mesh.box_rule` over each face's tangential
    axes and 2 points in time.  The approximation error is quadrature
    limited, not modeled.
    """
    if not t_end > t_start:
        raise ValueError("empty time interval")
    tx, tw = gauss_rule(2)
    times = t_start + (t_end - t_start) * tx
    out = np.zeros(mesh.n_interior_edges)
    d = mesh.dimension
    for a in range(d):
        idx = np.where(mesh.edge_axis == a)[0]
        if idx.size == 0:
            continue
        # a face is its L cell's box with the normal coordinate on the face
        cells = mesh.edge_cells[idx, 1]
        lower = mesh.cell_lower[cells]
        lower[:, a] = mesh.edge_planes[idx]
        acc = np.zeros(idx.size)
        for w_sp, pts in box_rule(lower, mesh.cell_upper[cells],
                                  [b for b in range(d) if b != a]):
            for ti, t in enumerate(times):
                v = np.asarray(velocity(float(t), pts), dtype=float)
                acc += w_sp * tw[ti] * v[:, a]
        out[idx] = acc
    return EdgeVelocity(mesh, out)


def upwind_cells(edge_vel: EdgeVelocity) -> np.ndarray:
    """Index of the upstream cell per interior face; ties (v = 0) take K."""
    mesh = edge_vel.mesh
    return np.where(edge_vel.values >= 0.0,
                    mesh.edge_cells[:, 0], mesh.edge_cells[:, 1])


def convection_matrix(edge_vel: EdgeVelocity, tau: float) -> sp.csr_matrix:
    """(C f)_K = tau sum_sigma m_sigma v_{K,sigma} f(upstream cell of sigma).
    tau scales each face before faces sharing an entry are summed; scaling
    the sums would round differently."""
    mesh = edge_vel.mesh
    n = mesh.n_cells
    flux = tau * (mesh.edge_measures * edge_vel.values)
    upwind = upwind_cells(edge_vel)
    return sp.coo_matrix(
        (np.concatenate([flux, -flux]),
         (np.concatenate([mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]]),
          np.concatenate([upwind, upwind]))),
        shape=(n, n)).tocsr()


def dibp_row_form(w: CellField, v: CellField) -> float:
    """sum_K sum_{sigma in E_K^int} t_sigma (w_K - w_L) v_K, i.e. v . (A w)
    with A the assembled TPFA stiffness."""
    return float(np.dot(v.values, TpfaOperator(w.mesh).stiffness @ w.values))


def dibp_edge_form(w: CellField, v: CellField) -> float:
    """sum_{sigma in E_int} t_sigma (w_K - w_L)(v_K - v_L)."""
    mesh = w.mesh
    k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    return float(np.sum(mesh.transmissibilities
                        * (w.values[k] - w.values[l])
                        * (v.values[k] - v.values[l])))


def dibp_gap(w: CellField, v: CellField) -> float:
    """Absolute gap between the two sides of the discrete integration by parts
    identity; an algebraic identity, so the gap is pure roundoff."""
    if w.mesh is not v.mesh:
        raise MeshError("fields live on different meshes")
    return abs(dibp_row_form(w, v) - dibp_edge_form(w, v))


def grounded_solve(op: TpfaOperator, b: np.ndarray) -> np.ndarray:
    """Solution of A x = b with x_0 = 0, for A the TPFA stiffness and
    sum(b) = 0: the kernel of A is the constants, so grounding the first
    unknown (first row and column dropped) leaves a definite system, solved
    by one sparse LU factorization."""
    try:
        lu = splu(op.stiffness.tocsc()[1:, 1:])
    except RuntimeError as exc:  # pragma: no cover - singular submatrix
        raise SolverError(f"stiffness factorization failed: {exc}") from exc
    return np.concatenate([[0.0], lu.solve(b[1:])])


def poincare_constant_estimate(mesh: TensorMesh) -> float:
    """Smallest constant C_p with ||w||_2^2 <= C_p |w|_{1,h}^2 for zero-mean w.

    Equals 1 / lambda_2, lambda_2 the smallest nonzero eigenvalue of the
    pencil (A, M) with M = diag(m_K).  On a tensor mesh A = sum_a A_a (x)
    prod_{b != a} M_b, with A_a the 1-D stiffness of axis a (transmissibility
    1 / d_KL) and M_b = diag(h_b), so the pencil's eigenvalues are the sums
    of one eigenvalue of (A_a, M_a) per axis, and lambda_2 is the smallest
    nonzero one of any axis with at least 2 cells.
    """
    if mesh.n_cells < 2:
        raise ValueError("need at least 2 cells")
    lam = math.inf
    for h in mesh.spacings:
        if h.size < 2:
            continue
        t = 2.0 / (h[:-1] + h[1:])
        diag = np.concatenate([t, [0.0]]) + np.concatenate([[0.0], t])
        a = np.diag(diag) - np.diag(t, 1) - np.diag(t, -1)
        lam = min(lam, eigh(a, np.diag(h), eigvals_only=True)[1])
    return 1.0 / lam


def l2_error_vs_function(field: CellField,
                         fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """True L2 distance between a smooth function and a cell field, by
    per-cell tensor Gauss quadrature of (fn - w_K)^2."""
    sq = cell_average(
        lambda x: (np.asarray(fn(x), dtype=float) - field.values) ** 2,
        field.mesh)
    return float(np.sqrt(integral(field.mesh, sq.values)))
