"""Elliptic and centered projections of smooth functions onto cell fields.

The elliptic projection of w is the cell vector matching the mean of w and
reproducing -int_K Laplacian(w) through two-point fluxes:

    sum_K m_K w~_K = int_Lambda w,
    sum_{sigma in E_K^int} (m_sigma/d_KL) (w~_K - w~_L) = -int_K Lap(w)  for all K.

The stiffness kernel is the constants, so the flux system is solved by one
sparse LU factorization with the first unknown grounded, and the mean
constraint is imposed by a final shift.  The centered projection is
plain point evaluation at cell centers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .discrete_ops import (TpfaOperator, discrete_h1_seminorm,
                           grounded_solve, integral, l2_error_vs_function)
from .errors import CompatibilityWarning, ConfigError, SolverError
from .fields import CellField
from .mesh import TensorMesh, cell_average
from .stats import fit_rate

__all__ = [
    "SmoothFunctionSpec",
    "cosine_mode_spec",
    "elliptic_projection",
    "centered_projection",
    "ProjectionErrorReport",
    "projection_error_report",
]

RESIDUAL_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class SmoothFunctionSpec:
    """A smooth scalar function with its analytic Laplacian.

    The Laplacian is supplied, not differenced, so projection errors are not
    polluted by differentiation error.  Construction self-checks the supplied
    Laplacian against central finite differences at a few interior points.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        rng = np.random.default_rng(7)
        lo, hi = np.array(self.domain, dtype=float).T
        step = 1e-4 * float(np.min(hi - lo))
        pts = lo + (hi - lo) * (0.25 + 0.5 * rng.random((8, lo.size)))
        base = np.asarray(self.fn(pts), dtype=float)
        num = sum((np.asarray(self.fn(pts + e)) - 2.0 * base
                   + np.asarray(self.fn(pts - e))) / step**2
                  for e in step * np.eye(lo.size))
        ana = np.asarray(self.laplacian(pts), dtype=float)
        scale = np.max(np.abs(ana)) + 1.0
        if np.max(np.abs(num - ana)) > 1e-6 * scale:
            raise ValueError("supplied Laplacian disagrees with finite differences")


def cosine_mode_spec() -> SmoothFunctionSpec:
    """w = cos(pi x) cos(2 pi y) on the unit square, a Neumann eigenfunction
    with Laplacian -5 pi^2 w: the projection study's test function."""
    return SmoothFunctionSpec(
        fn=lambda x: np.cos(np.pi * x[:, 0]) * np.cos(2 * np.pi * x[:, 1]),
        laplacian=lambda x: -5.0 * np.pi**2 * np.cos(np.pi * x[:, 0])
        * np.cos(2 * np.pi * x[:, 1]),
        domain=((0.0, 1.0), (0.0, 1.0)),
    )


def centered_projection(fn: Callable[[np.ndarray], np.ndarray],
                        mesh: TensorMesh) -> CellField:
    """Point evaluation at the cell centers, w^_K = w(x_K)."""
    return CellField(mesh, np.asarray(fn(mesh.centers), dtype=float))


def _flux_rhs(spec: SmoothFunctionSpec, mesh: TensorMesh,
              stacklevel: int = 3) -> np.ndarray:
    """The flux right-hand side -m_K <Lap w>_K with its sum removed, and the
    CompatibilityWarning of elliptic_projection when that sum is not zero
    on a mesh with interior faces (one cell has no flux balance to meet)."""
    rhs = -mesh.measures * cell_average(spec.laplacian, mesh).values
    imbalance = float(rhs.sum())
    scale = float(np.sum(np.abs(rhs))) + 1.0
    if mesh.n_interior_edges and abs(imbalance) > 1e-8 * scale:
        warnings.warn(
            f"int_Lambda Lap(w) = {-imbalance:.3e} does not vanish; the data "
            "is not compatible with homogeneous Neumann fluxes",
            CompatibilityWarning, stacklevel=stacklevel)
    return rhs - imbalance / mesh.n_cells


def _flux_residual(op: TpfaOperator, x: np.ndarray, rhs: np.ndarray) -> float:
    return float(np.max(np.abs(op.stiffness @ x - rhs)))


def _solve(spec: SmoothFunctionSpec, mesh: TensorMesh) -> tuple[CellField, float, float]:
    """The elliptic projection, the flux-balance residual it was checked
    against and its target mass int_Lambda w."""
    target_mass = float(integral(mesh, cell_average(spec.fn, mesh).values))
    rhs = _flux_rhs(spec, mesh, stacklevel=4)   # warn at the public caller
    op = TpfaOperator(mesh)
    x = grounded_solve(op, rhs)
    x += (target_mass - float(integral(mesh, x))) / mesh.domain_measure
    res = _flux_residual(op, x, rhs)
    if res > RESIDUAL_TOL:
        raise SolverError(f"projection residual {res:.3e} exceeds {RESIDUAL_TOL}")
    return CellField(mesh, x), res, target_mass


def elliptic_projection(spec: SmoothFunctionSpec,
                        mesh: TensorMesh) -> CellField:
    """Cell field satisfying the mean and per-cell flux-balance equations.

    Raises SolverError when the flux balance cannot be met to RESIDUAL_TOL;
    warns (CompatibilityWarning) when int_Lambda Lap(w) fails to vanish
    beyond quadrature accuracy, which signals non-Neumann data.
    """
    return _solve(spec, mesh)[0]


def elliptic_residual(spec: SmoothFunctionSpec, field: CellField) -> float:
    """Max-norm defect of the per-cell flux balance at a candidate field."""
    mesh = field.mesh
    return _flux_residual(TpfaOperator(mesh), field.values, _flux_rhs(spec, mesh))


@dataclass
class ProjectionErrorReport:
    """Nested-refinement error table for both projections."""

    sizes: list[float]                    # h per level
    elliptic_errors: list[float]          # ||w - w~||_{L2}
    centered_errors: list[float]          # ||w - w^||_{L2}
    seminorm_gaps: list[float]            # |w^ - w~|_{1,h}
    slopes: dict[str, float]
    residuals: list[float]
    mass_defects: list[float]

    def rows(self):
        return zip(self.sizes, self.elliptic_errors, self.centered_errors,
                   self.seminorm_gaps)


def projection_error_report(spec: SmoothFunctionSpec,
                            meshes: Sequence[TensorMesh]) -> ProjectionErrorReport:
    """Projection errors across a nested mesh family with fitted log-log slopes."""
    if len(meshes) < 3:
        raise ValueError("need at least 3 refinement levels")
    sizes, e_ell, e_cen, gaps, residuals, defects = [], [], [], [], [], []
    for mesh in meshes:
        tilde, residual, target = _solve(spec, mesh)
        hat = centered_projection(spec.fn, mesh)
        sizes.append(mesh.size_h)
        e_ell.append(l2_error_vs_function(tilde, spec.fn))
        e_cen.append(l2_error_vs_function(hat, spec.fn))
        gaps.append(discrete_h1_seminorm(
            CellField(mesh, hat.values - tilde.values)))
        residuals.append(residual)
        defects.append(abs(float(integral(mesh, tilde.values)) - target))
    columns = {"elliptic": e_ell, "centered": e_cen, "seminorm_gap": gaps}
    # an entry that is rounding noise next to its column's largest is zero
    if any(min(col) <= 1e-12 * max(col) for col in columns.values()):
        raise ConfigError("a projection error is zero up to rounding on some "
                          "level; start from a finer base mesh")
    slopes = {key: fit_rate(list(zip(sizes, col)))[0]
              for key, col in columns.items()}
    return ProjectionErrorReport(sizes, e_ell, e_cen, gaps, slopes,
                                 residuals, defects)
