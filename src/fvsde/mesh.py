"""Axis-aligned tensor-product finite-volume meshes in 2D and 3D.

Control volumes are boxes, centers are barycenters, so the segment joining two
neighboring centers is orthogonal to their shared face and the classical
two-point flux approximation is consistent.  The mesh stores, per interior
face sigma = K|L, the measure m_sigma, the center distance d_KL and the unit
normal oriented K -> L; boundary faces are kept for validation only (the
schemes in this package assign them zero flux).

Cell and face data is held in flat numpy arrays (structure-of-arrays).
Every one of them is a slice of three per-axis grids over the cells:
spacing, lower node and upper node.  Cells read the whole grids; the
interior faces normal to an axis pair the slab of cells before the last
with the slab after the first, and the boundary faces are the first and
last slabs.  Meshes are immutable after construction and safe to share
across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import MeshError
from .fields import CellField

__all__ = [
    "TensorMesh",
    "AdmissibilityReport",
    "build_tensor_mesh",
    "refine",
    "cell_average",
    "box_rule",
    "validate_admissibility",
    "injection_map",
    "inject",
]

def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the reference interval [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


#: Gauss-Legendre order used for all cell / face quadratures (exact through
#: polynomial degree 2*order - 1 = 5 per axis).  Recorded in reports.
QUADRATURE_ORDER = 3
_BOX_NODES, _BOX_WEIGHTS = gauss_rule(QUADRATURE_ORDER)   # built once


@dataclass(frozen=True, eq=False)
class TensorMesh:
    """Admissible tensor-product mesh on an axis-aligned box."""

    dimension: int
    nodes: tuple[np.ndarray, ...]          # per-axis interval boundaries
    cell_counts: tuple[int, ...]
    centers: np.ndarray                    # (n_cells, d)
    measures: np.ndarray                   # (n_cells,)
    diameters: np.ndarray                  # (n_cells,)
    cell_lower: np.ndarray                 # (n_cells, d)
    cell_upper: np.ndarray                 # (n_cells, d)
    edge_cells: np.ndarray                 # (n_edges, 2) int, oriented K -> L
    edge_measures: np.ndarray              # (n_edges,)
    edge_distances: np.ndarray             # (n_edges,)  d_KL
    edge_axis: np.ndarray                  # (n_edges,) int
    edge_planes: np.ndarray                # (n_edges,) interface coordinate
    bedge_cells: np.ndarray                # (n_bedges,) int
    bedge_measures: np.ndarray
    bedge_normals: np.ndarray              # (n_bedges, d), outward
    bedge_axis: np.ndarray

    # -- basic quantities -------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.measures.shape[0]

    @property
    def n_interior_edges(self) -> int:
        return self.edge_measures.shape[0]

    @property
    def n_boundary_edges(self) -> int:
        return self.bedge_measures.shape[0]

    @property
    def lower(self) -> np.ndarray:
        return np.array([ax[0] for ax in self.nodes])

    @property
    def upper(self) -> np.ndarray:
        return np.array([ax[-1] for ax in self.nodes])

    @property
    def domain_measure(self) -> float:
        return float(np.prod(self.upper - self.lower))

    @property
    def spacings(self) -> tuple[np.ndarray, ...]:
        return tuple(np.diff(ax) for ax in self.nodes)

    @property
    def size_h(self) -> float:
        """Mesh size: the largest cell diameter."""
        return float(self.diameters.max())

    @cached_property
    def regularity(self) -> float:
        """Regularity number: max of the vertex-incidence count and, over
        interior faces and both adjacent cells, diam(K) / d(x_K, sigma)."""
        counts = self.cell_counts
        d = self.dimension
        # Max number of faces meeting a mesh vertex; for a tensor grid the
        # max is attained at any interior-most vertex: sum over normal axes
        # of the number of tangential cell pairs touching the vertex.
        incidence = 0
        for a in range(d):
            term = 1
            for b in range(d):
                if b != a:
                    term *= 2 if counts[b] >= 2 else 1
            incidence += term
        ratio = 0.0
        if self.n_interior_edges:
            for side in (0, 1):
                cells = self.edge_cells[:, side]
                dist = np.abs(self.centers[cells, self.edge_axis] - self.edge_planes)
                ratio = max(ratio, float(np.max(self.diameters[cells] / dist)))
        return float(max(incidence, ratio))

    @cached_property
    def transmissibilities(self) -> np.ndarray:
        """m_sigma / d_KL per interior edge."""
        return self.edge_measures / self.edge_distances

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """(n_edges, d) unit normals n_{K,sigma}, oriented K -> L."""
        return np.eye(self.dimension)[self.edge_axis]

    # -- export ------------------------------------------------------------

    def to_summary_dict(self) -> dict:
        """JSON-ready summary of the mesh (for debugging / mesh-info)."""
        return {
            "dimension": self.dimension,
            "cell_counts": list(self.cell_counts),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "n_cells": self.n_cells,
            "n_interior_edges": self.n_interior_edges,
            "n_boundary_edges": self.n_boundary_edges,
            "size_h": self.size_h,
            "regularity": self.regularity,
            "domain_measure": self.domain_measure,
            "cell_measure_sum": float(self.measures.sum()),
            "quadrature_order": QUADRATURE_ORDER,
            "cells": {
                "centers": self.centers.tolist(),
                "measures": self.measures.tolist(),
                "diameters": self.diameters.tolist(),
            },
            "interior_edges": {
                "cells": self.edge_cells.tolist(),
                "measures": self.edge_measures.tolist(),
                "distances": self.edge_distances.tolist(),
                "axis": self.edge_axis.tolist(),
            },
            "boundary_edges": {
                "cells": self.bedge_cells.tolist(),
                "measures": self.bedge_measures.tolist(),
                "axis": self.bedge_axis.tolist(),
            },
        }


def build_tensor_mesh(
    domain: Sequence[tuple[float, float]],
    cell_counts: Sequence[int],
    spacings: Sequence[Sequence[float]] | None = None,
) -> TensorMesh:
    """Construct an admissible tensor-product mesh on an axis-aligned box.

    Parameters
    ----------
    domain : per-axis (lo, hi) pairs; dimension must be 2 or 3.
    cell_counts : number of cells per axis (>= 1).
    spacings : optional per-axis interval lengths (grading); must be positive
        and sum to the side length.  Uniform spacing when omitted.
    """
    d = len(domain)
    if d not in (2, 3):
        raise MeshError(f"dimension must be 2 or 3, got {d}")
    if len(cell_counts) != d:
        raise MeshError("cell_counts and domain dimensions differ")
    counts = tuple(int(n) for n in cell_counts)
    if any(n < 1 for n in counts):
        raise MeshError(f"invalid geometry: cell counts must be >= 1, got {counts}")

    nodes: list[np.ndarray] = []
    for a, ((lo, hi), n) in enumerate(zip(domain, counts)):
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise MeshError(f"invalid geometry: empty extent on axis {a}")
        if spacings is None:
            ax = np.linspace(lo, hi, n + 1)
        else:
            sp = np.asarray(spacings[a], dtype=float)
            if sp.shape != (n,):
                raise MeshError(f"axis {a}: expected {n} spacings, got {sp.shape}")
            if np.any(sp <= 0.0):
                raise MeshError(f"invalid geometry: non-positive spacing on axis {a}")
            if abs(sp.sum() - (hi - lo)) > 1e-12 * (hi - lo):
                raise MeshError(f"invalid geometry: spacings on axis {a} do not "
                                f"sum to the side length")
            ax = lo + np.concatenate([[0.0], np.cumsum(sp)])
            ax[-1] = hi
        nodes.append(ax)
    return _build_from_nodes(tuple(nodes))


def _build_from_nodes(nodes: tuple[np.ndarray, ...]) -> TensorMesh:
    d = len(nodes)
    counts = tuple(len(ax) - 1 for ax in nodes)
    # per-axis grids over the cells, C order over the multi-index
    spacing = np.meshgrid(*[np.diff(ax) for ax in nodes], indexing="ij")
    lower = np.meshgrid(*[ax[:-1] for ax in nodes], indexing="ij")
    upper = np.meshgrid(*[ax[1:] for ax in nodes], indexing="ij")
    index = np.arange(math.prod(counts)).reshape(counts)

    def stack(grids) -> np.ndarray:
        return np.stack([g.ravel() for g in grids], axis=1)

    def slab(a: int, part: slice) -> tuple:
        return (slice(None),) * a + (part,)

    def face_measures(a: int, cells: tuple) -> np.ndarray:
        """m_sigma of the faces normal to axis a on a slab of cells."""
        return math.prod(spacing[b][cells]
                         for b in range(d) if b != a).ravel()

    # interior faces K|L on axis a pair slab [:-1] with slab [1:]; boundary
    # faces are the first and last slabs; both grouped by normal axis
    e_cells, e_meas, e_dist, e_axis, e_plane = [], [], [], [], []
    b_cells, b_meas, b_norm, b_axis = [], [], [], []
    for a in range(d):
        k, l = slab(a, slice(None, -1)), slab(a, slice(1, None))
        e_cells.append(np.stack([index[k].ravel(), index[l].ravel()], axis=1))
        e_meas.append(face_measures(a, k))
        e_dist.append(((spacing[a][k] + spacing[a][l]) / 2.0).ravel())
        e_axis.append(np.full(e_meas[-1].shape[0], a, dtype=np.int64))
        e_plane.append(upper[a][k].ravel())
        for part, sign in ((slice(None, 1), -1.0), (slice(-1, None), +1.0)):
            cells = slab(a, part)
            b_cells.append(index[cells].ravel())
            b_meas.append(face_measures(a, cells))
            b_norm.append(np.zeros((b_cells[-1].shape[0], d)))
            b_norm[-1][:, a] = sign
            b_axis.append(np.full(b_cells[-1].shape[0], a, dtype=np.int64))

    return TensorMesh(
        dimension=d,
        nodes=nodes,
        cell_counts=counts,
        centers=stack((lo + up) / 2.0 for lo, up in zip(lower, upper)),
        measures=math.prod(spacing).ravel(),
        diameters=np.sqrt(sum(h * h for h in spacing)).ravel(),
        cell_lower=stack(lower),
        cell_upper=stack(upper),
        edge_cells=np.concatenate(e_cells, axis=0),
        edge_measures=np.concatenate(e_meas),
        edge_distances=np.concatenate(e_dist),
        edge_axis=np.concatenate(e_axis),
        edge_planes=np.concatenate(e_plane),
        bedge_cells=np.concatenate(b_cells),
        bedge_measures=np.concatenate(b_meas),
        bedge_normals=np.concatenate(b_norm, axis=0),
        bedge_axis=np.concatenate(b_axis),
    )


def refine(mesh: TensorMesh) -> TensorMesh:
    """Halve every interval per axis.

    Children tile their parents exactly (interval endpoints are reused), so
    piecewise-constant fields on the coarse mesh inject onto the fine mesh
    without any geometric mismatch; see :func:`injection_map`.
    """
    new_nodes = []
    for ax in mesh.nodes:
        out = np.empty(2 * len(ax) - 1)
        out[::2] = ax
        out[1::2] = (ax[:-1] + ax[1:]) / 2.0
        new_nodes.append(out)
    return _build_from_nodes(tuple(new_nodes))


@dataclass
class AdmissibilityReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_admissibility(mesh: TensorMesh) -> AdmissibilityReport:
    """Check the admissibility conditions and report violations.

    Checks: positive measures, cell measures summing to the domain measure,
    centers inside their closed cell, distinct neighboring centers, stored
    d_KL consistent with |x_K - x_L|, orthogonality of the center segment to
    the face, and per-cell geometric closure sum(m_sigma * n_{K,sigma}) = 0.
    """
    v: list[str] = []
    if np.any(mesh.measures <= 0.0):
        v.append("measure: non-positive cell measure")
    total = float(mesh.measures.sum())
    dom = mesh.domain_measure
    if abs(total - dom) > 1e-12 * dom:
        v.append(f"measure: cell measures sum to {total!r}, domain is {dom!r}")
    inside = np.all((mesh.centers >= mesh.cell_lower - 1e-12) &
                    (mesh.centers <= mesh.cell_upper + 1e-12))
    if not inside:
        v.append("center: a center lies outside its closed cell")

    k, l = mesh.edge_cells[:, 0], mesh.edge_cells[:, 1]
    t = mesh.centers[l] - mesh.centers[k]
    norm_t = np.linalg.norm(t, axis=1)
    n = mesh.edge_normals
    tangential = np.linalg.norm(t - np.sum(t * n, axis=1)[:, None] * n, axis=1)
    looped = k == l
    coincident = ~looped & (norm_t <= 1e-14 * mesh.size_h)
    measured = ~looped & ~coincident
    far = measured & (np.abs(mesh.edge_distances - norm_t) > 1e-10 * norm_t)
    skew = measured & (tangential > 1e-10 * norm_t)
    v += [f"topology: edge {j} references one cell twice"
          for j in np.flatnonzero(looped)]
    v += [f"zero-distance: edge {j} joins coincident centers"
          for j in np.flatnonzero(coincident)]
    v += [f"distance: edge {j} stores d_KL={float(mesh.edge_distances[j])!r} "
          f"but |x_K - x_L|={float(norm_t[j])!r}" for j in np.flatnonzero(far)]
    v += [f"orthogonality: edge {j} center segment is not normal to the face"
          for j in np.flatnonzero(skew)]

    closure = np.zeros((mesh.n_cells, mesh.dimension))
    scale = np.zeros(mesh.n_cells)
    if mesh.n_interior_edges:
        contrib = mesh.edge_measures[:, None] * mesh.edge_normals
        np.add.at(closure, mesh.edge_cells[:, 0], contrib)
        np.add.at(closure, mesh.edge_cells[:, 1], -contrib)
        np.add.at(scale, mesh.edge_cells[:, 0], mesh.edge_measures)
        np.add.at(scale, mesh.edge_cells[:, 1], mesh.edge_measures)
    np.add.at(closure, mesh.bedge_cells, mesh.bedge_measures[:, None] * mesh.bedge_normals)
    np.add.at(scale, mesh.bedge_cells, mesh.bedge_measures)
    bad = np.linalg.norm(closure, axis=1) > 1e-12 * scale
    if np.any(bad):
        v.append(f"closure: divergence-theorem defect in cells {np.where(bad)[0].tolist()}")
    return AdmissibilityReport(v)


def box_rule(lower: np.ndarray, upper: np.ndarray, axes: list[int]):
    """Yield the (weight, points) pairs of the tensor Gauss rule with
    QUADRATURE_ORDER points per axis in `axes`, over the boxes with (n, d)
    corners `lower` and `upper`, one box a row; the weights are those of
    [0, 1]^len(axes), and the coordinates off `axes` stay at `lower`."""
    widths = upper[:, axes] - lower[:, axes]
    for combo in np.ndindex(*([QUADRATURE_ORDER] * len(axes))):
        points = lower.copy()
        points[:, axes] = lower[:, axes] + widths * _BOX_NODES[list(combo)]
        yield math.prod(_BOX_WEIGHTS[c] for c in combo), points


def cell_average(fn: Callable[[np.ndarray], np.ndarray],
                 mesh: TensorMesh) -> CellField:
    """Per-cell mean of a scalar function, u_K = (1/m_K) int_K u.

    Tensor Gauss quadrature with QUADRATURE_ORDER points per axis; exact for
    polynomials of degree 2*QUADRATURE_ORDER - 1 per axis.
    """
    acc = np.zeros(mesh.n_cells)
    for w, x in box_rule(mesh.cell_lower, mesh.cell_upper,
                         list(range(mesh.dimension))):
        acc += w * np.asarray(fn(x), dtype=float)
    return CellField(mesh, acc)


def injection_map(coarse: TensorMesh, fine: TensorMesh) -> np.ndarray:
    """Index of the coarse parent cell for every fine cell.

    Requires nested meshes on the same box: every coarse node must occur
    among the fine nodes.
    """
    if coarse.dimension != fine.dimension:
        raise MeshError("meshes have different dimensions")
    per_axis = []
    for a in range(coarse.dimension):
        cn, fnod = coarse.nodes[a], fine.nodes[a]
        scale = cn[-1] - cn[0]
        if abs(cn[0] - fnod[0]) > 1e-12 * scale or abs(cn[-1] - fnod[-1]) > 1e-12 * scale:
            raise MeshError("meshes cover different boxes")
        pos = np.searchsorted(fnod, cn)
        pos = np.clip(pos, 0, len(fnod) - 1)
        # nearest fine node must coincide with each coarse node
        near = np.minimum(np.abs(fnod[pos] - cn),
                          np.abs(fnod[np.maximum(pos - 1, 0)] - cn))
        if np.any(near > 1e-12 * scale):
            raise MeshError(f"meshes are not nested along axis {a}")
        mids = (fnod[:-1] + fnod[1:]) / 2.0
        per_axis.append(np.searchsorted(cn, mids) - 1)
    grids = np.meshgrid(*per_axis, indexing="ij")
    return np.ravel_multi_index([g.ravel() for g in grids], coarse.cell_counts)


def inject(field: CellField, fine: TensorMesh) -> CellField:
    """Lift a coarse piecewise-constant field onto a nested finer mesh."""
    return CellField(fine, field.values[injection_map(field.mesh, fine)])
