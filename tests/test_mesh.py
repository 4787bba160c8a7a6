import dataclasses
import math

import numpy as np
import pytest

from fvsde.errors import MeshError
from fvsde.mesh import (box_rule, build_tensor_mesh, cell_average,
                        injection_map, refine, validate_admissibility)

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
UNIT_CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def test_unit_square_2x2_geometry():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    assert mesh.n_cells == 4
    np.testing.assert_allclose(mesh.measures, 0.25)
    assert mesh.n_interior_edges == 4
    np.testing.assert_allclose(mesh.edge_measures, 0.5)
    np.testing.assert_allclose(mesh.edge_distances, 0.5)
    assert mesh.n_boundary_edges == 8
    np.testing.assert_allclose(mesh.size_h, math.sqrt(2) / 2)


def test_single_cell_mesh():
    mesh = build_tensor_mesh(UNIT_SQUARE, (1, 1))
    assert mesh.n_cells == 1
    assert mesh.n_interior_edges == 0
    assert mesh.n_boundary_edges == 4


def test_unit_cube_2x2x2_geometry():
    mesh = build_tensor_mesh(UNIT_CUBE, (2, 2, 2))
    assert mesh.n_cells == 8
    np.testing.assert_allclose(mesh.measures, 0.125)
    assert mesh.n_interior_edges == 12
    np.testing.assert_allclose(mesh.edge_measures, 0.25)
    np.testing.assert_allclose(mesh.edge_distances, 0.5)


def test_edge_orientation_and_normals():
    mesh = build_tensor_mesh(UNIT_SQUARE, (3, 2))
    for j in range(mesh.n_interior_edges):
        k, l = mesh.edge_cells[j]
        t = mesh.centers[l] - mesh.centers[k]
        # normal points from K to L along the edge axis
        assert np.dot(t, mesh.edge_normals[j]) > 0.0
        assert abs(np.linalg.norm(mesh.edge_normals[j]) - 1.0) < 1e-14


def test_invalid_geometry_rejected():
    with pytest.raises(MeshError):
        build_tensor_mesh(UNIT_SQUARE, (2, 2),
                          spacings=[[0.5, -0.5], [0.5, 0.5]])
    with pytest.raises(MeshError):
        build_tensor_mesh(UNIT_SQUARE, (2, 2),
                          spacings=[[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(MeshError):
        build_tensor_mesh(UNIT_SQUARE, (0, 2))
    with pytest.raises(MeshError):
        build_tensor_mesh(((0.0, 1.0),), (4,))


def test_graded_mesh_valid():
    mesh = build_tensor_mesh(UNIT_SQUARE, (3, 2),
                             spacings=[[0.2, 0.3, 0.5], [0.7, 0.3]])
    violations = validate_admissibility(mesh)
    assert not violations, violations
    assert abs(mesh.measures.sum() - 1.0) < 1e-12


# regularity oracle: for uniform square cells the worst interior-edge ratio is
# diam/d(x_K, sigma) = sqrt(2) h / (h/2) = 2 sqrt(2); the vertex-incidence
# count of a 2D tensor grid is 4, which dominates.
def test_regularity_uniform_square():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    h = 0.5
    ratio = math.sqrt(2) * h / (h / 2)
    assert ratio == pytest.approx(2 * math.sqrt(2))
    assert mesh.regularity == pytest.approx(max(4.0, ratio))
    assert mesh.regularity == pytest.approx(4.0)


def test_regularity_uniform_cube():
    mesh = build_tensor_mesh(UNIT_CUBE, (2, 2, 2))
    ratio = math.sqrt(3) * 0.5 / 0.25          # 2 sqrt(3) ~ 3.464
    incidence = 12                              # 4 faces per orientation
    assert mesh.regularity == pytest.approx(max(incidence, ratio))


def test_regularity_single_cell_is_vertex_incidence():
    assert build_tensor_mesh(UNIT_SQUARE, (1, 1)).regularity == 2.0
    assert build_tensor_mesh(UNIT_CUBE, (1, 1, 1)).regularity == 3.0


def test_regularity_constant_under_uniform_refinement():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    values = [mesh.regularity]
    for _ in range(3):
        mesh = refine(mesh)
        values.append(mesh.regularity)
    assert all(v == values[0] for v in values)


def test_validate_perturbed_center_reports_orthogonality():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    centers = mesh.centers.copy()
    centers[0, 1] += 1e-3        # tangential shift relative to the x-edge
    bad = dataclasses.replace(mesh, centers=centers)
    assert any("orthogonality" in v for v in validate_admissibility(bad))


def test_validate_coincident_centers_reports_zero_distance():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    centers = mesh.centers.copy()
    centers[1] = centers[0]
    bad = dataclasses.replace(mesh, centers=centers)
    assert any("zero-distance" in v for v in validate_admissibility(bad))


def _set(array, index, value):
    out = array.copy()
    out[index] = value
    return out


# 2x2 unit square: edges 0, 1 join cells (0, 2), (1, 3) across x = 1/2,
# edges 2, 3 join (0, 1), (2, 3) across y = 1/2; every cell is 1/2 wide
@pytest.mark.parametrize("field, edit, message", [
    ("edge_cells", lambda m: _set(m.edge_cells, 1, [1, 1]),
     "topology: edge 1 references one cell twice"),
    ("edge_distances", lambda m: _set(m.edge_distances, 2, 0.75),
     "distance: edge 2 stores d_KL=0.75 but |x_K - x_L|=0.5"),
    ("edge_measures", lambda m: _set(m.edge_measures, 3, 1.0),
     "closure: divergence-theorem defect in cells [2, 3]"),
    ("measures", lambda m: _set(m.measures, 0, -0.25),
     "measure: non-positive cell measure"),
    ("measures", lambda m: 2.0 * m.measures,
     "measure: cell measures sum to 2.0, domain is 1.0"),
    ("cell_upper", lambda m: _set(m.cell_upper, 0, [0.1, 0.5]),
     "center: a center lies outside its closed cell"),
], ids=["topology", "distance", "closure", "measure-sign", "measure-sum",
        "center"])
def test_validate_reports_each_violation_kind(field, edit, message):
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    bad = dataclasses.replace(mesh, **{field: edit(mesh)})
    violations = validate_admissibility(bad)
    assert any(v.startswith(message) for v in violations), violations


def _per_edge_loop(mesh):
    """The per-edge checks written as a loop over edges: the reference for
    the array expressions in validate_admissibility."""
    out = []
    for j, (k, l) in enumerate(mesh.edge_cells):
        t = mesh.centers[l] - mesh.centers[k]
        norm_t = np.linalg.norm(t)
        if k == l:
            out.append(("topology", j))
        elif norm_t <= 1e-14 * mesh.size_h:
            out.append(("zero-distance", j))
        else:
            if abs(mesh.edge_distances[j] - norm_t) > 1e-10 * norm_t:
                out.append(("distance", j))
            n = mesh.edge_normals[j]
            if np.linalg.norm(t - np.dot(t, n) * n) > 1e-10 * norm_t:
                out.append(("orthogonality", j))
    return sorted(out)


def test_edge_checks_match_the_per_edge_loop():
    rng = np.random.default_rng(5)
    for domain, counts in ((UNIT_SQUARE, (3, 4)), (UNIT_CUBE, (2, 3, 2))):
        mesh = build_tensor_mesh(domain, counts)
        n_edges = mesh.n_interior_edges
        for _ in range(20):
            moved = rng.random((mesh.n_cells, 1)) < 0.3
            centers = mesh.centers + 0.05 * moved * rng.standard_normal(
                mesh.centers.shape)
            centers[rng.integers(mesh.n_cells)] = centers[rng.integers(
                mesh.n_cells)]
            loop = rng.integers(n_edges)
            edge_cells = _set(mesh.edge_cells, (loop, 1),
                              mesh.edge_cells[loop, 0])
            distances = mesh.edge_distances * np.where(
                rng.random(n_edges) < 0.2, 1.3, 1.0)
            bad = dataclasses.replace(mesh, centers=centers,
                                      edge_cells=edge_cells,
                                      edge_distances=distances)
            found = sorted(
                (v.split(":")[0], int(v.split()[2]))
                for v in validate_admissibility(bad)
                if v.split(":")[0] in ("topology", "zero-distance",
                                       "distance", "orthogonality"))
            assert found == _per_edge_loop(bad)


def _face_by_face(nodes):
    """Cell and face arrays listed one cell multi-index at a time: faces
    grouped by normal axis, interior then boundary (low side, high side)."""
    counts = tuple(len(ax) - 1 for ax in nodes)
    d = len(counts)

    def h(b, i):
        return nodes[b][i + 1] - nodes[b][i]

    def flat(idx):
        return int(np.ravel_multi_index(idx, counts))

    cells = {"measures": [], "diameters": [], "centers": []}
    for idx in np.ndindex(*counts):
        cells["measures"].append(math.prod(h(b, idx[b]) for b in range(d)))
        cells["diameters"].append(
            math.sqrt(sum(h(b, idx[b]) ** 2 for b in range(d))))
        cells["centers"].append([(nodes[b][idx[b]] + nodes[b][idx[b] + 1])
                                 / 2.0 for b in range(d)])
    edges = {"edge_cells": [], "edge_measures": [], "edge_distances": [],
             "edge_axis": [], "edge_planes": []}
    bedges = {"bedge_cells": [], "bedge_measures": [], "bedge_normals": [],
              "bedge_axis": []}
    for a in range(d):
        for idx in np.ndindex(*counts):
            if idx[a] + 1 == counts[a]:
                continue
            right = tuple(i + (b == a) for b, i in enumerate(idx))
            edges["edge_cells"].append([flat(idx), flat(right)])
            edges["edge_measures"].append(
                math.prod(h(b, idx[b]) for b in range(d) if b != a))
            edges["edge_distances"].append(
                (h(a, idx[a]) + h(a, idx[a] + 1)) / 2.0)
            edges["edge_axis"].append(a)
            edges["edge_planes"].append(nodes[a][idx[a] + 1])
        for side, sign in ((0, -1.0), (counts[a] - 1, 1.0)):
            for idx in np.ndindex(*counts):
                if idx[a] != side:
                    continue
                bedges["bedge_cells"].append(flat(idx))
                bedges["bedge_measures"].append(
                    math.prod(h(b, idx[b]) for b in range(d) if b != a))
                bedges["bedge_normals"].append(
                    [sign if b == a else 0.0 for b in range(d)])
                bedges["bedge_axis"].append(a)
    return {**cells, **edges, **bedges}


@pytest.mark.parametrize("domain, counts", [
    (UNIT_SQUARE, (3, 4)),
    (((0.0, 2.0), (-1.0, 0.5)), (1, 5)),
    (((0.0, 1.0), (0.0, 3.0), (1.0, 2.0)), (2, 3, 4)),
    (UNIT_CUBE, (4, 1, 3)),
])
def test_slab_mesh_matches_face_by_face_reference(domain, counts):
    rng = np.random.default_rng(sum(counts))
    spacings = []
    for (lo, hi), n in zip(domain, counts):
        sp = 0.2 + rng.random(n)
        spacings.append(sp * (hi - lo) / sp.sum())
    mesh = build_tensor_mesh(domain, counts, spacings)
    for current in (mesh, refine(mesh)):
        for name, expected in _face_by_face(current.nodes).items():
            got = getattr(current, name)
            assert np.array_equal(got, np.asarray(expected, got.dtype)), name


def test_geometric_closure():
    for mesh in (build_tensor_mesh(UNIT_SQUARE, (3, 4)),
                 build_tensor_mesh(UNIT_CUBE, (2, 3, 2))):
        closure = np.zeros((mesh.n_cells, mesh.dimension))
        contrib = mesh.edge_measures[:, None] * mesh.edge_normals
        np.add.at(closure, mesh.edge_cells[:, 0], contrib)
        np.add.at(closure, mesh.edge_cells[:, 1], -contrib)
        np.add.at(closure, mesh.bedge_cells,
                  mesh.bedge_measures[:, None] * mesh.bedge_normals)
        assert np.max(np.abs(closure)) < 1e-12


def test_cell_average_constant_and_linear():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    ones = cell_average(lambda x: np.ones(x.shape[0]), mesh)
    np.testing.assert_allclose(ones.values, 1.0, atol=1e-14)
    lin = cell_average(lambda x: x[:, 0], mesh)
    # cells are ordered x-major: first column (x in [0, 1/2]) then second
    np.testing.assert_allclose(lin.values, [0.25, 0.25, 0.75, 0.75],
                               atol=1e-14)


def test_cell_average_cosine_antiderivative_oracle():
    # oracle: (1/h) int_a^{a+h} cos(pi x) dx = (sin(pi (a+h)) - sin(pi a)) / (pi h)
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    field = cell_average(lambda x: np.cos(np.pi * x[:, 0]), mesh)
    exact_col0 = (math.sin(math.pi * 0.5) - math.sin(0.0)) / (math.pi * 0.5)
    assert exact_col0 == pytest.approx(2 / math.pi)
    expected = np.array([exact_col0, exact_col0, -exact_col0, -exact_col0])
    # 3-point Gauss on a width-1/2 cell: error ~ pi^6 (1/2)^7 / 2016000
    np.testing.assert_allclose(field.values, expected, atol=1e-5)


def test_cell_average_exact_for_degree_five():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    field = cell_average(lambda x: x[:, 0] ** 5, mesh)
    # oracle: int x^5 / h over [a, b] = (b^6 - a^6) / (6 (b - a))
    expected = [(0.5**6) / (6 * 0.5)] * 2 + [(1.0 - 0.5**6) / (6 * 0.5)] * 2
    np.testing.assert_allclose(field.values, expected, rtol=1e-14)


def test_box_rule_integrates_over_the_given_axes_only():
    # two 3-D boxes, integrated over axes 0 and 2; axis 1 stays at `lower`
    lower = np.array([[0.0, 0.3, 1.0], [0.5, -2.0, 0.0]])
    upper = np.array([[1.0, 0.9, 3.0], [2.0, 7.0, 0.5]])
    acc = np.zeros(2)
    for w, x in box_rule(lower, upper, [0, 2]):
        assert np.array_equal(x[:, 1], lower[:, 1])
        acc += w * x[:, 0] ** 5 * x[:, 2] ** 4
    # the mean of x0^5 x2^4 over [a, c] x [b, d], axis by axis
    expected = [(c**6 - a**6) / (6 * (c - a)) * (d**5 - b**5) / (5 * (d - b))
                for a, c, b, d in zip(lower[:, 0], upper[:, 0],
                                      lower[:, 2], upper[:, 2])]
    np.testing.assert_allclose(acc, expected, rtol=1e-14)


def test_box_rule_does_not_rebuild_its_gauss_rule(monkeypatch):
    # the 3-point rule is built once, at import, not on every call
    def no_leggauss(order):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_leggauss)
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    field = cell_average(lambda x: x[:, 0], mesh)
    np.testing.assert_allclose(field.values, [0.25, 0.25, 0.75, 0.75])


def test_refine_counts_and_nesting():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    fine = refine(mesh)
    assert fine.n_cells == 16
    assert fine.cell_counts == (4, 4)
    # children tile parents: measures of the 4 children sum to the parent
    pmap = injection_map(mesh, fine)
    sums = np.zeros(mesh.n_cells)
    np.add.at(sums, pmap, fine.measures)
    np.testing.assert_allclose(sums, mesh.measures, rtol=1e-12)
    # two refinements still tile level 0
    finer = refine(fine)
    pmap2 = injection_map(mesh, finer)
    sums2 = np.zeros(mesh.n_cells)
    np.add.at(sums2, pmap2, finer.measures)
    np.testing.assert_allclose(sums2, mesh.measures, rtol=1e-12)


def test_injection_requires_nesting():
    a = build_tensor_mesh(UNIT_SQUARE, (3, 3))
    b = build_tensor_mesh(UNIT_SQUARE, (4, 4))
    with pytest.raises(MeshError):
        injection_map(a, b)


@pytest.mark.parametrize("call, message", [
    (lambda: build_tensor_mesh(UNIT_SQUARE, (2, 2, 2)),
     "cell_counts and domain dimensions differ"),
    (lambda: build_tensor_mesh(((0.0, 1.0), (0.5, 0.5)), (2, 2)),
     "empty extent on axis 1"),
    (lambda: build_tensor_mesh(UNIT_SQUARE, (2, 2),
                               spacings=[[0.5, 0.5], [1.0]]),
     "axis 1: expected 2 spacings"),
    (lambda: injection_map(build_tensor_mesh(UNIT_SQUARE, (2, 2)),
                           build_tensor_mesh(UNIT_CUBE, (2, 2, 2))),
     "different dimensions"),
    (lambda: injection_map(build_tensor_mesh(UNIT_SQUARE, (2, 2)),
                           build_tensor_mesh(((0.0, 2.0), (0.0, 1.0)), (4, 4))),
     "different boxes"),
])
def test_malformed_mesh_input_raises(call, message):
    with pytest.raises(MeshError, match=message):
        call()


def test_injection_map_pattern():
    coarse = build_tensor_mesh(UNIT_SQUARE, (2, 1))
    fine = refine(coarse)                     # 4 x 2 cells
    pmap = injection_map(coarse, fine)
    # fine cells with x-index 0,1 map to coarse 0; 2,3 map to coarse 1
    expected = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_array_equal(pmap, expected)


def test_summary_dict_roundtrip_keys():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 3))
    summary = mesh.to_summary_dict()
    assert summary["n_cells"] == 6
    assert summary["dimension"] == 2
    assert len(summary["cells"]["measures"]) == 6
    assert len(summary["interior_edges"]["cells"]) == mesh.n_interior_edges
    assert summary["cell_measure_sum"] == pytest.approx(1.0, abs=1e-14)
