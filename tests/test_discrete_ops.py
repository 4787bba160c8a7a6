import math

import numpy as np
import pytest

from fvsde.discrete_ops import (TpfaOperator, convection_matrix,
                                dibp_edge_form, dibp_gap, dibp_row_form,
                                edge_velocity, h1_seminorm_sq, integral,
                                l2_error_vs_function, l2_norm_sq,
                                poincare_constant_estimate)
from fvsde.mesh import CellField, build_tensor_mesh, cell_average, refine

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def _mesh(nx=2, ny=2):
    return build_tensor_mesh(UNIT_SQUARE, (nx, ny))


def _l2(mesh, values):
    return math.sqrt(l2_norm_sq(mesh, values))


def _h1(mesh, values):
    return math.sqrt(h1_seminorm_sq(mesh, values))


def test_l2_norm_examples():
    mesh = _mesh()
    assert _l2(mesh, np.ones(4)) == pytest.approx(1.0)
    indicator = np.zeros(4)
    indicator[2] = 1.0
    assert _l2(mesh, indicator) == pytest.approx(0.5)
    assert _l2(mesh, np.zeros(4)) == 0.0


def test_row_wise_norms_match_a_loop_over_cells_and_faces():
    # reference: every cell K and, per axis, its upper neighbour L, with
    # m_sigma and d_KL taken from the per-axis spacings
    spacings = [[0.1, 0.2, 0.3, 0.4], [0.1, 0.3, 0.2],
                [0.5, 0.2, 0.6, 0.3, 0.4]]
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 0.6), (0.0, 2.0)), (4, 3, 5),
                             spacings=spacings)
    rows = np.random.default_rng(5).standard_normal((5, mesh.n_cells))
    l2, h1 = l2_norm_sq(mesh, rows), h1_seminorm_sq(mesh, rows)
    assert l2.shape == h1.shape == (5,)
    for values, got_l2, got_h1 in zip(rows, l2, h1):
        w = values.reshape(4, 3, 5)
        want_l2 = want_h1 = 0.0
        for idx in np.ndindex(4, 3, 5):
            cell = math.prod(h[i] for h, i in zip(spacings, idx))
            want_l2 += cell * w[idx]**2
            for a in range(3):
                if idx[a] + 1 == len(spacings[a]):
                    continue
                nb = idx[:a] + (idx[a] + 1,) + idx[a + 1:]
                face = math.prod(h[i] for b, (h, i) in
                                 enumerate(zip(spacings, idx)) if b != a)
                dist = (spacings[a][idx[a]] + spacings[a][idx[a] + 1]) / 2.0
                want_h1 += face / dist * (w[idx] - w[nb])**2
        assert got_l2 == pytest.approx(want_l2, rel=1e-13)
        assert got_h1 == pytest.approx(want_h1, rel=1e-13)
        assert _l2(mesh, values) == pytest.approx(math.sqrt(want_l2),
                                                  rel=1e-13)
        assert _h1(mesh, values) == pytest.approx(
            math.sqrt(want_h1), rel=1e-13)


@pytest.mark.parametrize("domain, spacings", [
    (((0.0, 1.0), (0.0, 0.6)), [[0.1, 0.15, 0.2, 0.25, 0.3], [0.1, 0.3, 0.2]]),
    (((0.0, 1.0), (0.0, 0.6), (0.0, 2.0)),
     [[0.1, 0.2, 0.3, 0.4], [0.1, 0.3, 0.2], [0.5, 0.2, 0.6, 0.3, 0.4]]),
], ids=["graded_2d", "graded_3d"])
def test_integral_is_the_one_measure_weighted_reduction(domain, spacings):
    mesh = build_tensor_mesh(domain, [len(h) for h in spacings],
                             spacings=spacings)
    rows = np.random.default_rng(9).standard_normal((4, mesh.n_cells))
    got = integral(mesh, rows)
    assert got.shape == (4,)
    cells = [math.prod(h[i] for h, i in zip(spacings, idx))
             for idx in np.ndindex(*mesh.cell_counts)]
    for values, value in zip(rows, got):
        assert value == pytest.approx(sum(m * w for m, w in zip(cells, values)),
                                      rel=1e-13)
    assert np.array_equal(l2_norm_sq(mesh, rows), integral(mesh, rows * rows))


def test_cell_field_rejects_wrong_shape_and_non_finite_values():
    mesh = _mesh()
    with pytest.raises(ValueError, match="4 cells"):
        CellField(mesh, np.ones(5))
    with pytest.raises(ValueError, match="4 cells"):
        CellField(mesh, np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        CellField(mesh, np.array([0.0, 1.0, np.nan, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        CellField(mesh, np.array([0.0, np.inf, 1.0, 2.0]))


def test_h1_seminorm_column_field():
    # values 0 on the left column, 1 on the right: the two x-edges each
    # contribute (0.5/0.5) * 1^2, y-edges contribute nothing -> sqrt(2)
    mesh = _mesh()
    values = np.array([0.0, 0.0, 1.0, 1.0])
    assert _h1(mesh, values) == pytest.approx(math.sqrt(2.0))


def test_h1_seminorm_homogeneous_and_kernel():
    mesh = _mesh(4, 3)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(mesh.n_cells)
    s1 = _h1(mesh, w)
    s2 = _h1(mesh, -2.5 * w)
    assert s2 == pytest.approx(2.5 * s1, rel=1e-13)
    assert _h1(mesh, np.full(mesh.n_cells, 7.0)) == 0.0


def test_laplacian_kernel_and_telescoping():
    mesh = _mesh(5, 4)
    const = np.full(mesh.n_cells, 2.0)
    np.testing.assert_allclose(TpfaOperator(mesh).laplacian_values(const),
                               0.0, atol=1e-13)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(mesh.n_cells)
    lw = TpfaOperator(mesh).laplacian_values(w)
    assert abs(integral(mesh, lw)) < 1e-12


def test_laplacian_cosine_eigenfunction_refinement():
    # cos(pi x) is an eigenfunction; the discrete eigenvalue is
    # (4/h^2) sin^2(pi h / 2) = pi^2 (1 - (pi h)^2 / 12 + ...), so the
    # relative residual against -pi^2 w shrinks like h^2.
    rels = []
    for n in (8, 16, 32):
        mesh = _mesh(n, n)
        w = cell_average(lambda x: np.cos(np.pi * x[:, 0]), mesh)
        lw = TpfaOperator(mesh).laplacian_values(w.values)
        resid = lw + math.pi**2 * w.values
        rels.append(_l2(mesh, resid) / _l2(mesh, w.values) / math.pi**2)
        expected = (math.pi / n) ** 2 / 12
        assert rels[-1] == pytest.approx(expected, rel=0.05)
    assert rels[0] / rels[1] == pytest.approx(4.0, rel=0.1)
    assert rels[1] / rels[2] == pytest.approx(4.0, rel=0.1)


def test_edge_velocity_zero_and_constant():
    mesh = _mesh(3, 3)
    zero = edge_velocity(lambda t, x: np.zeros_like(x), mesh, 0.0, 1.0)
    np.testing.assert_allclose(zero, 0.0, atol=1e-15)

    def const_x(t, x):
        out = np.zeros_like(x)
        out[:, 0] = 1.0
        return out

    ev = edge_velocity(const_x, mesh, 0.0, 1.0)
    x_edges = mesh.edge_axis == 0
    np.testing.assert_allclose(ev[x_edges], 1.0, atol=1e-14)
    np.testing.assert_allclose(ev[~x_edges], 0.0, atol=1e-14)


def test_edge_velocity_time_average():
    # v = (t, 0): 2-point Gauss in time is exact for the average t = 1/2
    mesh = _mesh()

    def v(t, x):
        out = np.zeros_like(x)
        out[:, 0] = t
        return out

    ev = edge_velocity(v, mesh, 0.0, 1.0)
    x_edges = mesh.edge_axis == 0
    np.testing.assert_allclose(ev[x_edges], 0.5, atol=1e-14)


def _composite_edge_oracle(vfn, mesh, edge, panels=20, order=5):
    """Composite Gauss quadrature of v . n over one edge (time-independent)."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    gx = (gx + 1.0) / 2.0
    gw = gw / 2.0
    axis = int(mesh.edge_axis[edge])
    # the face spans the box of its L cell on the tangential axis
    lo = mesh.cell_lower[mesh.edge_cells[edge, 1]]
    hi = mesh.cell_upper[mesh.edge_cells[edge, 1]]
    tang = [b for b in range(mesh.dimension) if b != axis]
    assert len(tang) == 1
    t_axis = tang[0]
    a, b = lo[t_axis], hi[t_axis]
    total = 0.0
    width = (b - a) / panels
    for p in range(panels):
        for node, weight in zip(gx, gw):
            pt = np.array([[0.0, 0.0]])
            pt[0, axis] = mesh.edge_planes[edge]
            pt[0, t_axis] = a + (p + node) * width
            total += weight * width * vfn(0.0, pt)[0, axis]
    return total / (b - a)


def test_edge_velocity_stream_preset_vs_composite_oracle():
    # 3-point Gauss error scales like h^7 f^(6); edges of length 1/16 put the
    # amplitude-pi stream field well below the 1e-8 comparison tolerance
    mesh = _mesh(16, 16)

    def v(t, x):
        out = np.empty_like(x)
        out[:, 0] = np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        out[:, 1] = -np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        return out

    ev = edge_velocity(v, mesh, 0.0, 0.5)
    for edge in (0, 5, mesh.n_interior_edges - 1):
        oracle = _composite_edge_oracle(v, mesh, edge)
        assert ev[edge] == pytest.approx(oracle, abs=1e-8)


def test_upwind_trace_sign_convention():
    # the face's flux reads the upstream cell's column; a tie (v = 0) takes K
    mesh = _mesh(2, 1)
    m = mesh.edge_measures[0]
    for vel, column in ((+1.0, 0), (-1.0, 1), (0.0, 0)):
        conv = convection_matrix(mesh, np.array([vel]), 1.0)
        np.testing.assert_array_equal(conv.indices, [column, column])
        np.testing.assert_array_equal(conv.toarray()[:, column],
                                      [m * vel, -m * vel])


def test_dibp_identity_random_fields():
    mesh = _mesh(4, 4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = rng.standard_normal(16)
        v = rng.standard_normal(16)
        scale = (_h1(mesh, w) * _h1(mesh, v) + 1.0)
        assert dibp_gap(mesh, w, v) <= 1e-12 * scale


def test_dibp_constant_fields_vanish():
    mesh = _mesh(3, 3)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(9)
    const = np.full(9, 4.0)
    assert abs(dibp_row_form(mesh, const, w)) < 1e-12
    assert abs(dibp_edge_form(mesh, const, w)) < 1e-12
    assert abs(dibp_edge_form(mesh, w, const)) < 1e-12
    assert abs(dibp_row_form(mesh, w, const)) < 1e-12


def test_dibp_mutation_is_detected():
    # perturbing one transmissibility on one side only must break the identity
    mesh = _mesh(4, 4)
    rng = np.random.default_rng(9)
    w = rng.standard_normal(16)
    v = rng.standard_normal(16)
    row = dibp_row_form(mesh, w, v)
    mutated = mesh.edge_distances.copy()
    mutated[3] *= 1.0 + 1e-6
    import dataclasses
    bad_mesh = dataclasses.replace(mesh, edge_distances=mutated)
    bad_edge = dibp_edge_form(bad_mesh, w, v)
    assert abs(row - bad_edge) > 1e-9


@pytest.mark.parametrize("call, error, message", [
    (lambda: edge_velocity(lambda t, x: np.zeros_like(x), _mesh(), 0.5, 0.5),
     ValueError, "empty time interval"),
])
def test_malformed_operator_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


# Poincare oracle, 2-cell unit square: the single edge has m_sigma = 1 and
# d_KL = 1/2, so |(a, -a)|_{1,h}^2 = 2 (2a)^2 = 8 a^2 while ||.||^2 = a^2;
# equivalently the smallest nonzero eigenvalue (4/h^2) sin^2(pi h/2) at
# h = 1/2 equals 8.  Best constant: 1/8.
def test_poincare_two_cell_closed_form():
    mesh = _mesh(2, 1)
    assert poincare_constant_estimate(mesh) == pytest.approx(0.125, abs=1e-9)


def test_poincare_matches_dense_eigensolve_on_graded_3d_mesh():
    # oracle: 1 / lambda_2 of the full pencil (A, diag(m_K)), lambda_1 = 0
    import scipy.linalg
    mesh = build_tensor_mesh(((0.0, 1.0), (0.0, 0.6), (0.0, 2.0)), (4, 3, 5),
                             spacings=[[0.1, 0.2, 0.3, 0.4], [0.1, 0.3, 0.2],
                                       [0.5, 0.2, 0.6, 0.3, 0.4]])
    stiffness = TpfaOperator(mesh).stiffness.toarray()
    lam = scipy.linalg.eigh(stiffness, np.diag(mesh.measures),
                            eigvals_only=True)
    assert poincare_constant_estimate(mesh) == pytest.approx(1.0 / lam[1],
                                                             rel=1e-12)


def test_poincare_refinement_approaches_continuum():
    # first nonzero Neumann eigenvalue of the unit square is pi^2
    estimates = []
    for n in (8, 16, 32):
        estimates.append(poincare_constant_estimate(_mesh(n, n)))
    target = 1.0 / math.pi**2
    errs = [abs(e - target) for e in estimates]
    assert errs[0] > errs[1] > errs[2]
    assert estimates[2] == pytest.approx(target, rel=0.01)


def test_poincare_scale_covariance():
    small = poincare_constant_estimate(build_tensor_mesh(UNIT_SQUARE, (8, 8)))
    big = poincare_constant_estimate(
        build_tensor_mesh(((0.0, 2.0), (0.0, 2.0)), (8, 8)))
    assert big == pytest.approx(4.0 * small, rel=1e-6)


def test_poincare_inequality_random_zero_mean():
    mesh = _mesh(8, 8)
    cp = poincare_constant_estimate(mesh)
    rng = np.random.default_rng(21)
    m = mesh.measures
    for _ in range(40):
        w = rng.standard_normal(mesh.n_cells)
        w -= np.dot(m, w) / m.sum()
        assert _l2(mesh, w) ** 2 <= cp * _h1(mesh, w) ** 2 + 1e-10


def test_poincare_needs_two_cells():
    with pytest.raises(ValueError):
        poincare_constant_estimate(build_tensor_mesh(UNIT_SQUARE, (1, 1)))


def test_mass_examples():
    mesh = _mesh()
    assert integral(mesh, np.full(4, 3.0)) == pytest.approx(3.0)
    zero_mean = np.array([1.0, -1.0, 2.0, -2.0])
    assert abs(integral(mesh, zero_mean)) < 1e-14
    # mass of the cell averages equals the integral (quadrature oracle):
    # int over the unit square of 1 + 0.5 cos(pi x) cos(pi y) is exactly 1
    field = cell_average(
        lambda x: 1.0 + 0.5 * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
        _mesh(6, 6))
    assert integral(field.mesh, field.values) == pytest.approx(1.0, abs=1e-10)


def test_weighted_self_adjointness():
    mesh = _mesh(5, 3)
    op = TpfaOperator(mesh)
    rng = np.random.default_rng(2)
    m = mesh.measures
    for _ in range(10):
        a = rng.standard_normal(mesh.n_cells)
        b = rng.standard_normal(mesh.n_cells)
        la, lb = op.laplacian_values(a), op.laplacian_values(b)
        assert abs(np.sum(m * la * b) - np.sum(m * a * lb)) < 1e-12
        assert np.sum(m * la * a) <= 1e-12


def test_l2_error_vs_function_linear_oracle():
    # single cell, f = x: best constant is 1/2 and the L2 defect is the
    # standard deviation of x on [0,1]: sqrt(1/12)
    mesh = build_tensor_mesh(UNIT_SQUARE, (1, 1))
    err = l2_error_vs_function(mesh, np.array([0.5]), lambda x: x[:, 0])
    assert err == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-12)
