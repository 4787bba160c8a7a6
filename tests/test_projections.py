import warnings

import numpy as np
import pytest

import fvsde.projections as projections
from fvsde.discrete_ops import h1_seminorm_sq, integral, l2_error_vs_function
from fvsde.errors import CompatibilityWarning, ConfigError, SolverError
from fvsde.mesh import build_tensor_mesh, cell_average, refine
from fvsde.projections import (SmoothFunctionSpec, centered_projection,
                               cosine_mode_spec, elliptic_projection,
                               elliptic_residual, projection_error_report)
from fvsde.stats import fit_rate

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))


def _cos_cos_spec():
    return SmoothFunctionSpec(
        fn=lambda x: np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
        laplacian=lambda x: -2.0 * np.pi**2 * np.cos(np.pi * x[:, 0])
        * np.cos(np.pi * x[:, 1]),
        domain=UNIT_SQUARE)


def _mixed_mode_spec():
    return SmoothFunctionSpec(
        fn=lambda x: np.cos(np.pi * x[:, 0]) * np.cos(2.0 * np.pi * x[:, 1]),
        laplacian=lambda x: -5.0 * np.pi**2 * np.cos(np.pi * x[:, 0])
        * np.cos(2.0 * np.pi * x[:, 1]),
        domain=UNIT_SQUARE)


def test_spec_self_check_rejects_wrong_laplacian():
    with pytest.raises(ValueError):
        SmoothFunctionSpec(
            fn=lambda x: np.cos(np.pi * x[:, 0]),
            laplacian=lambda x: np.cos(np.pi * x[:, 0]),   # sign/scale wrong
            domain=UNIT_SQUARE)


def test_constant_function_projects_to_itself():
    spec = SmoothFunctionSpec(fn=lambda x: np.full(x.shape[0], 2.5),
                              laplacian=lambda x: np.zeros(x.shape[0]),
                              domain=UNIT_SQUARE)
    mesh = build_tensor_mesh(UNIT_SQUARE, (4, 4))
    tilde = elliptic_projection(spec, mesh)
    np.testing.assert_allclose(tilde.values, 2.5, atol=1e-12)
    hat = centered_projection(spec.fn, mesh)
    np.testing.assert_allclose(hat.values, 2.5)


def test_centered_projection_center_values():
    mesh = build_tensor_mesh(UNIT_SQUARE, (2, 2))
    hat = centered_projection(lambda x: x[:, 0], mesh)
    np.testing.assert_allclose(hat.values, [0.25, 0.25, 0.75, 0.75])


def test_defining_equations_hold():
    spec = _mixed_mode_spec()
    for counts in ((8, 8), (12, 10)):
        mesh = build_tensor_mesh(UNIT_SQUARE, counts)
        tilde = elliptic_projection(spec, mesh)
        assert elliptic_residual(spec, mesh, tilde.values) <= 1e-11
        target = integral(mesh, cell_average(spec.fn, mesh).values)
        assert abs(integral(mesh, tilde.values) - target) <= 1e-13


def test_product_cosine_projections_coincide_on_uniform_mesh():
    # On a uniform axis-aligned mesh the centered samples of
    # cos(pi x) cos(pi y) satisfy the flux equations exactly:
    # each axis stencil gives 4 sin^2(pi h / 2) w^_K while
    # -int_K Lap(w) = 2 pi^2 w^_K (2 sin(pi h / 2) / pi)^2, the same number,
    # and the mass of both fields is 0.  The computed right-hand side uses
    # 3-point Gauss integrals of the Laplacian, so agreement is limited by
    # that quadrature error (~h^6), not by the solver.
    spec = _cos_cos_spec()
    for n, tol in ((4, 1e-6), (8, 1e-8), (16, 1e-9)):
        mesh = build_tensor_mesh(UNIT_SQUARE, (n, n))
        tilde = elliptic_projection(spec, mesh)
        hat = centered_projection(spec.fn, mesh)
        assert np.max(np.abs(tilde.values - hat.values)) < tol


def test_affine_function_projects_to_its_mean():
    # A non-constant affine function violates the homogeneous Neumann
    # condition; its cell Laplacian integrals vanish, so the flux equations
    # force a constant field and the mean constraint pins it to int(w).
    spec = SmoothFunctionSpec(fn=lambda x: x[:, 0],
                              laplacian=lambda x: np.zeros(x.shape[0]),
                              domain=UNIT_SQUARE)
    mesh = build_tensor_mesh(UNIT_SQUARE, (4, 4))
    tilde = elliptic_projection(spec, mesh)
    np.testing.assert_allclose(tilde.values, 0.5, atol=1e-11)
    hat = centered_projection(spec.fn, mesh)
    assert np.max(np.abs(tilde.values - hat.values)) > 0.1


def test_incompatible_data_warns():
    spec = SmoothFunctionSpec(fn=lambda x: x[:, 0] ** 2,
                              laplacian=lambda x: np.full(x.shape[0], 2.0),
                              domain=UNIT_SQUARE)
    mesh = build_tensor_mesh(UNIT_SQUARE, (4, 4))
    with pytest.warns(CompatibilityWarning) as record:
        elliptic_projection(spec, mesh)
        elliptic_projection(spec, mesh)
    # one warning per projection, not one per assembly of the right-hand
    # side, attributed to the line that asked for the projection
    assert [w.category for w in record] == [CompatibilityWarning] * 2
    assert {w.filename for w in record} == {__file__}


def test_projection_linearity():
    s1 = _cos_cos_spec()
    s2 = _mixed_mode_spec()
    combo = SmoothFunctionSpec(
        fn=lambda x: 2.0 * s1.fn(x) - 0.5 * s2.fn(x),
        laplacian=lambda x: 2.0 * s1.laplacian(x) - 0.5 * s2.laplacian(x),
        domain=UNIT_SQUARE)
    mesh = build_tensor_mesh(UNIT_SQUARE, (8, 8))
    p1 = elliptic_projection(s1, mesh).values
    p2 = elliptic_projection(s2, mesh).values
    pc = elliptic_projection(combo, mesh).values
    np.testing.assert_allclose(pc, 2.0 * p1 - 0.5 * p2, atol=1e-9)


def test_single_cell_projection_is_the_mean():
    spec = _cos_cos_spec()
    mesh = build_tensor_mesh(UNIT_SQUARE, (1, 1))
    tilde = elliptic_projection(spec, mesh)
    assert tilde.values[0] == pytest.approx(0.0, abs=1e-12)
    # one cell has no interior face, so no flux balance to warn about, even
    # where its one-cell quadrature of int Lap(w) is far from zero
    cos2 = SmoothFunctionSpec(
        fn=lambda x: np.cos(2.0 * np.pi * x[:, 0]),
        laplacian=lambda x: -4.0 * np.pi**2 * np.cos(2.0 * np.pi * x[:, 0]),
        domain=UNIT_SQUARE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tilde = elliptic_projection(cos2, mesh)
    assert tilde.values[0] == integral(mesh, cell_average(cos2.fn, mesh).values)


def test_centered_projection_first_order_rate():
    spec = _mixed_mode_spec()
    mesh = build_tensor_mesh(UNIT_SQUARE, (8, 8))
    pairs = []
    for _ in range(4):
        hat = centered_projection(spec.fn, mesh)
        pairs.append((mesh.size_h,
                      l2_error_vs_function(mesh, hat.values, spec.fn)))
        mesh = refine(mesh)
    slope, _, _ = fit_rate(pairs)
    assert slope >= 0.9


def test_projection_error_report_windows():
    spec = _mixed_mode_spec()
    meshes = [build_tensor_mesh(UNIT_SQUARE, (8, 8))]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    report = projection_error_report(spec, meshes)
    for key, slope in report.slopes.items():
        assert 0.9 <= slope <= 2.2, (key, slope)
    assert all(r <= 1e-11 for r in report.residuals)
    assert all(d <= 1e-12 for d in report.mass_defects)
    # every error column decreases
    for col in (report.elliptic_errors, report.centered_errors,
                report.seminorm_gaps):
        assert all(a > b for a, b in zip(col, col[1:]))


def test_report_assembles_each_level_once(monkeypatch):
    # per level: one TPFA operator, one cell average of Lap(w) and one of w
    spec = cosine_mode_spec()
    counts = {"tpfa": 0, "laplacian": 0, "fn": 0}
    average, tpfa = projections.cell_average, projections.TpfaOperator

    def counted_average(fn, mesh):
        counts[{spec.laplacian: "laplacian", spec.fn: "fn"}[fn]] += 1
        return average(fn, mesh)

    def counted_tpfa(mesh):
        counts["tpfa"] += 1
        return tpfa(mesh)

    monkeypatch.setattr(projections, "cell_average", counted_average)
    monkeypatch.setattr(projections, "TpfaOperator", counted_tpfa)
    meshes = [build_tensor_mesh(spec.domain, (8, 8))]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    projection_error_report(spec, meshes)
    assert counts == {"tpfa": 4, "laplacian": 4, "fn": 4}


def test_projection_error_report_needs_three_levels():
    spec = _mixed_mode_spec()
    meshes = [build_tensor_mesh(UNIT_SQUARE, (4, 4)),
              build_tensor_mesh(UNIT_SQUARE, (8, 8))]
    with pytest.raises(ValueError):
        projection_error_report(spec, meshes)


def test_projection_error_report_refuses_a_rounding_noise_level():
    # on 2x2 the base-level seminorm gap is ~1e-16, not zero, and its
    # slope would read about -14
    meshes = [build_tensor_mesh(UNIT_SQUARE, (2, 2))]
    for _ in range(2):
        meshes.append(refine(meshes[-1]))
    with pytest.raises(ConfigError, match="zero up to rounding"):
        projection_error_report(cosine_mode_spec(), meshes)


def test_report_third_column_roundoff_for_coinciding_case():
    # the product-cosine case makes |w^ - w~|_{1,h} pure solver noise
    spec = _cos_cos_spec()
    mesh = build_tensor_mesh(UNIT_SQUARE, (8, 8))
    tilde = elliptic_projection(spec, mesh)
    hat = centered_projection(spec.fn, mesh)
    gap = np.sqrt(h1_seminorm_sq(mesh, hat.values - tilde.values))
    assert gap < 1e-8


def test_projection_that_misses_the_flux_balance_is_a_solver_error(
        monkeypatch):
    solve = projections.grounded_solve
    monkeypatch.setattr(projections, "grounded_solve",
                        lambda op, b: 1.001 * solve(op, b))
    mesh = build_tensor_mesh(UNIT_SQUARE, (8, 8))
    with pytest.raises(SolverError, match="^projection residual .* exceeds"):
        elliptic_projection(_cos_cos_spec(), mesh)
