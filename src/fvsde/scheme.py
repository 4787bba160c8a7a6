"""Semi-implicit Euler / two-point flux time stepper.

Per step, given the previous cell vector u^{n-1} and the Brownian increment
dW_n, the new vector u^n solves, for every control volume K,

    m_K (u_K - u_K^{n-1})
      + tau * sum_{sigma in E_K^int} m_sigma v_{K,sigma} f(u_sigma)
      + tau * sum_{sigma in E_K^int} (m_sigma / d_KL) (u_K - u_L)
      = m_K g(u_K^{n-1}) dW_n + tau m_K beta(u_K),

with u_sigma the upstream value (u_K when v_{K,sigma} >= 0, else u_L).  The
noise coefficient is explicit, everything else implicit.

StepWorkspace.advance takes one step of one path.  The Jacobian J is one
formula: the sum of three summands with fixed entries (the diagonal
m (1 - tau beta'(u)), the two-point flux stiffness tau A and the upwind
convection scaled by f'(u) of each entry's column); only their values depend
on the state.  Which solver runs is decided once per workspace, from the
regime ProblemSpec derives from its coefficients.  For affine f and beta
(the rate-study presets) J is constant and factorized once by SuperLU, and
the step solves J u = m (u^{n-1} + g(u^{n-1}) dW_n) directly: Newton's
first iterate.  The true residual (with f, beta, g) is then checked, and
Newton continues on the same factorization while it is above tolerance, as
for a coefficient that is affine on the samples only.  Other coefficients
run Newton with the three summands added at every iterate straight into
band storage and factorized by LAPACK's banded LU with partial pivoting
(dgbtrf/dgbtrs), whose cost is O(n b^2) for half-bandwidth b.  Every solve
has one right-hand side: with several, the BLAS kernels behind SuperLU can
change a column's bits with the number of columns.

The velocity is time-independent: one workspace per (mesh, tau) holds its
edge average, evaluated once on (0, tau], and integrate_workspace steps
every path through it in one loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from . import discrete_ops as ops
from .discrete_ops import EdgeVelocity, TpfaOperator
from .errors import CouplingError, SolverError, StabilityWarning, StepFailure
from .fields import CellField
from .mesh import TensorMesh, cell_average
from .noise import NoisePath, TimeGrid, coarsen

__all__ = [
    "ProblemSpec",
    "StepperParams",
    "StepWorkspace",
    "Trajectory",
    "run_path",
    "build_workspace",
    "integrate_workspace",
    "trajectory_mass_defects",
    "energy_balance_defects",
]

_MONOTONE_SAMPLES = np.linspace(-5.0, 5.0, 201)

# tau * L_beta above this margin triggers a StabilityWarning (solvability of
# the implicit reaction term).
STABILITY_MARGIN = 0.5


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Data tuple (u0, f, beta, g, v, T) and the regime it puts the scheme in.

    Coefficients are vectorized over numpy arrays; `velocity(t, x)` maps
    (n, d) points to (n, d) time-independent, divergence-free velocities,
    tangential on the boundary.  The regime is derived on _MONOTONE_SAMPLES
    and re-derived by `replace`: `affine` (f', beta' constant, so J is
    constant), `lipschitz_beta` (max |beta'|, for the StabilityWarning) and
    `noise_factorizes` (affine with g(u) = g(1) u: a path is the noise-free
    one times prod(1 + g(1) dW_k)).
    """

    name: str
    domain: tuple[tuple[float, float], ...]
    horizon: float
    u0: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    beta_prime: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[float, np.ndarray], np.ndarray] | None = None
    exact_solution: Callable[[np.ndarray, float], np.ndarray] | None = None
    affine: bool = field(init=False)
    lipschitz_beta: float = field(init=False)
    noise_factorizes: bool = field(init=False)

    def __post_init__(self):
        for name, fn in (("f", self.f), ("beta", self.beta)):
            if abs(float(fn(np.zeros(1))[0])) > 1e-12:
                raise ValueError(f"{self.name}: {name}(0) must vanish")
        s = _MONOTONE_SAMPLES
        if np.any(np.diff(np.asarray(self.f(s), dtype=float)) < -1e-12):
            raise ValueError(f"{self.name}: f is not non-decreasing on samples")
        bp = np.asarray(self.beta_prime(s), dtype=float)
        affine = bool(np.ptp(self.f_prime(s)) == 0.0 and np.ptp(bp) == 0.0)
        object.__setattr__(self, "affine", affine)
        object.__setattr__(self, "lipschitz_beta", float(np.max(np.abs(bp))))
        object.__setattr__(self, "noise_factorizes", affine and np.array_equal(
            self.g(s), self.g(np.ones(1)) * s))


@dataclass(frozen=True)
class StepperParams:
    """Newton settings.

    The residual norm is sqrt(sum_K R_K^2 / m_K), compared against
    newton_tol * max(1, ||u^{n-1}||_2).  For affine
    f and beta the direct solve counts as the first iteration, and
    max_newton_iterations = 0 only checks the residual at u^{n-1}.
    """

    newton_tol: float = 1e-11
    max_newton_iterations: int = 30

    def __post_init__(self):
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError(f"newton_tol must be finite and positive, got "
                             f"{self.newton_tol!r}")
        if not self.max_newton_iterations >= 0:
            raise ValueError(f"max_newton_iterations must be >= 0, got "
                             f"{self.max_newton_iterations!r}")


@dataclass(eq=False)
class Trajectory:
    """One realized discrete path u_h^0 .. u_h^N with per-step solver data."""

    mesh: TensorMesh
    grid: TimeGrid
    states: np.ndarray                  # (N+1, n_cells)
    newton_iterations: list[int]
    residual_norms: list[float]
    increments: np.ndarray              # the driving dW_n actually used

    def field(self, n: int) -> CellField:
        return CellField(self.mesh, self.states[n])


class StepWorkspace:
    """Precomputed per-(mesh, tau, edge velocity) assembly data.

    Holds the mass vector, the assembled stiffness and one sparse upwind
    convection matrix (`discrete_ops.convection_matrix`, or None without
    convection), which the residual and the Jacobian share, and the row and
    column of every stored entry of the Jacobian's summands.  Building it
    warns when tau * problem.lipschitz_beta exceeds STABILITY_MARGIN and
    picks the solver from problem.affine: one reusable SuperLU factorization
    of the constant Jacobian (`lu`), or, with `lu` None, a banded LU of the
    summands' values added at fixed positions into LAPACK band storage at
    every Newton iteration, with no sparse-matrix construction.  Monte Carlo
    drivers build a workspace per level once and push many paths through it.
    """

    def __init__(self, problem: ProblemSpec, mesh: TensorMesh, tau: float,
                 edge_vel: EdgeVelocity | None, tpfa: TpfaOperator | None = None):
        self.problem = problem
        self.mesh = mesh
        self.tau = float(tau)
        if self.tau * problem.lipschitz_beta > STABILITY_MARGIN:
            warnings.warn(
                f"tau * L_beta = {self.tau * problem.lipschitz_beta:.3g} "
                f"exceeds {STABILITY_MARGIN}; the implicit reaction solve may "
                f"lose its contraction margin", StabilityWarning, stacklevel=2)
        self.tpfa = tpfa if tpfa is not None else TpfaOperator(mesh)
        self.m = mesh.measures
        self.stiffness = self.tpfa.stiffness
        n = mesh.n_cells
        self.conv = None
        if edge_vel is not None and np.any(edge_vel.values != 0.0):
            self.conv = ops.convection_matrix(edge_vel, self.tau)
        cells = np.arange(n)
        self._entries = [(cells, cells)] + [
            (coo.row, coo.col) for coo in
            (a.tocoo() for a in (self.stiffness, self.conv) if a is not None)]
        if problem.affine:
            try:
                self.lu = splu(self.jacobian(np.zeros(n)).tocsc())
            except RuntimeError as exc:
                raise SolverError(f"Jacobian factorization failed: {exc}") from exc
        else:
            # Entry (i, j) goes to row 2b + i - j, column j of the
            # (3b + 1, n) band array; dgbtrf fills the top b rows.  The
            # flat positions outgrow int32 on large 3-D meshes.
            self.lu = None
            entries = [(i.astype(np.int64), j.astype(np.int64))
                       for i, j in self._entries]
            self._half_band = b = max(int(np.max(np.abs(i - j), initial=0))
                                      for i, j in entries)
            self._band_pos = [j * (3 * b + 1) + 2 * b + i - j
                              for i, j in entries]

    def residual(self, candidate: np.ndarray, previous: np.ndarray,
                 d_w: float) -> np.ndarray:
        """Per-cell residual of the implicit system at a candidate state."""
        return self._implicit(candidate) - self._explicit(previous, d_w)

    def _explicit(self, previous: np.ndarray, d_w: float) -> np.ndarray:
        """The step's right-hand side m (u^{n-1} + g(u^{n-1}) dW)."""
        return self.m * (previous + np.asarray(self.problem.g(previous)) * d_w)

    def _implicit(self, candidate: np.ndarray) -> np.ndarray:
        """The implicit part m u + tau A u + tau div(v f(u)) - tau m beta(u):
        the residual is _implicit - _explicit."""
        p = self.problem
        r = candidate * self.m + self.tau * (self.stiffness @ candidate)
        if self.conv is not None:
            r += self.conv @ np.asarray(p.f(candidate))
        r -= self.tau * self.m * np.asarray(p.beta(candidate))
        return r

    def _summands(self, candidate: np.ndarray) -> list[np.ndarray]:
        """The values of the Jacobian's summands at a candidate state, in
        summation order: diag(m (1 - tau beta'(u))), tau A, conv diag(f'(u))."""
        p = self.problem
        values = [self.m * (1.0 - self.tau * np.asarray(p.beta_prime(candidate))),
                  self.tau * self.stiffness.data]
        if self.conv is not None:
            # conv @ diag(f'(u)), by scaling each stored entry by its column
            values.append(self.conv.data
                          * np.asarray(p.f_prime(candidate))[self.conv.indices])
        return values

    def jacobian(self, candidate: np.ndarray) -> sp.csr_matrix:
        """The Jacobian of the residual at a candidate state, in CSR."""
        n = self.mesh.n_cells
        first, *rest = (sp.csr_matrix((values, entries), shape=(n, n))
                        for values, entries in zip(self._summands(candidate),
                                                   self._entries))
        return sum(rest, first)

    def _solve(self, candidate: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve J(candidate) x = rhs: on the SuperLU factorization of the
        constant Jacobian, or by a banded LU of the one at the candidate."""
        if self.lu is not None:
            return self.lu.solve(rhs)
        return self._band_solve(candidate, rhs)

    def _band_solve(self, candidate: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
        """Solve J(candidate) x = rhs by a banded LU with partial pivoting."""
        b = self._half_band
        n = self.mesh.n_cells
        band = np.zeros(n * (3 * b + 1))
        for pos, values in zip(self._band_pos, self._summands(candidate)):
            band[pos] += values
        lu, piv, info = dgbtrf(band.reshape(n, 3 * b + 1).T, b, b,
                               overwrite_ab=True)
        if info > 0:
            raise SolverError("singular Jacobian")
        return dgbtrs(lu, b, b, rhs, piv, overwrite_b=True)[0]

    def advance(self, previous: np.ndarray, d_w: float,
                params: StepperParams) -> tuple[np.ndarray, int, float]:
        """One implicit step; returns (state, Newton iterations, residual norm).

        With a constant Jacobian the first iterate is the direct solve of
        J u = m (u^{n-1} + g(u^{n-1}) dW) and counts as one iteration; the
        true residual decides whether Newton continues.  Raises StepFailure
        when the tolerance is missed within the iteration budget.
        """
        scale = max(1.0, float(np.sqrt(ops.l2_norm_sq(self.mesh, previous))))
        tol = params.newton_tol * scale
        max_it = params.max_newton_iterations
        rhs = self._explicit(previous, d_w)
        if self.lu is not None and max_it >= 1:
            u, first = self.lu.solve(rhs), 1
        else:
            u, first = previous.copy(), 0
        for it in range(first, max_it + 1):
            r = self._implicit(u) - rhs
            rnorm = float(np.sqrt(np.sum(r * r / self.m)))
            if not np.isfinite(rnorm):
                raise SolverError("singular Jacobian (non-finite state)")
            if rnorm <= tol:
                return u, it, rnorm
            if it == max_it:
                raise StepFailure(
                    f"Newton stalled at residual {rnorm:.3e} after {max_it} "
                    f"iterations", residual=rnorm)
            u = u + self._solve(u, -r)


def run_path(problem: ProblemSpec, mesh: TensorMesh, grid: TimeGrid,
             path: NoisePath, params: StepperParams | None = None) -> Trajectory:
    """Run the scheme over the whole grid with one Brownian path.

    The path's fine increments are block-summed onto the grid (the grid step
    count must divide the path resolution), u_h^0 is the cell average of u0,
    and every step advances by Newton through one workspace built for
    (mesh, grid.tau).  Step failures abort the path and carry the failing
    step index.
    """
    if abs(path.horizon - grid.horizon) > 1e-12 * grid.horizon:
        raise CouplingError(
            f"path horizon {path.horizon!r} differs from grid horizon "
            f"{grid.horizon!r}")
    increments = coarsen(path, grid.n_steps)
    ws = build_workspace(problem, mesh, grid.tau)
    u0 = cell_average(problem.u0, mesh).values
    states, iterations, residuals = integrate_workspace(
        ws, u0, increments, params or StepperParams())
    return Trajectory(mesh, grid, states, iterations, residuals, increments)


def build_workspace(problem: ProblemSpec, mesh: TensorMesh, tau: float,
                    tpfa: TpfaOperator | None = None) -> StepWorkspace:
    """Workspace for every step of size tau on the mesh.

    The velocity is time-independent, so its edge average is evaluated once,
    on (0, tau], and serves every step.
    """
    ev = (None if problem.velocity is None
          else ops.edge_velocity(problem.velocity, mesh, 0.0, tau))
    return StepWorkspace(problem, mesh, tau, ev, tpfa)


def integrate_workspace(ws: StepWorkspace, u0_values: np.ndarray,
                        increments: np.ndarray, params: StepperParams,
                        rows: np.ndarray | None = None,
                        ) -> tuple[np.ndarray, list[int], list[float]]:
    """The time-stepping loop: drive a whole trajectory through one
    prebuilt workspace.

    Returns (states[rows], per-step Newton iterations, per-step residual
    norms).  `rows` is a strictly increasing array of step indices in
    [0, N]; only those states are stored, so a caller that reads a few time
    levels holds a few rows instead of all N + 1.  None keeps every state.
    """
    n_steps = len(increments)
    if rows is None:
        rows = np.arange(n_steps + 1)
    rows = np.asarray(rows)
    if (rows.ndim != 1 or rows.dtype.kind not in "iu"
            or np.any(rows[1:] <= rows[:-1])
            or rows.size and not 0 <= rows[0] <= rows[-1] <= n_steps):
        raise ValueError(f"rows must be strictly increasing step indices in "
                         f"[0, {n_steps}], got {rows!r}")
    states = np.empty((len(rows), len(u0_values)))
    u = np.asarray(u0_values, dtype=float)
    kept = 0
    if rows.size and rows[0] == 0:
        states[0] = u
        kept = 1
    iterations: list[int] = []
    residuals: list[float] = []
    for n, d_w in enumerate(increments, start=1):
        try:
            u, it, rnorm = ws.advance(u, d_w, params)
        except StepFailure as exc:
            raise StepFailure(f"step {n}: {exc}", step=n,
                              residual=exc.residual) from exc
        if kept < len(rows) and rows[kept] == n:
            states[kept] = u
            kept += 1
        iterations.append(it)
        residuals.append(rnorm)
    return states, iterations, residuals


def trajectory_mass_defects(traj: Trajectory, problem: ProblemSpec) -> np.ndarray:
    """Defect of the discrete mass identity at every step.

    Summing the scheme over all cells telescopes the flux terms, leaving
    mass(u^n) = mass(u^0) + sum_k [ dW_k sum_K m_K g(u_K^{k-1})
                                    + tau sum_K m_K beta(u_K^k) ].
    Returns the per-step absolute defect (solver tolerance accumulation).
    """
    mesh = traj.mesh
    masses = ops.integral(mesh, traj.states)
    g_terms = traj.increments * ops.integral(mesh, problem.g(traj.states[:-1]))
    b_terms = traj.grid.tau * ops.integral(mesh, problem.beta(traj.states[1:]))
    predicted = masses[0] + np.cumsum(g_terms + b_terms)
    return np.abs(masses[1:] - predicted)


def energy_balance_defects(traj: Trajectory) -> np.ndarray:
    """LHS - RHS of the per-path energy inequality for noise-free runs.

    With g = 0 and beta = 0, multiplying the scheme by u_K^n and summing gives
    ||u^n||^2 + sum_k (||u^k - u^{k-1}||^2 + 2 tau |u^k|_{1,h}^2) <= ||u^0||^2,
    with equality for pure diffusion (upwinding only adds dissipation).
    Returns the per-step excess; values <= tolerance certify the inequality.
    """
    mesh, states = traj.mesh, traj.states
    norms_sq = ops.l2_norm_sq(mesh, states)
    jumps_sq = ops.l2_norm_sq(mesh, states[1:] - states[:-1])
    semi_sq = ops.h1_seminorm_sq(mesh, states[1:])
    lhs = norms_sq[1:] + np.cumsum(jumps_sq + 2.0 * traj.grid.tau * semi_sq)
    return lhs - norms_sq[0]
