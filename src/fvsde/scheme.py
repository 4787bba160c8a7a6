"""Semi-implicit Euler / two-point flux time stepper.

Per step, given the previous cell vector u^{n-1} and the Brownian increment
dW_n, the new vector u^n solves, for every control volume K,

    m_K (u_K - u_K^{n-1})
      + tau * sum_{sigma in E_K^int} m_sigma v_{K,sigma} f(u_sigma)
      + tau * sum_{sigma in E_K^int} (m_sigma / d_KL) (u_K - u_L)
      = m_K g(u_K^{n-1}) dW_n + tau m_K beta(u_K),

with u_sigma the upstream value (u_K when v_{K,sigma} >= 0, else u_L).  The
noise coefficient is explicit, everything else implicit.

StepWorkspace.advance takes one step of one path, or of a block of paths,
in one Newton loop.  The Jacobian J is one formula: the sum of three
summands with fixed entries (the diagonal m (1 - tau beta'(u)), the
two-point flux stiffness tau A and the upwind convection scaled by f'(u) of
each entry's column); only the diagonal and the convection depend on the
state.  Which solver runs is decided once per workspace, from the regime
ProblemSpec derives from its coefficients.  For affine f and beta (the
rate-study presets) J is constant and factorized once by SuperLU, and the
step solves J u = m (u^{n-1} + g(u^{n-1}) dW_n) directly: Newton's first
iterate.  The true residual (with f, beta, g) is then checked, and Newton
continues on the same factorization while it is above tolerance, as for a
coefficient that is affine on the samples only.  Other coefficients run
Newton from u^{n-1}, and each iteration adds the state-dependent summands
into LAPACK band storage and takes a banded LU with partial pivoting
(dgbtrf, cost O(n b^2) for half-bandwidth b) and a single-column dgbtrs.
On a block of k paths, each iteration shares one residual evaluation and
one summand evaluation on the (k, n) block; a path that meets its
tolerance is frozen, and every other path takes its own solve.  So a
path's iterates, iteration count and residuals do not depend on the block
it runs in.  Every solve has one right-hand side: with several, the BLAS
kernels behind SuperLU can change a column's bits with the number of
columns.

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
    convection), which the residual and the Jacobian share, the constant
    summand tau A, and the row and column of every stored entry of the
    Jacobian's state-dependent summands.  Building it warns when
    tau * problem.lipschitz_beta exceeds STABILITY_MARGIN and picks the
    solver from problem.affine: one reusable SuperLU factorization of the
    constant Jacobian (`lu`), or, with `lu` None, a banded LU per path and
    Newton iteration.  The band is filled in one reused buffer from a
    stored copy of the tau A band plus the state-dependent summands at
    fixed positions, with no sparse-matrix construction.  Monte Carlo
    drivers build a workspace per level once and push many paths through
    it.
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
        # the constant summand of the Jacobian; the state-dependent ones, the
        # diagonal and then the convection, are stored by row and column
        self._tau_a = self.tau * self.stiffness
        cells = np.arange(n)
        self._entries = [(cells, cells)]
        self.conv = None
        if edge_vel is not None and np.any(edge_vel.values != 0.0):
            self.conv = ops.convection_matrix(edge_vel, self.tau)
            coo = self.conv.tocoo()
            self._entries.append((coo.row, coo.col))
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
            tau_a = self._tau_a.tocoo()
            entries = [(i.astype(np.int64), j.astype(np.int64)) for i, j in
                       self._entries + [(tau_a.row, tau_a.col)]]
            self._half_band = b = max(int(np.max(np.abs(i - j), initial=0))
                                      for i, j in entries)
            *self._band_pos, tau_a_pos = [j * (3 * b + 1) + 2 * b + i - j
                                          for i, j in entries]
            # adding the diagonal to tau A gives the bits of tau A added to
            # the diagonal: the summands commute, and convection comes last
            self._tau_a_band = np.zeros(n * (3 * b + 1))
            self._tau_a_band[tau_a_pos] += tau_a.data
            self._band = np.empty_like(self._tau_a_band)

    def residual(self, candidate: np.ndarray, previous: np.ndarray,
                 d_w: float) -> np.ndarray:
        """Per-cell residual of the implicit system at a candidate state."""
        return self._implicit(candidate) - self._explicit(previous, d_w)

    def _explicit(self, previous: np.ndarray, d_w) -> np.ndarray:
        """The step's right-hand side m (u^{n-1} + g(u^{n-1}) dW); a (k, n)
        block takes d_w of shape (k, 1)."""
        return self.m * (previous + np.asarray(self.problem.g(previous)) * d_w)

    def _implicit(self, candidate: np.ndarray) -> np.ndarray:
        """The implicit part m u + tau A u + tau div(v f(u)) - tau m beta(u)
        of each row: the residual is _implicit - _explicit.  A (k, n) block
        is multiplied as (n, k) columns, each summed in the order of one
        vector's product."""
        p = self.problem
        r = candidate * self.m + self.tau * (self.stiffness @ candidate.T).T
        if self.conv is not None:
            r += (self.conv @ np.asarray(p.f(candidate)).T).T
        r -= self.tau * self.m * np.asarray(p.beta(candidate))
        return r

    def _summands(self, candidate: np.ndarray) -> list[np.ndarray]:
        """The values of the Jacobian's state-dependent summands at a
        candidate state (one row per state of a block), in summation order:
        diag(m (1 - tau beta'(u))), then conv diag(f'(u)) when there is
        convection.  The constant tau A is added between them."""
        p = self.problem
        values = [self.m * (1.0 - self.tau * np.asarray(p.beta_prime(candidate)))]
        if self.conv is not None:
            # conv @ diag(f'(u)), by scaling each stored entry by its column
            values.append(self.conv.data * np.asarray(
                p.f_prime(candidate))[..., self.conv.indices])
        return values

    def jacobian(self, candidate: np.ndarray) -> sp.csr_matrix:
        """The Jacobian of the residual at a candidate state, in CSR."""
        n = self.mesh.n_cells
        diagonal, *convection = (
            sp.csr_matrix((values, entries), shape=(n, n)) for values, entries
            in zip(self._summands(candidate), self._entries))
        return sum(convection, diagonal + self._tau_a)

    def _band_solve(self, varying: list[np.ndarray],
                    rhs: np.ndarray) -> np.ndarray:
        """Solve J x = rhs by a banded LU with partial pivoting, for the
        state-dependent summands of one state (`_summands(u)`)."""
        b = self._half_band
        band = self._band
        np.copyto(band, self._tau_a_band)
        for pos, values in zip(self._band_pos, varying):
            band[pos] += values
        lu, piv, info = dgbtrf(band.reshape(-1, 3 * b + 1).T, b, b,
                               overwrite_ab=True)
        if info > 0:
            raise SolverError("singular Jacobian")
        return dgbtrs(lu, b, b, rhs, piv, overwrite_b=True)[0]

    def advance(self, previous: np.ndarray, d_w,
                params: StepperParams) -> tuple:
        """One implicit step of one path or of a block of paths.

        An (n,) state with a scalar d_w returns (state, Newton iterations,
        residual norm); a (k, n) block with (k, 1) increments returns (k, n)
        states and (k,) iterations and norms, each row's arithmetic that of
        advance on it alone.  With a constant Jacobian the first iterate is
        the direct solve of J u = m (u^{n-1} + g(u^{n-1}) dW) and counts as
        one iteration; the true residual decides whether Newton continues.
        A row that meets its tolerance is frozen; every other row takes its
        own solve.  Raises StepFailure, with the residual of the first such
        row, when a row misses the tolerance within the iteration budget.
        """
        block = previous.ndim == 2
        if block:
            # one vector norm per row: a (k, n) @ (n,) product may sum in
            # another order
            scale = np.sqrt([ops.l2_norm_sq(self.mesh, p) for p in previous])
        else:
            scale = np.sqrt(ops.l2_norm_sq(self.mesh, previous))
        tol = params.newton_tol * np.maximum(1.0, scale)
        max_it = params.max_newton_iterations
        rhs = self._explicit(previous, d_w)
        if self.lu is not None and max_it >= 1:
            u, first = (np.reshape([self.lu.solve(b) for b in rhs], rhs.shape)
                        if block else self.lu.solve(rhs)), 1
        else:
            u, first = previous.copy(), 0
        iterations = np.full(len(u), first) if block else first
        for it in range(first, max_it + 1):
            r = self._implicit(u) - rhs
            rnorm = np.sqrt(np.sum(r * r / self.m, axis=-1))
            done = rnorm <= tol
            if done.all() if block else done:
                return ((u, iterations, rnorm) if block
                        else (u, int(iterations), float(rnorm)))
            if not np.isfinite(rnorm).all():
                raise SolverError("singular Jacobian (non-finite state)")
            if it == max_it:
                raise _stalled(float(np.extract(~done, rnorm)[0]), max_it)
            iterations += ~done
            varying = None if self.lu is not None else self._summands(u)
            # a block's rows in turn; [...] indexes one path's whole state
            for i in range(len(u)) if block else [...]:
                if not done[i]:
                    u[i] += (self.lu.solve(-r[i]) if varying is None else
                             self._band_solve([v[i] for v in varying], -r[i]))


def _stalled(rnorm: float, max_it: int) -> StepFailure:
    return StepFailure(f"Newton stalled at residual {rnorm:.3e} after "
                       f"{max_it} iterations", residual=rnorm)


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
                        rows: np.ndarray | None = None) -> tuple:
    """The time-stepping loop: drive whole trajectories through one
    prebuilt workspace.

    Returns (states[rows], per-step Newton iterations, per-step residual
    norms).  `rows` is a strictly increasing array of step indices in
    [0, N]; only those states are stored, so a caller that reads a few time
    levels holds a few rows instead of all N + 1.  None keeps every state.

    increments of shape (N,) drive one path and return states of shape
    (len(rows), n) with the iterations and norms as lists.  A (k, N) batch
    of paths returns states (k, len(rows), n) and (k, N) arrays; one path
    steps an (n,) state, and two or more step together as one step-major
    block.  A path's results do not depend on the batch.
    """
    increments = np.asarray(increments, dtype=float)
    n_steps = increments.shape[-1]
    if rows is None:
        rows = np.arange(n_steps + 1)
    rows = np.asarray(rows)
    if (rows.ndim != 1 or rows.dtype.kind not in "iu"
            or np.any(rows[1:] <= rows[:-1])
            or rows.size and not 0 <= rows[0] <= rows[-1] <= n_steps):
        raise ValueError(f"rows must be strictly increasing step indices in "
                         f"[0, {n_steps}], got {rows!r}")
    u0 = np.asarray(u0_values, dtype=float)
    paths = np.atleast_2d(increments)
    k = len(paths)
    states = np.empty((k, len(rows), len(u0)))
    if k == 1:
        iterations, residuals = _march(ws, u0, paths[0], params, rows,
                                       states[0])
    else:
        # step-major: (N, k, 1) increments, states written through a
        # (len(rows), k, n) view
        iterations, residuals = _march(ws, np.tile(u0, (k, 1)),
                                       paths.T[:, :, None], params, rows,
                                       states.swapaxes(0, 1))
    if increments.ndim == 1:
        return states[0], iterations, residuals
    return (states, np.reshape(iterations, (n_steps, k)).T,
            np.reshape(residuals, (n_steps, k)).T)


def _march(ws: StepWorkspace, u: np.ndarray, increments: np.ndarray,
           params: StepperParams, rows: np.ndarray,
           states: np.ndarray) -> tuple[list, list]:
    """Step u through the increments, writing the kept rows into states;
    returns the per-step Newton iterations and residual norms."""
    kept = 0
    if rows.size and rows[0] == 0:
        states[0] = u
        kept = 1
    iterations: list = []
    residuals: list = []
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
    return iterations, residuals


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
