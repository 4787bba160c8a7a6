"""Problem presets used by the studies and the CLI.

Every preset satisfies the standing assumptions: f non-decreasing with
f(0) = 0, beta(0) = 0, smooth g, and a divergence-free velocity tangential
on the boundary of the unit box.  The stream-function velocity is

    v = curl(psi),  psi = sin(pi x1) sin(pi x2) / pi,

that is v = (sin(pi x1) cos(pi x2), -cos(pi x1) sin(pi x2)).

The default stochastic preset carries a unit background state on top of the
product-cosine mode; the background keeps the coupled time-refinement
comparison in the noise-dominated regime where the strong order 1/2 of the
explicit noise term is observable at desk-scale step counts (the pure cosine
datum decays so fast that the deterministic semigroup gap dominates).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import ConfigError
from .scheme import ProblemSpec

__all__ = ["PRESETS", "get_preset", "closed_form_heat_reference",
           "stream_velocity", "UNIT_SQUARE", "UNIT_CUBE"]

UNIT_SQUARE = ((0.0, 1.0), (0.0, 1.0))
UNIT_CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def _identity(u):
    return np.asarray(u, dtype=float)


def _one(u):
    return np.ones_like(np.asarray(u, dtype=float))


def _zero(u):
    return np.zeros_like(np.asarray(u, dtype=float))


def _cos_product(x):
    return np.prod(np.cos(np.pi * x), axis=-1)


def _lifted_cos_product(x):
    return 1.0 + 0.5 * _cos_product(x)


def closed_form_heat_reference(x: np.ndarray, t: float) -> np.ndarray:
    """Neumann heat solution on the unit box for the product-cosine datum:
    u(t, x) = exp(-d pi^2 t) prod_i cos(pi x_i)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    return math.exp(-d * math.pi**2 * t) * _cos_product(x)


def stream_velocity(t: float, x: np.ndarray) -> np.ndarray:
    """Divergence-free 2D field, tangential on the unit square boundary."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    s1, c1 = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
    s2, c2 = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
    out[:, 0] = s1 * c2
    out[:, 1] = -c1 * s2
    return out


def heat_preset(dimension: int = 2) -> ProblemSpec:
    """Deterministic heat flow (v = 0, g = 0, beta = 0) with closed form."""
    return ProblemSpec(
        name=f"heat{dimension}d",
        domain=UNIT_SQUARE if dimension == 2 else UNIT_CUBE,
        horizon=0.1,
        u0=_cos_product,
        f=_identity, f_prime=_one,
        beta=_zero, beta_prime=_zero,
        g=_zero,
        velocity=None,
        exact_solution=closed_form_heat_reference,
    )


def _beta_linear(u):
    return 0.2 * np.asarray(u, dtype=float)


def _beta_linear_prime(u):
    return np.full_like(np.asarray(u, dtype=float), 0.2)


def _g_multiplicative(u):
    return 0.5 * np.asarray(u, dtype=float)


def stochastic_preset() -> ProblemSpec:
    """Default multiplicative-noise preset: f = id, beta = 0.2u, g = 0.5u,
    stream velocity, lifted cosine datum."""
    return ProblemSpec(
        name="stochastic",
        domain=UNIT_SQUARE,
        horizon=0.25,
        u0=_lifted_cos_product,
        f=_identity, f_prime=_one,
        beta=_beta_linear, beta_prime=_beta_linear_prime,
        g=_g_multiplicative,
        velocity=stream_velocity,
    )


def _g_const_half(u):
    return np.full_like(np.asarray(u, dtype=float), 0.5)


def _lifted_first_mode(x):
    return 1.0 + 0.5 * np.cos(np.pi * np.asarray(x, dtype=float)[..., 0])


def _f_tanh(u):
    return np.tanh(np.asarray(u, dtype=float))


def _f_tanh_prime(u):
    return 1.0 / np.cosh(np.asarray(u, dtype=float)) ** 2


def _beta_sin(u):
    return 0.3 * np.sin(np.asarray(u, dtype=float))


def _beta_sin_prime(u):
    return 0.3 * np.cos(np.asarray(u, dtype=float))


def _g_sin(u):
    return 0.5 * np.sin(np.asarray(u, dtype=float))


PRESETS: dict[str, Callable[[], ProblemSpec]] = {
    "heat2d": lambda: heat_preset(2),
    "heat3d": lambda: heat_preset(3),
    "stochastic": stochastic_preset,
    # g identically 0.5, beta = 0: the mass of u_h is an exact martingale
    "additive": lambda: replace(
        stochastic_preset(), name="additive", beta=_zero, beta_prime=_zero,
        g=_g_const_half),
    # deterministic upwind convection-diffusion (g = 0, beta = 0, f = id)
    "convection": lambda: replace(
        stochastic_preset(), name="convection", beta=_zero, beta_prime=_zero,
        g=_zero),
    # Only the first Neumann mode, u0 = 1 + 0.5 cos(pi x1).  Its slow decay
    # rate pi^2 keeps squared time increments of the discrete gradient
    # noise-dominated (hence linear in |t - s|) at step sizes a fine
    # trajectory can actually reach; the product-cosine mode of the default
    # preset decays at 2 pi^2 and its transient drift would pollute the
    # increments quadratically.
    "lowmode": lambda: replace(stochastic_preset(), name="lowmode",
                               u0=_lifted_first_mode),
    # pure diffusion from the product-cosine datum (energy identity is exact)
    "diffusion": lambda: replace(heat_preset(2), name="diffusion"),
    # genuinely nonlinear f and beta; exercises the full Newton path
    "nonlinear": lambda: replace(
        stochastic_preset(), name="nonlinear", f=_f_tanh,
        f_prime=_f_tanh_prime, beta=_beta_sin, beta_prime=_beta_sin_prime,
        g=_g_sin),
}


def get_preset(name: str) -> ProblemSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
    return factory()
