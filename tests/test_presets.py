import math

import numpy as np
import pytest

from fvsde.presets import PRESETS, get_preset

SQUARE = ((0.0, 1.0), (0.0, 1.0))
CUBE = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
U = np.linspace(-3.0, 3.0, 13)
X2 = np.array([[0.0, 0.0], [0.1, 0.7], [0.25, 0.5], [0.6, 0.3], [1.0, 1.0]])
X3 = np.array([[0.0, 0.0, 0.0], [0.1, 0.7, 0.4], [0.9, 0.2, 0.55],
               [1.0, 1.0, 1.0]])


def _cos_product(x):
    return np.prod(np.cos(np.pi * x), axis=-1)


def _lifted(x):
    return 1.0 + 0.5 * np.prod(np.cos(np.pi * x), axis=-1)


def _first_mode(x):
    return 1.0 + 0.5 * np.cos(np.pi * x[..., 0])


def _stream(t, x):
    s1, c1 = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
    s2, c2 = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
    return np.stack([s1 * c2, -c1 * s2], axis=1)


ZERO = (lambda u: np.zeros_like(u))
LINEAR_F = (lambda u: u, lambda u: np.ones_like(u))
HEAT = dict(horizon=0.1, u0=_cos_product, f=LINEAR_F, beta=(ZERO, ZERO),
            g=ZERO, velocity=None, linear=True, lipschitz_beta=0.0,
            exact=True)
NOISY = dict(horizon=0.25, u0=_lifted, f=LINEAR_F,
             beta=(lambda u: 0.2 * u, lambda u: np.full_like(u, 0.2)),
             g=lambda u: 0.5 * u, velocity=_stream, linear=True,
             lipschitz_beta=0.2, exact=False)

EXPECTED = {
    "heat2d": dict(HEAT, domain=SQUARE),
    "heat3d": dict(HEAT, domain=CUBE),
    "diffusion": dict(HEAT, domain=SQUARE),
    "stochastic": dict(NOISY, domain=SQUARE),
    "additive": dict(NOISY, domain=SQUARE, beta=(ZERO, ZERO),
                     g=lambda u: np.full_like(u, 0.5), lipschitz_beta=0.0),
    "convection": dict(NOISY, domain=SQUARE, beta=(ZERO, ZERO), g=ZERO,
                       lipschitz_beta=0.0),
    "lowmode": dict(NOISY, domain=SQUARE, u0=_first_mode),
    "nonlinear": dict(
        NOISY, domain=SQUARE,
        f=(np.tanh, lambda u: 1.0 / np.cosh(u) ** 2),
        beta=(lambda u: 0.3 * np.sin(u), lambda u: 0.3 * np.cos(u)),
        g=lambda u: 0.5 * np.sin(u), linear=False, lipschitz_beta=0.3),
}


def test_expected_table_covers_every_preset():
    assert sorted(EXPECTED) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_preset_matches_written_out_formulas(name):
    spec, want = get_preset(name), EXPECTED[name]
    assert spec.name == name
    assert spec.domain == want["domain"]
    assert spec.horizon == want["horizon"]
    assert spec.affine is want["linear"]
    assert spec.lipschitz_beta == want["lipschitz_beta"]
    x = X2 if len(spec.domain) == 2 else X3
    assert np.array_equal(spec.u0(x), want["u0"](x))
    for got, ref in ((spec.f, want["f"][0]), (spec.f_prime, want["f"][1]),
                     (spec.beta, want["beta"][0]),
                     (spec.beta_prime, want["beta"][1]), (spec.g, want["g"])):
        assert np.array_equal(got(U), ref(U))
    if want["velocity"] is None:
        assert spec.velocity is None
    else:
        assert np.array_equal(spec.velocity(0.1, x), want["velocity"](0.1, x))
    if want["exact"]:
        d = len(spec.domain)
        assert np.array_equal(spec.exact_solution(x, 0.05),
                              math.exp(-d * math.pi**2 * 0.05) * _cos_product(x))
    else:
        assert spec.exact_solution is None
