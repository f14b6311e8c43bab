"""Shared small-scale fixtures.

Module tests run on 64-mode grids with short time grids so the whole suite
stays fast; the acceptance tests build their own desk-scale fixtures.
"""

import numpy as np
import pytest

from singular_drift.spectral import GridSpec, SpectralField, TimeField, evaluate, gradient
from singular_drift.drifts import DriftSpec, _power_profile, _unit_phases, generate
from singular_drift.kolmogorov import PdeConfig
from singular_drift.zvonkin import TransformContext


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(1, 64)


@pytest.fixture(scope="session")
def grid64_2d():
    return GridSpec(2, 64)


@pytest.fixture(scope="session")
def rough_drift64():
    """Small-scale certified rough drift: random Fourier, 32 time nodes."""
    spec = DriftSpec(family="random-fourier", seed=42, beta=0.25, eta=0.3,
                     amplitude=0.25)
    grid = GridSpec(1, 64)
    return generate(spec, grid, 1.0, 32)


@pytest.fixture(params=["1d", "2d"])
def march_case(request, rough_drift64):
    """(drift, config): the scalar 1-D fixture and a 2-D vector-valued drift."""
    if request.param == "1d":
        return rough_drift64, PdeConfig(beta=0.25, delta=0.5, p=2.5)
    spec = DriftSpec(family="random-fourier", seed=42, beta=0.25, eta=0.3,
                     amplitude=0.1)
    b = generate(spec, GridSpec(2, 16), 1.0, 16)
    return b, PdeConfig(beta=0.25, delta=0.5, p=4.5)


@pytest.fixture(scope="module")
def sine_ctx():
    """u(t, x) = 0.4 sin(x), constant in time: phi = x + 0.4 sin x, inverted
    to 1e-12."""
    return TransformContext(sine_time_field(GridSpec(1, 64), 0.4, 4), inverse_tol=1e-12)


@pytest.fixture(scope="session")
def sine_field(grid64):
    """sin(x) as a spectral field (exact two-mode representation)."""
    x = grid64.axis_points()
    return SpectralField.from_grid(grid64, np.sin(x)[None])


def single_mode(grid, k, amplitude=1.0, component_count=1):
    """amplitude * exp(i k x) placed directly in the coefficients.

    It has no Hermitian partner, so it is not a real field: use it with
    coefficient operations only, never `values` or `evaluate`."""
    coeffs = np.zeros((component_count,) + grid.spatial_shape, dtype=complex)
    coeffs[(0,) + ((k % grid.modes_per_axis),) * grid.dimension] = amplitude
    return SpectralField(grid, coeffs)


def random_field(grid, eta, seed, band=None):
    """Rough field with the drifts' power profile |k|^-eta (Philox-keyed
    phases), optionally cut to |k| <= band."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = _power_profile(grid, eta) * _unit_phases(rng, grid.spatial_shape)
    if band is not None:
        keep = np.sqrt(grid.kappa_sq()) <= band
        coeffs = coeffs * keep
    return SpectralField(grid, coeffs[None])


def sine_time_field(grid, amplitude, steps, horizon=1.0):
    """Time-constant a*sin(x) drift with `steps` time intervals."""
    x = grid.axis_points()
    node = SpectralField.from_grid(grid, (amplitude * np.sin(x))[None])
    return TimeField.from_nodes([node] * (steps + 1), horizon)


def random_time_field(grid, steps, amplitude, seed, horizon=1.0):
    """Real, time-varying field with one component per axis: every node draws
    its own low-mode cosines, amplitude / |k|^2 each."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*([grid.axis_points()] * grid.dimension), indexing="ij")
    modes = [k for k in np.ndindex(*([5] * grid.dimension)) if any(k)]
    nodes = []
    for _ in range(steps + 1):
        vals = np.zeros((grid.dimension,) + grid.spatial_shape)
        for comp in vals:
            for k in modes:
                phase = sum(kj * xj for kj, xj in zip(k, axes)) + rng.uniform(0, 2 * np.pi)
                comp += amplitude * rng.standard_normal() / np.dot(k, k) * np.cos(phase)
        nodes.append(SpectralField.from_grid(grid, vals))
    return TimeField.from_nodes(nodes, horizon)


def u_gradient_jacobian(ctx, t, x):
    """grad u from the spectral gradient of u(t), formed per call: the
    reference that `zvonkin.transform_jacobian` must match."""
    d = ctx.u.grid.dimension
    return evaluate(gradient(ctx.u.at_time(t)), x).reshape(-1, d, d)
