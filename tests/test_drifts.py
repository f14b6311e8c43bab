"""Drift generators, the admissibility window, and exponent selection."""

import math

import numpy as np
import pytest

from singular_drift.spectral import SobolevIndex, sobolev_norm
from singular_drift.drifts import (
    AssumptionViolated,
    DriftSpec,
    EmptyRegion,
    InvalidSpec,
    KappaRegion,
    assumption_check,
    generate,
    mollified_sequence,
    pick_kappa,
)


# --- spec validation ---------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"family": "white-noise"},
    {"beta": 0.0},
    {"beta": 0.5},
    {"eta": -1.0},
    {"amplitude": -0.1},
    {"seed": -3},
    {"seed": 1.5},
    {"changes": -1},
    {"changes": 0.5},
    {"changes": 1.5},
    {"eta": math.inf},
    {"eta": math.nan},
    {"amplitude": math.inf},
    {"amplitude": math.nan},
])
def test_drift_spec_rejects_bad_parameters(kwargs):
    base = {"family": "random-fourier", "seed": 1, "beta": 0.25}
    base.update(kwargs)
    with pytest.raises(InvalidSpec):
        DriftSpec(**base)


def test_drift_spec_roundtrip():
    spec = DriftSpec(family="smooth-test", seed=4, beta=0.3, amplitude=0.7)
    assert DriftSpec.from_dict(spec.to_dict()) == spec


def test_drift_spec_rejects_time_dependence_key():
    # the number of change points alone says static (0) or piecewise (>= 1)
    d = DriftSpec(family="smooth-test", seed=4, beta=0.3).to_dict()
    d["time_dependence"] = "static"
    with pytest.raises(TypeError, match="time_dependence"):
        DriftSpec.from_dict(d)


# --- generation --------------------------------------------------------------------


def test_generate_is_deterministic(grid64):
    spec = DriftSpec(family="random-fourier", seed=9, beta=0.25, eta=0.3)
    a = generate(spec, grid64, 1.0, 8)
    b = generate(spec, grid64, 1.0, 8)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = generate(DriftSpec(family="random-fourier", seed=10, beta=0.25, eta=0.3),
                 grid64, 1.0, 8)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_generate_validates_steps(grid64):
    spec = DriftSpec(family="smooth-test", seed=1, beta=0.25)
    with pytest.raises(InvalidSpec):
        generate(spec, grid64, 1.0, 0)


def test_random_fourier_power_profile(grid64):
    spec = DriftSpec(family="random-fourier", seed=2, beta=0.25, eta=0.4,
                     amplitude=0.8)
    b = generate(spec, grid64, 1.0, 2)
    c = b.node(0).coeffs[0]
    kappa = np.abs(grid64.kappa_axis())
    nz = kappa > 0
    assert np.max(np.abs(np.abs(c[nz]) * kappa[nz] ** 0.4 - 0.8)) < 1e-12
    assert c[0] == 0.0
    b.node(0).values()                 # real on the grid


def test_smooth_test_closed_form(grid64):
    spec = DriftSpec(family="smooth-test", seed=1, beta=0.25, amplitude=0.2)
    b = generate(spec, grid64, 1.0, 2)
    x = grid64.axis_points()
    assert np.max(np.abs(b.node(0).values()[0] - 0.2 * np.sin(x))) < 1e-14


def test_smooth_test_2d_components(grid64_2d):
    spec = DriftSpec(family="smooth-test", seed=1, beta=0.25, amplitude=0.3)
    b = generate(spec, grid64_2d, 1.0, 2)
    vals = b.node(0).values()
    x = grid64_2d.axis_points()
    xx, yy = np.meshgrid(x, x, indexing="ij")
    assert np.max(np.abs(vals[0] - 0.3 * np.sin(xx))) < 1e-13
    assert np.max(np.abs(vals[1] - 0.3 * np.sin(yy))) < 1e-13


def test_derivative_family_is_a_gradient(grid64):
    spec = DriftSpec(family="derivative-of-continuous", seed=3, beta=0.25,
                     eta=0.3, amplitude=0.5)
    b = generate(spec, grid64, 1.0, 2)
    c = b.node(0).coeffs[0]
    assert c[0] == 0.0                             # derivative has zero mean
    kappa = np.abs(grid64.kappa_axis())
    interior = (kappa > 0) & (np.arange(64) != 32)  # Nyquist row is zeroed
    assert np.max(np.abs(np.abs(c[interior]) * kappa[interior] ** 0.3 - 0.5)) < 1e-12
    assert c[32] == 0.0


def test_piecewise_time_dependence(grid64):
    spec = DriftSpec(family="random-fourier", seed=5, beta=0.25, eta=0.3, changes=1)
    b = generate(spec, grid64, 1.0, 8)
    first = b.node(0).coeffs
    assert np.array_equal(b.node(3).coeffs, first)
    assert not np.array_equal(b.node(4).coeffs, first)   # switch at t = 1/2
    assert np.array_equal(b.node(8).coeffs, b.node(4).coeffs)
    # an integral float count (as from a hand-written config) is the same drift
    spec_f = DriftSpec(family="random-fourier", seed=5, beta=0.25, eta=0.3, changes=1.0)
    assert np.array_equal(generate(spec_f, grid64, 1.0, 8).coeffs, b.coeffs)


# --- admissibility ------------------------------------------------------------------


def test_assumption_check_accepts_certified_drift(rough_drift64):
    rep = assumption_check(rough_drift64, 0.25, 3.0)
    assert rep.q_tilde == pytest.approx(1.0 / 0.75)
    assert rep.sup_norm == max(rep.node_norms)
    assert rep.sup_norm >= max(rep.sup_norm_q, rep.sup_norm_q_tilde) - 1e-12
    assert rep.refinement_change < 0.01


def test_assumption_check_rejects_bad_window(rough_drift64):
    with pytest.raises(AssumptionViolated):
        assumption_check(rough_drift64, 0.6, 3.0)
    with pytest.raises(AssumptionViolated):
        assumption_check(rough_drift64, 0.25, 1.2)   # below d/(1-beta)
    with pytest.raises(AssumptionViolated):
        assumption_check(rough_drift64, 0.25, 5.0)   # above d/beta


# --- exponent selection ---------------------------------------------------------------


def test_pick_kappa_canonical_point():
    delta, p = pick_kappa(KappaRegion(0.25, 3.0, 1))
    assert delta == 0.5
    assert p == pytest.approx(2.5)


def test_pick_kappa_point_is_admissible():
    region = KappaRegion(0.1, 8.0, 2)
    delta, p = region and pick_kappa(region)
    assert region.contains(delta, p)


def test_pick_kappa_widens_delta_when_one_half_is_too_small():
    # d=2, q=3: delta = 1/2 would need p > 4 > q, but any delta in (2/3, 3/4)
    # leaves p a window (d/delta, q)
    region = KappaRegion(0.25, 3.0, 2)
    delta, p = pick_kappa(region)
    assert region.contains(delta, p)


def test_pick_kappa_empty_region():
    with pytest.raises(EmptyRegion):
        pick_kappa(KappaRegion(0.25, 1.3, 1))        # q <= d/(1-beta)


def test_kappa_region_validation():
    with pytest.raises(EmptyRegion):
        KappaRegion(0.7, 3.0, 1)
    with pytest.raises(EmptyRegion):
        KappaRegion(0.25, 3.0, 3)


# --- mollification ---------------------------------------------------------------------


def test_mollified_sequence_approaches_drift(rough_drift64):
    idx = SobolevIndex(-0.25, 2.0)
    seq = mollified_sequence(rough_drift64, (2, 8, 32))
    gaps = [max(sobolev_norm(b_n.node(m) - rough_drift64.node(m), idx)
                for m in range(rough_drift64.nodes + 1)) for b_n in seq]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.2 * gaps[0]
    assert all(b_n.nodes == rough_drift64.nodes for b_n in seq)
