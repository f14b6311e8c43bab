"""Sample statistics against scipy, config plumbing, and study smoke runs."""

import itertools
import json
import math
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import singular_drift
import singular_drift.sde as sde
from singular_drift.drifts import DriftSpec
from singular_drift.paraproduct import SOLVER_STAGE
from singular_drift.lab import (
    INVERSE_TOL,
    ExperimentConfig,
    config_digest,
    environment_fingerprint,
    kendall_trend,
    ks_stat,
    prepare_transform,
    study_lambda,
    study_mollify,
    study_smooth_consistency,
    wasserstein1,
)
from singular_drift.sde import SimConfig, simulate_y, virtual_x


ROUGH = DriftSpec(family="random-fourier", seed=42, beta=0.25, eta=0.3,
                  amplitude=0.25)


def tiny_config(**over):
    kw = dict(name="tiny", drift=ROUGH, modes=64, pde_nodes=16, steps=16,
              paths=300, seed=5, lam=2.0, n_list=(2, 4))
    kw.update(over)
    return ExperimentConfig(**kw)


# --- statistics ------------------------------------------------------------------------


def test_wasserstein1_matches_scipy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(500)
    b = rng.standard_normal(500) + 0.3
    assert wasserstein1(a, b) == pytest.approx(stats.wasserstein_distance(a, b),
                                               abs=1e-12)


def test_wasserstein1_translation():
    a = np.linspace(0.0, 1.0, 100)
    assert wasserstein1(a, a + 2.0) == pytest.approx(2.0, abs=1e-12)
    assert wasserstein1(a, a) == 0.0


def test_wasserstein1_unequal_sizes():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(400)
    b = rng.standard_normal(300) + 1.0
    got = wasserstein1(a, b)
    assert got == pytest.approx(stats.wasserstein_distance(a, b), abs=0.05)
    with pytest.raises(ValueError):
        wasserstein1(a, np.array([]))


def test_ks_stat_matches_scipy():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(300)
    b = rng.standard_normal(400) * 1.5
    assert ks_stat(a, b) == pytest.approx(stats.ks_2samp(a, b).statistic,
                                          abs=1e-12)


def test_ks_stat_refuses_empty_sample():
    a = np.linspace(0.0, 1.0, 10)
    for x, y in [(a, np.array([])), (np.array([]), a)]:
        with pytest.raises(ValueError, match="empty sample"):
            ks_stat(x, y)


def test_kendall_trend_signs():
    down = kendall_trend([1, 2, 3, 4, 5], [5.0, 4.0, 3.0, 2.0, 1.0])
    assert down["tau"] == pytest.approx(-1.0)
    assert down["decreasing_at_5pct"]
    up = kendall_trend([1, 2, 3, 4, 5], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert up["tau"] == pytest.approx(1.0)
    assert not up["decreasing_at_5pct"]
    assert down["p_method"] == up["p_method"] == "exact"


def test_kendall_trend_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(400):
        n = int(rng.integers(3, 13))
        levels = np.sort(rng.choice(1000, n, replace=False))
        values = rng.standard_normal(n)
        got = kendall_trend(levels, values)
        tau, p_two = stats.kendalltau(levels, values)
        assert got["tau"] == tau                      # bitwise
        assert got["p_method"] == "exact"
        if tau < 0:
            assert abs(got["p_one_sided"] - 0.5 * p_two) <= 1e-12


def test_kendall_trend_with_ties_uses_the_normal_law():
    got = kendall_trend([1, 2, 3, 4, 5], [5.0, 4.0, 4.0, 2.0, 1.0])
    tau, _ = stats.kendalltau([1, 2, 3, 4, 5], [5.0, 4.0, 4.0, 2.0, 1.0])
    assert got["tau"] == tau
    assert got["p_method"] == "normal"
    assert got["p_one_sided"] == pytest.approx(0.011488700751603033, rel=1e-12)
    assert got["decreasing_at_5pct"]


def test_kendall_trend_p_is_exact_by_enumeration():
    # P(S <= s_obs) over all orderings, the mass at s_obs included, for every
    # sign of tau (tau = 0 occurs for n >= 3)
    for n in range(2, 8):
        def s_stat(q):
            return sum((q[j] > q[i]) - (q[j] < q[i])
                       for i, j in itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        mass = Counter(s_stat(q) for q in perms)
        for q in perms:
            s = s_stat(q)
            want = sum(c for t, c in mass.items() if t <= s) / math.factorial(n)
            assert kendall_trend(range(n), q)["p_one_sided"] == want, (n, q)
    assert kendall_trend([1, 2, 3, 4], [2, 1, 4, 3])["p_one_sided"] == 20 / 24
    assert kendall_trend([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])["p_one_sided"] == 1.0


@pytest.mark.parametrize("levels, values", [
    ([1, 2, 3], [1.0, 2.0]),          # mismatched lengths
    ([1], [1.0]),                     # fewer than two points
    ([1, 2, 3], [2.0, 2.0, 2.0]),     # tau undefined
    ([1, 2, 3], [1.0, np.nan, 2.0]),  # not finite
])
def test_kendall_trend_refuses_bad_input(levels, values):
    with pytest.raises(ValueError):
        kendall_trend(levels, values)


def test_import_leaves_scipy_submodules_unloaded():
    src = Path(singular_drift.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import singular_drift, singular_drift.cli\n"
        "from singular_drift.lab import kendall_trend\n"
        "kendall_trend([1, 2, 3, 4], [4.0, 3.0, 2.0, 1.0])\n"
        "kendall_trend([1, 2, 3, 4], [4.0, 3.0, 3.0, 1.0])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('singular_drift.theory' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    scipy_modules, theory_loaded = out.stdout.splitlines()
    assert scipy_modules == "[]"
    assert theory_loaded == "False"     # only diagnostics and tests import theory


# --- configuration plumbing ----------------------------------------------------------------


def test_experiment_config_roundtrip():
    cfg = tiny_config(lambda_list=(2.0, 4.0))
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


@pytest.mark.parametrize("key", ["product_tol", "delta", "p", "tol", "inverse_tol",
                                 "consistency_paths", "period"])
def test_experiment_config_rejects_removed_keys(key):
    # the solver's product runs at a fixed stage, (delta, p) is always
    # pick_kappa's pair, the residual tolerance is PdeConfig's, the
    # inversion tolerance is lab.INVERSE_TOL, the consistency study
    # simulates cfg.paths and the torus is [0, 2 pi)^d
    d = tiny_config().to_dict()
    d[key] = 2.0
    with pytest.raises(TypeError, match=key):
        ExperimentConfig.from_dict(d)


def test_experiment_config_validates_x0():
    with pytest.raises(ValueError):
        tiny_config(x0=(0.0, 0.0))


@pytest.mark.parametrize("n_list", [(0, 2), (-1, 2), (2, 2), (4, 2), (2,), ()])
def test_experiment_config_validates_n_list(n_list):
    # refused before any solve: a zero level would fail only in spectral.mollify,
    # a repeated one would feed tied levels to the trend test
    with pytest.raises(ValueError, match="n_list"):
        tiny_config(n_list=n_list)


@pytest.mark.parametrize("steps_list", [(250, 300), (0, 16), (-8, 16), (8, 8, 16), ()])
def test_experiment_config_validates_steps_list(steps_list):
    # refused before calibration and the solve: the consistency study draws
    # every step count's noise at the largest, which each must divide
    with pytest.raises(ValueError, match="steps_list"):
        tiny_config(steps_list=steps_list)


@pytest.mark.parametrize("lambda_list", [(2.0,), (), (0.0, 2.0), (-1.0, 2.0),
                                         (2.0, 2.0), (2.0, math.inf), (2.0, math.nan)])
def test_experiment_config_validates_lambda_list(lambda_list):
    with pytest.raises(ValueError, match="lambda_list"):
        tiny_config(lambda_list=lambda_list)


@pytest.mark.parametrize("lam", [0.0, -0.5, -100.0, math.inf, math.nan])
def test_experiment_config_validates_lam(lam):
    # a lambda the theory excludes used to reach the solver, which certified
    # the transform at -0.5, -100 and inf
    with pytest.raises(ValueError, match="lam"):
        tiny_config(lam=lam)


def test_config_digest_sensitivity():
    a = config_digest(tiny_config())
    b = config_digest(tiny_config())
    assert a == b and len(a) == 16
    assert config_digest(tiny_config(seed=6)) != a
    assert config_digest(tiny_config(note="annotated")) != a


def test_environment_fingerprint_keys():
    fp = environment_fingerprint()
    assert {"python", "numpy", "scipy", "platform", "package"} <= set(fp)


# --- the shared pipeline ---------------------------------------------------------------------


def test_prepare_transform_bundle():
    bundle = prepare_transform(tiny_config())
    assert bundle["lam"] == 2.0
    assert bundle["ctx"].gradient_bound <= 0.5
    assert bundle["solve_report"].method == "march"
    assert bundle["assumption"].sup_norm > 0
    assert bundle["pde"].delta == 0.5 and bundle["pde"].p == 2.5
    assert bundle["ctx"].inverse_tol == INVERSE_TOL


def test_2d_pipeline_calibrates_at_nodes_over_horizon():
    # the 2-D rough drift meets the gradient target at lambda 16 = pde_nodes /
    # horizon, so the whole 2-D route runs at a lambda with lambda * dt = 1
    cfg = ExperimentConfig(name="tiny-2d", drift=replace(ROUGH, amplitude=0.1),
                           dimension=2, modes=16, pde_nodes=16, steps=16, q=5.0,
                           x0=(0.0, 0.0), paths=256, seed=5)
    bundle = prepare_transform(cfg)
    assert bundle["lam"] == 16.0
    assert bundle["ladder_agrees"]
    sim = SimConfig(x0=cfg.x0, horizon=cfg.horizon, steps=cfg.steps,
                    paths=cfg.paths, seed=cfg.seed, lam=bundle["lam"])
    x = virtual_x(bundle["ctx"], simulate_y(bundle["ctx"], sim))
    assert x.states.shape == (256, 17, 2)
    assert np.all(np.isfinite(x.states))


# --- studies ------------------------------------------------------------------------------


def test_study_mollify_smoke(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    rep = study_mollify(cfg)
    assert rep.study == "mollify"
    assert [row["level"] for row in rep.levels] == [2, 4]
    for row in rep.levels:
        assert row["w1_t1"] >= 0.0
        # the routes share their paths, and sorted matching is the optimal
        # coupling in 1-D, so the coupling distance bounds W1 from above
        assert row["w1_t1"] <= row["coupling_t1"]
        assert row["coupling_t1_halfwidth"] > 0.0
    assert rep.floor > 0.0
    assert "tau" in rep.trend
    assert rep.trend["p_method"] == "exact"
    root = tmp_path / rep.digest
    for name in ("report.json", "levels.csv", "drift.bin", "u.bin",
                 "manifest.json"):
        assert (root / name).exists(), name
    manifest = json.loads((root / "manifest.json").read_text())
    assert manifest["digest"] == rep.digest
    assert manifest["product_stage"] == SOLVER_STAGE == 4
    saved = json.loads((root / "report.json").read_text())
    assert saved["levels"] == rep.levels
    assert saved["pipeline"]["product_stage"] == SOLVER_STAGE
    assert saved["pipeline"]["ladder_agrees"] is True
    assert saved["trend"]["p_method"] == "exact"


def test_study_lambda_smoke():
    rep = study_lambda(tiny_config(lambda_list=(2.0, 4.0)))
    assert rep.study == "lambda"
    assert len(rep.levels) == 1
    row = rep.levels[0]
    assert row["lambda_a"] == 2.0 and row["lambda_b"] == 4.0
    assert "within_3_floors" in row
    assert rep.floor > 0.0


@pytest.mark.parametrize("study, draws", [(study_mollify, 3), (study_lambda, 2)],
                         ids=["mollify", "lambda"])
def test_study_draws_its_shared_noise_once(monkeypatch, study, draws):
    # mollify: the virtual run and both levels share one draw, then the floor
    # and the floor base; lambda: both lambdas share one draw, then the floor
    calls = []
    block_normals = sde._block_normals
    monkeypatch.setattr(sde, "_last_noise", {})
    monkeypatch.setattr(sde, "_block_normals",
                        lambda *a: calls.append(a) or block_normals(*a))
    study(tiny_config(lambda_list=(2.0, 4.0)))
    assert len(calls) == draws


def test_study_lambda_without_the_base_lambda():
    # the floor re-runs the first listed lambda with that lambda's transform;
    # the base lambda (2.0) is simulated by no one here
    rep = study_lambda(tiny_config(lam=2.0, lambda_list=(4.0, 8.0)))
    assert [(r["lambda_a"], r["lambda_b"]) for r in rep.levels] == [(4.0, 8.0)]
    assert rep.floor > 0.0


def test_study_consistency_smoke():
    cfg = tiny_config(drift=DriftSpec(family="smooth-test", seed=1, beta=0.25,
                                      amplitude=0.2),
                      lam=1.0, steps_list=(8, 16), paths=100)
    rep = study_smooth_consistency(cfg)
    assert [row["steps"] for row in rep.levels] == [8, 16]
    assert "dev_ratio" in rep.levels[1]
    assert rep.levels[1]["pathwise_dev"] < rep.levels[0]["pathwise_dev"]


def test_study_consistency_requires_smooth_family():
    with pytest.raises(ValueError, match="smooth-test"):
        study_smooth_consistency(tiny_config())
