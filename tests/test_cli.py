"""Command-line front end, run in-process through main()."""

import json

import numpy as np
import pytest

from singular_drift import lab
from singular_drift.cli import main
from singular_drift.drifts import AssumptionViolated
from singular_drift.sde import SimConfig, load_ensemble, simulate_y, virtual_x
from singular_drift.spectral import load_time_field, load_time_field_meta


TINY = {
    "name": "cli-tiny",
    "drift": {"family": "random-fourier", "seed": 42, "beta": 0.25,
              "eta": 0.3, "amplitude": 0.25},
    "modes": 64,
    "pde_nodes": 16,
    "steps": 16,
    "paths": 200,
    "seed": 5,
    "lam": 2.0,
    "n_list": [2, 4],
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(TINY))
    return str(p)


def test_gen_drift(tmp_path, config_path, capsys):
    out = tmp_path / "drift.bin"
    assert main(["gen-drift", "--config", config_path, "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "drift.bin.json").exists()
    assert "sup intersection norm" in capsys.readouterr().out
    b = load_time_field(out)
    assert b.nodes == 16 and b.grid.modes_per_axis == 64


def test_solve_pde_and_simulate_from_snapshot(tmp_path, config_path, capsys):
    drift = tmp_path / "drift.bin"
    main(["gen-drift", "--config", config_path, "--out", str(drift)])
    u_path = tmp_path / "u.bin"
    assert main(["solve-pde", "--config", config_path, "--drift", str(drift),
                 "--out", str(u_path)]) == 0
    meta = load_time_field_meta(u_path)
    assert meta["manifest"]["lambda"] == 2.0
    assert meta["manifest"]["solver"]["method"] == "march"
    assert "converged" not in meta["manifest"]["solver"]
    assert "product stage 4" in capsys.readouterr().out

    ens_path = tmp_path / "paths.bin"
    assert main(["simulate", "--config", config_path, "--u", str(u_path),
                 "--out", str(ens_path)]) == 0
    ens = load_ensemble(ens_path)
    assert ens.states.shape == (200, 17, 1)
    assert "terminal mean" in capsys.readouterr().out

    # with lam unset in the config, lambda comes from the u sidecar
    p = tmp_path / "no-lam.json"
    p.write_text(json.dumps(dict(TINY, lam=None)))
    assert main(["simulate", "--config", str(p), "--u", str(u_path),
                 "--out", str(ens_path)]) == 0
    assert load_ensemble(ens_path).config.lam == 2.0

    # a config lam that differs from the sidecar's would simulate a transform
    # that u does not solve
    p = tmp_path / "other-lam.json"
    p.write_text(json.dumps(dict(TINY, lam=4.0)))
    with pytest.raises(SystemExit, match="lam 4 differs from the lambda 2"):
        main(["simulate", "--config", str(p), "--u", str(u_path),
              "--out", str(ens_path)])


def test_simulate_without_snapshot(tmp_path, config_path):
    ens_path = tmp_path / "paths.bin"
    assert main(["simulate", "--config", config_path, "--out", str(ens_path)]) == 0
    ens = load_ensemble(ens_path)
    assert ens.config.lam == 2.0
    # the transform is the studies' own, inverse tolerance included
    cfg = lab.ExperimentConfig.from_dict(TINY)
    ctx = lab.prepare_transform(cfg)["ctx"]
    sim = SimConfig(x0=cfg.x0, horizon=cfg.horizon, steps=cfg.steps,
                    paths=cfg.paths, seed=cfg.seed, lam=cfg.lam)
    ref = virtual_x(ctx, simulate_y(ctx, sim))
    assert np.array_equal(np.asarray(ens.states), np.asarray(ref.states))


def test_solve_pde_checks_admissibility(tmp_path):
    # q = 5 lies outside (d/(1-beta), d/beta) = (4/3, 4) in 1-D
    p = tmp_path / "c.json"
    p.write_text(json.dumps(dict(TINY, q=5.0)))
    with pytest.raises(AssumptionViolated, match="q=5.0"):
        main(["solve-pde", "--config", str(p), "--out", str(tmp_path / "u.bin")])


def test_calibrate(tmp_path, capsys):
    cfg = dict(TINY)
    cfg["lam"] = None
    cfg["drift"] = {"family": "smooth-test", "seed": 1, "beta": 0.25,
                    "amplitude": 0.2}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "lam.json"
    assert main(["calibrate", "--config", str(p), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["lambda"] == 1.0
    trace = out.with_suffix(".csv").read_text()
    assert trace.startswith("lambda,gradient_sup")
    assert "accepted lambda" in capsys.readouterr().out


def test_study_command_writes_artifacts(tmp_path, config_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["study-mollify", "--config", config_path,
                 "--out-dir", str(out_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["study"] == "mollify"
    root = out_dir / payload["digest"]
    assert (root / "report.json").exists()
    assert (root / "levels.csv").exists()


def test_diagnostics(capsys):
    assert main(["diagnostics"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["no-such-command"])
