"""CLI scenarios: validation, overrides, determinism, figure bundles."""

import json
import os

import numpy as np
import pytest

import fockatom
from fockatom.cli import main, normalize_config


def _run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_minimal_config_defaults(tmp_path, capsys):
    path = _write_config(tmp_path, {})
    code, out, _ = _run(["validate", path], capsys)
    assert code == 0
    cfg = json.loads(out)
    assert cfg["atom"]["gamma_p"] / cfg["atom"]["gamma"] == 1.0
    assert cfg["solver"] == "closed_form"
    assert cfg["grid"]["dt"] == 1e-3


def test_validate_free_space_preset(tmp_path, capsys):
    path = _write_config(tmp_path, {"atom": {"mode_fraction": "free_space"}})
    code, out, _ = _run(["validate", path], capsys)
    assert code == 0
    cfg = json.loads(out)
    ratio = cfg["atom"]["gamma_p"] / cfg["atom"]["gamma"]
    assert ratio == pytest.approx(3.0 / (8.0 * np.pi), abs=1e-10)
    assert abs(ratio - 0.11937) < 1e-5


def test_validate_waveguide_preset(tmp_path, capsys):
    path = _write_config(tmp_path, {"atom": {"mode_fraction": "waveguide_1d"}})
    code, out, _ = _run(["validate", path], capsys)
    assert code == 0
    cfg = json.loads(out)
    assert cfg["atom"]["gamma_p"] / cfg["atom"]["gamma"] == 0.5


def test_invalid_dt_exits_2_with_field(tmp_path, capsys):
    path = _write_config(tmp_path, {"grid": {"dt": 0.0}})
    code, _, err = _run(["validate", path], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "grid.dt"


@pytest.mark.parametrize("cfg, field", [
    ({"pulse": {"tau_f": "abc"}}, "pulse.tau_f"),
    ({"pulse": {"n_bar": "a"}}, "pulse.n_bar"),
    ({"atom": {"t_d": "x"}}, "atom.t_d"),
    ({"grid": {"t_max": "a"}}, "grid.t_max"),
    ([1, 2], "config"),
    ({"spectrum": {"kappa": True}}, "spectrum.kappa"),
    ({"sweep": {"kappa": {"num": 2.5}}}, "sweep.kappa.num"),
])
def test_mistyped_config_exits_2_with_field(tmp_path, capsys, cfg, field):
    out = tmp_path / "o"
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)], capsys)
    assert code == 2
    assert json.loads(err)["field"] == field
    assert not out.exists()


def test_unknown_keys_rejected(tmp_path, capsys):
    code, _, err = _run(["validate", _write_config(tmp_path, {"turbo": True})], capsys)
    assert code == 2
    assert json.loads(err)["field"] == "turbo"
    code, _, err = _run(
        ["validate", _write_config(tmp_path, {"pulse": {"length": 1}}, "c2.json")], capsys)
    assert code == 2
    assert json.loads(err)["field"] == "pulse.length"


def test_unknown_figure_id_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig99", "--out", str(tmp_path)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_simulate_matches_library(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = {
        "scenario": "simulate",
        "spectrum": {"kind": "lorentzian", "kappa": 10.0},
        "pulse": {"shape": "gaussian", "tau_f": 0.1, "t_a": 2.0},
        "grid": {"t0": 0.0, "t_max": 8.0, "dt": 1e-3},
        "output_dir": out,
    }
    code, _, _ = _run(["simulate", "--config", _write_config(tmp_path, cfg)], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)
    grid = fockatom.TimeGrid.from_span(0.0, 8.0, 1e-3)
    pulse = fockatom.PulseSpec("gaussian", tau_f=0.1, t_a=2.0)
    ref = fockatom.solve_closed_form_lorentzian(fockatom.AtomParams(), 10.0, pulse, grid)
    assert abs(data[:, 3].max() - ref.p.max()) < 1e-4


def test_flag_overrides_beat_config(tmp_path, capsys):
    out = str(tmp_path / "o")
    cfg = {"scenario": "simulate", "pulse": {"shape": "gaussian", "tau_f": 1.0},
           "grid": {"t_max": 4.0, "dt": 1e-2}, "output_dir": out}
    code, _, _ = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                       "--tau-f", "0.5", "--kappa", "5.0"], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "o" / "trajectory.json").read_text())
    assert meta["config"]["pulse"]["tau_f"] == 0.5
    assert meta["config"]["spectrum"]["kappa"] == 5.0


def test_byte_identical_reruns(tmp_path, capsys):
    blobs = []
    for sub in ("r1", "r2"):
        out = str(tmp_path / sub)
        code, _, _ = _run(["simulate", "--kappa", "10.0", "--tau-f", "0.5",
                           "--dt", "5e-3", "--out", out], capsys)
        assert code == 0
        blobs.append((tmp_path / sub / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_validate_roundtrip_reproduces_run(tmp_path, capsys):
    cfg = {"scenario": "simulate", "spectrum": {"kappa": 3.0},
           "pulse": {"tau_f": 0.7}, "grid": {"t_max": 6.0, "dt": 5e-3},
           "output_dir": str(tmp_path / "direct")}
    code, out, _ = _run(["validate", _write_config(tmp_path, cfg)], capsys)
    assert code == 0
    normalized = json.loads(out)
    normalized["output_dir"] = str(tmp_path / "via_norm")
    code, _, _ = _run(["simulate", "--config",
                       _write_config(tmp_path, normalized, "norm.json")], capsys)
    assert code == 0
    code, _, _ = _run(["simulate", "--config",
                       _write_config(tmp_path, cfg, "orig.json")], capsys)
    assert code == 0
    a = (tmp_path / "direct" / "trajectory.csv").read_bytes()
    b = (tmp_path / "via_norm" / "trajectory.csv").read_bytes()
    assert a == b


def test_decay_scenario(tmp_path, capsys):
    out = str(tmp_path / "d")
    code, _, _ = _run(["decay", "--kappa", "100.0", "--out", out, "--dt", "1e-3",
                       "--t-max", "5.0"], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "decay.csv"), delimiter=",", skiprows=1)
    assert data[0, 3] == pytest.approx(1.0)
    rate = -np.polyfit(data[:, 0], np.log(data[:, 3]), 1)[0]
    assert 0.98 < rate < 1.02


def test_simulate_with_tabulated_csv_spectrum(tmp_path, capsys):
    kappa = 10.0
    d = np.linspace(-500.0, 500.0, 20001)
    g2 = (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    csv_path = tmp_path / "spectrum.csv"
    csv_path.write_text("delta,g2\n" + "\n".join(f"{x},{y}" for x, y in zip(d, g2)) + "\n")
    out = str(tmp_path / "tab")
    cfg = {
        "scenario": "simulate",
        "spectrum": {"kind": "tabulated", "csv": str(csv_path)},
        "pulse": {"shape": "gaussian", "tau_f": 1.0, "t_a": 5.0},
        "grid": {"t_max": 12.0, "dt": 2e-3},
        "output_dir": out,
    }
    code, _, _ = _run(["simulate", "--config", _write_config(tmp_path, cfg)], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)
    assert 0.5 < data[:, 3].max() <= 1.0
    meta = json.loads((tmp_path / "tab" / "trajectory.json").read_text())
    assert meta["solver_id"] == "volterra"


def test_delta_rise_scenario(tmp_path, capsys):
    out = str(tmp_path / "dr")
    code, _, _ = _run(["delta-rise", "--kappa", "20.0", "--out", out,
                       "--dt", "1e-4", "--t-max", "1.0"], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "delta_rise.csv"), delimiter=",", skiprows=1)
    c_r = data[:, 1]
    assert np.all(np.diff(c_r) >= -1e-15)
    assert c_r[-1] == pytest.approx(20.0 / 19.5, rel=1e-3)


def test_detector_compare_scenario(tmp_path, capsys):
    out = str(tmp_path / "dc")
    code, _, _ = _run(["detector-compare", "--out", out, "--dt", "2e-3"], capsys)
    assert code == 0
    fock = np.loadtxt(os.path.join(out, "linear_fock.csv"), delimiter=",", skiprows=1)
    coh = np.loadtxt(os.path.join(out, "linear_coherent.csv"), delimiter=",", skiprows=1)
    bloch = np.loadtxt(os.path.join(out, "atom_bloch_coherent.csv"), delimiter=",", skiprows=1)
    assert np.abs(fock[:, 1] - coh[:, 1]).max() < 1e-12
    assert fock[:, 1].max() - bloch[:, 1].max() > 0.1


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def test_fig2d_bundle_three_trajectories(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = _run(["figure", "fig2d", "--out", out, "--dt", "2e-3"], capsys)
    assert code == 0
    files = sorted(os.listdir(os.path.join(out, "fig2d")))
    csvs = [f for f in files if f.endswith(".csv")]
    assert csvs == ["lorentzian_k1.csv", "lorentzian_k10.csv", "markov.csv"]
    strong = np.loadtxt(os.path.join(out, "fig2d", "lorentzian_k1.csv"),
                        delimiter=",", skiprows=1)
    assert strong[:, 3].max() > 0.96


def test_fig5a_columns_identical(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = _run(["figure", "fig5a", "--out", out, "--dt", "2e-3"], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "fig5a", "linear_detector.csv"),
                      delimiter=",", skiprows=1)
    assert np.abs(data[:, 1] - data[:, 2]).max() < 1e-12


def test_fig5b_coherent_much_lower(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = _run(["figure", "fig5b", "--out", out, "--dt", "2e-3"], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "fig5b", "nonlinear_detector.csv"),
                      delimiter=",", skiprows=1)
    assert data[:, 1].max() - data[:, 2].max() > 0.1


def test_fig6_weak_coupling_rate(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = _run(["figure", "fig6", "--out", out, "--dt", "1e-3"], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "fig6", "decay_curves.csv"),
                      delimiter=",", skiprows=1)
    t, p100 = data[:, 0], data[:, -1]
    keep = t <= 5.0
    rate = -np.polyfit(t[keep], np.log(p100[keep]), 1)[0]
    assert abs(rate - 1.0) < 0.02


def test_fig3_rise_bundle(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = _run(["figure", "fig3", "--out", out, "--dt", "1e-3"], capsys)
    assert code == 0
    data = np.loadtxt(os.path.join(out, "fig3", "delta_rise.csv"),
                      delimiter=",", skiprows=1)
    c_r, dc_r = data[:, 1], data[:, 2]
    assert np.all(np.diff(c_r) >= -1e-15)
    assert dc_r[0] == pytest.approx(10.0)  # kappa at t = 0


def test_fig4_small_sweep_argmax(tmp_path, capsys):
    out = str(tmp_path / "f4")
    cfg = {
        "scenario": "figure",
        "figure_id": "fig4d",
        "sweep": {"tau_f": {"start": 0.05, "stop": 5.0, "num": 9, "spacing": "log"},
                  "kappa": {"start": 0.5, "stop": 50.0, "num": 5, "spacing": "log"}},
        "output_dir": out,
    }
    code, _, _ = _run(["figure", "fig4d", "--config", _write_config(tmp_path, cfg)], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "f4" / "fig4d" / "sweep_gaussian.json").read_text())
    assert 0.5 <= meta["argmax"]["tau_f"] <= 2.0


def test_env_var_default_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FOCKATOM_OUT", str(tmp_path / "envout"))
    code, _, _ = _run(["simulate", "--tau-f", "0.3", "--dt", "1e-2"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "trajectory.csv").exists()


def test_normalize_config_direct():
    cfg = normalize_config({"pulse": {"shape": "decaying_exp"}})
    assert cfg["pulse"]["shape"] == "decaying_exp"
    with pytest.raises(Exception):
        normalize_config({"solver": "nope"})
