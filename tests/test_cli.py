"""CLI scenarios: validation, overrides, determinism, figure bundles."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fockatom
from fockatom import analysis, cli
from fockatom.cli import main, normalize_config
from fockatom.pulses import PULSE_SHAPES


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
    ({"output_dir": 5}, "output_dir"),
    ({"spectrum": {"kind": "tabulated", "csv": 99}}, "spectrum.csv"),
    ({"spectrum": {"kind": ["tabulated"]}}, "spectrum.kind"),
    ({"pulse": {"shape": 3}}, "pulse.shape"),
    ({"solver": None}, "solver"),
    ({"figure_id": 4}, "figure_id"),
    ({"atom": {"mode_fraction": [0.5]}}, "atom.mode_fraction"),
])
def test_mistyped_config_exits_2_with_field(tmp_path, capsys, cfg, field):
    out = tmp_path / "o"
    argv = ["simulate", "--config", _write_config(tmp_path, cfg)]
    if "output_dir" not in cfg:  # --out would replace the mistyped value
        argv += ["--out", str(out)]
    code, _, err = _run(argv, capsys)
    assert code == 2
    assert json.loads(err)["field"] == field
    assert not out.exists()


def test_tabulated_grid_past_alias_horizon_exits_2(tmp_path, capsys):
    # node gap h = 0.05: the tabulated kernel repeats after 2*pi/h = 125.7
    d = np.linspace(-50.0, 50.0, 2001)
    g2 = (1.0 / (2 * np.pi)) / ((d / 10.0) ** 2 + 1.0)
    csv_path = tmp_path / "spectrum.csv"
    csv_path.write_text("delta,g2\n" + "\n".join(f"{x},{y}" for x, y in zip(d, g2)) + "\n")
    out = tmp_path / "o"
    cfg = {"spectrum": {"kind": "tabulated", "csv": str(csv_path)},
           "grid": {"t_max": 130.0, "dt": 0.05}}
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "grid.t_max"
    assert "125.664" in payload["error"]
    assert not out.exists()


def _lorentzian_table(path, deltas, kappa=5.0):
    g2 = (1.0 / (2 * np.pi)) / ((np.asarray(deltas) / kappa) ** 2 + 1.0)
    path.write_text("delta,g2\n" + "\n".join(f"{x},{y}" for x, y in zip(deltas, g2)) + "\n")
    return str(path)


@pytest.mark.parametrize("row", ["2.0", "2.0,abc", "2.0,nan", "inf,0.1"])
def test_malformed_spectrum_row_exits_2_with_row_number(tmp_path, capsys, row):
    csv_path = tmp_path / "spectrum.csv"
    csv_path.write_text(f"delta,g2\n0.0,0.1\n1.0,0.1\n{row}\n3.0,0.1\n")
    out = tmp_path / "o"
    cfg = {"spectrum": {"kind": "tabulated", "csv": str(csv_path)}}
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "spectrum.csv"
    assert "row 4" in payload["error"]
    assert not out.exists()


def test_non_uniform_spectrum_table_exits_2(tmp_path, capsys):
    # spaced 1 / 0.05 / 1: the kernel's uniform samples would be off by more than its peak
    d = np.concatenate([np.arange(-100.0, -10.0, 1.0), np.arange(-10.0, 10.0, 0.05),
                        np.arange(10.0, 100.5, 1.0)])
    cfg = {"spectrum": {"kind": "tabulated", "csv": _lorentzian_table(tmp_path / "s.csv", d)},
           "grid": {"t_max": 5.0, "dt": 1e-2}}
    out = tmp_path / "o"
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "spectrum.csv"
    assert "uniform" in payload["error"]
    assert not out.exists()


def test_ode_rk4_grid_too_coarse_exits_2(tmp_path, capsys):
    # RK4 needs dt <= 0.1/max(kappa, gamma) = 1e-4 at kappa = 1000; the default dt is 1e-3
    out = tmp_path / "o"
    cfg = {"solver": "ode_rk4", "spectrum": {"kappa": 1000.0}}
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(out)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "grid.dt"
    assert "0.0001" in payload["error"]
    assert not out.exists()


def test_step_aliasing_the_carrier_exits_2(tmp_path, capsys):
    # |delta0| dt = 10 > pi: the sampled drive aliased silently to max P 6.04e-5
    cfg = {"pulse": {"delta0": 1000.0, "tau_f": 0.01}, "spectrum": {"kappa": 1000.0},
           "grid": {"t_max": 2.0}}
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "o"
    code, _, err = _run(["simulate", "--config", path, "--dt", "0.01", "--out", str(out)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "grid.dt"
    assert "aliases the carrier" in payload["error"]
    assert not out.exists()
    code, _, _ = _run(["simulate", "--config", path, "--dt", "1e-4", "--out", str(out)], capsys)
    assert code == 0
    p = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 3]
    assert p.max() == pytest.approx(2.03e-5, rel=1e-2)


def test_set_t_max_runs_where_the_cell_grid_exceeds_the_budget(tmp_path, capsys):
    # at tau_f = 10 the pulse's own cell grid spans 138 (1.4e6 samples at dt = 1e-4);
    # with grid.t_max = 5 only 50001 samples are built
    cfg = {"pulse": {"tau_f": 10.0, "t_a": 2.0}, "grid": {"t_max": 5.0, "dt": 1e-4}}
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")], capsys)
    assert code == 0, err
    meta = json.loads((tmp_path / "o" / "trajectory.json").read_text())
    assert meta["grid"]["n"] == 50001


# ---------------------------------------------------------------------------
# pulse window: the arrival at pulse.t_a or grid.t0 + lead, the grid to it plus the trail
# ---------------------------------------------------------------------------

def _max_p(tmp_path, capsys, name, cfg):
    out = tmp_path / name
    code, _, err = _run(["simulate", "--config", _write_config(tmp_path, cfg, name + ".json"),
                         "--out", str(out)], capsys)
    assert code == 0, err
    return np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 3].max()


def test_delta_pulse_arrives_inside_a_shifted_grid(tmp_path, capsys):
    # the arrival is grid.t0 + 1/gamma, inside a grid that starts at t0 = 5
    shifted = _max_p(tmp_path, capsys, "shifted", {"pulse": {"shape": "delta"},
                                                   "grid": {"t0": 5.0}})
    assert shifted == pytest.approx(0.0503057, abs=1e-7)
    assert shifted == _max_p(tmp_path, capsys, "origin", {"pulse": {"shape": "delta"}})


def test_set_arrival_moves_the_grid_end(tmp_path, capsys):
    # a set arrival moves the grid end to t_a + trail
    late = _max_p(tmp_path, capsys, "late", {"pulse": {"t_a": 30.0}})
    assert late == pytest.approx(_max_p(tmp_path, capsys, "default", {}), abs=1e-6)
    assert late == pytest.approx(0.8006558, abs=1e-6)


def test_simulate_grid_is_the_cell_grid():
    # one rounding of [0, lead + trail]; rounding the cell grid's whole-step end a
    # second time gives the same grid
    rng = np.random.default_rng(9)
    atom, second_rounding_differs = fockatom.AtomParams(), 0
    for _ in range(2000):
        shape = PULSE_SHAPES[rng.integers(4)]
        tau_f, kappa = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 3)
        lead, trail = analysis.cell_span(shape, tau_f, kappa, 1.0)
        dt = (lead + trail) / 10.0 ** rng.uniform(1, 5.9)
        cfg = normalize_config({"pulse": {"shape": shape, "tau_f": tau_f},
                                "spectrum": {"kappa": kappa}, "grid": {"dt": dt}})
        _, grid = cli._build_pulse_and_grid(cfg, atom, cli._build_spectrum(cfg, atom))
        cell = analysis.cell_grid(shape, tau_f, kappa, 1.0, dt)[0]
        assert grid.n == cell.n, (shape, tau_f, kappa, dt)
        second_rounding_differs += fockatom.TimeGrid.from_span(0.0, cell.t_max, dt).n != cell.n
    assert second_rounding_differs == 0


def test_simulate_grid_length_does_not_depend_on_t0():
    # [t0, t0 + 23] at dt = 1e-3 is 23000 whole steps; t0 + 23 - t0 is not exactly 23
    atom = fockatom.AtomParams()
    for i in range(1, 1001):
        cfg = normalize_config({"grid": {"t0": 0.01 * i}})
        _, grid = cli._build_pulse_and_grid(cfg, atom, cli._build_spectrum(cfg, atom))
        assert grid.n == 23001, grid.t0


@pytest.mark.parametrize("argv", [["simulate"], ["simulate", "--pulse", "delta"],
                                  ["decay"], ["delta-rise"], ["detector-compare"],
                                  ["figure", "fig2a"], ["figure", "fig3"],
                                  ["figure", "fig5b"], ["figure", "fig6"]])
def test_grid_over_sample_budget_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    code, _, err = _run(argv + ["--dt", "1e-9", "--out", str(out)], capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["field"] == "grid.dt"
    assert "budget" in payload["error"]
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


def test_simulate_ode_rk4_matches_closed_form(tmp_path, capsys):
    cfg = {"spectrum": {"kappa": 5.0}, "pulse": {"shape": "gaussian", "tau_f": 0.5},
           "grid": {"t_max": 6.0, "dt": 1e-3}}
    path = _write_config(tmp_path, cfg)
    p = {}
    for solver in ("closed_form", "ode_rk4"):
        code, _, _ = _run(["simulate", "--config", path, "--solver", solver,
                           "--out", str(tmp_path / solver)], capsys)
        assert code == 0
        p[solver] = np.loadtxt(tmp_path / solver / "trajectory.csv", delimiter=",",
                               skiprows=1)[:, 3]
    assert np.abs(p["ode_rk4"] - p["closed_form"]).max() < 1e-6
    meta = json.loads((tmp_path / "ode_rk4" / "trajectory.json").read_text())
    assert meta["solver_id"] == "ode_rk4"


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


@pytest.mark.parametrize("solver", analysis.SOLVERS)
@pytest.mark.parametrize("kind", ["flat", "lorentzian", "tabulated"])
def test_one_route_from_spectrum_kind_and_solver(tmp_path, capsys, monkeypatch, kind, solver):
    expected = {"flat": "markov", "tabulated": "volterra"}.get(kind, solver)
    csv_path = _lorentzian_table(tmp_path / "s.csv", np.linspace(-100.0, 100.0, 2001))
    spectrum = {"flat": fockatom.InteractionSpectrum.flat(),
                "lorentzian": fockatom.InteractionSpectrum.lorentzian(5.0),
                "tabulated": fockatom.InteractionSpectrum.from_csv(csv_path)}[kind]
    atom = fockatom.AtomParams()
    grid = fockatom.TimeGrid.from_span(0.0, 8.0, 1e-2)
    pulse = fockatom.PulseSpec("gaussian", tau_f=1.0, t_a=3.0)
    assert analysis.solve(atom, spectrum, pulse, grid, solver).solver_id == expected

    used = []

    def recorded(fn):
        def call(*args):
            traj = fn(*args)
            used.append(traj.solver_id)
            return traj
        return call

    for name, fn in list(analysis._SOLVERS.items()):
        monkeypatch.setitem(analysis._SOLVERS, name, recorded(fn))
    fockatom.linear_response(atom, pulse, "fock", grid, spectrum)
    assert used == [{"flat": "markov", "tabulated": "volterra"}.get(kind, "closed_form")]

    # each kind with the spectrum field it reads: simulate refuses the others
    reads = {"lorentzian": {"kappa": 5.0}, "tabulated": {"csv": csv_path}}.get(kind, {})
    cfg = {"spectrum": {"kind": kind, **reads}, "solver": solver,
           "pulse": {"tau_f": 1.0, "t_a": 3.0}, "grid": {"t_max": 8.0, "dt": 1e-2}}
    code, _, _ = _run(["simulate", "--config", _write_config(tmp_path, cfg),
                       "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    assert json.loads((tmp_path / "o" / "trajectory.json").read_text())["solver_id"] == expected


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


def test_fig3_is_delta_rise_with_pulse_delay(tmp_path, capsys):
    # C_R_markov = e^{gamma t_d/2} H(t - t_d): the figure used to write ones from t = 0
    path = _write_config(tmp_path, {"atom": {"t_d": 0.1}})
    assert _run(["figure", "fig3", "--config", path, "--out", str(tmp_path / "f")], capsys)[0] == 0
    assert _run(["delta-rise", "--config", path, "--out", str(tmp_path / "s")], capsys)[0] == 0
    fig = (tmp_path / "f" / "fig3" / "delta_rise.csv").read_bytes()
    assert fig == (tmp_path / "s" / "delta_rise.csv").read_bytes()
    data = np.loadtxt(tmp_path / "f" / "fig3" / "delta_rise.csv", delimiter=",", skiprows=1)
    t, markov = data[:, 0], data[:, 3]
    assert np.all(markov[t < 0.1 - 1e-9] == 0.0)
    assert np.all(markov[t > 0.1 + 1e-9] == np.exp(0.05))


def test_figure_sidecar_config_reproduces_its_csv(tmp_path, capsys):
    code, _, _ = _run(["figure", "fig2a", "--dt", "2e-3", "--out", str(tmp_path / "f")], capsys)
    assert code == 0
    meta = json.loads((tmp_path / "f" / "fig2a" / "markov.json").read_text())
    assert meta["figure"] == "fig2a"
    cfg = meta["config"]
    assert (cfg["scenario"], cfg["spectrum"]["kind"], cfg["pulse"]["tau_f"]) == (
        "simulate", "flat", 0.1)
    cfg["output_dir"] = str(tmp_path / "replay")
    code, _, _ = _run(["simulate", "--config", _write_config(tmp_path, cfg)], capsys)
    assert code == 0
    assert ((tmp_path / "replay" / "trajectory.csv").read_bytes()
            == (tmp_path / "f" / "fig2a" / "markov.csv").read_bytes())


def test_fig5a_does_not_run_the_bloch_detector(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("fig5a needs no Bloch trace")

    monkeypatch.setattr(cli, "bloch_response", refuse)
    code, _, _ = _run(["figure", "fig5a", "--dt", "2e-3", "--out", str(tmp_path)], capsys)
    assert code == 0


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


def test_sweep_ode_rk4_resolves_stiff_cells(tmp_path, capsys):
    # the default cell step 4e-3 exceeds RK4's 0.1/kappa = 2e-3 at kappa = 50
    out = tmp_path / "sw"
    cfg = {"sweep": {"tau_f": {"start": 1.0, "stop": 2.0, "num": 2, "spacing": "linear"},
                     "kappa": {"start": 1.0, "stop": 50.0, "num": 2, "spacing": "linear"}}}
    code, _, _ = _run(["sweep", "--solver", "ode_rk4", "--config", _write_config(tmp_path, cfg),
                       "--out", str(out)], capsys)
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.endswith(",ok") for row in rows)
    p_max = np.array([float(row.split(",")[2]) for row in rows])
    assert np.all((p_max > 0.0) & (p_max <= 1.0 + 1e-6))


@pytest.mark.parametrize("argv", [["sweep", "--dt", "1e-2"], ["figure", "fig4d", "--t-max", "5"]])
def test_sweep_refuses_grid_fields(tmp_path, capsys, argv):
    # each cell builds its own grid, so a grid field would be recorded but not run
    code, out, err = _run(argv + ["--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert json.loads(err)["field"] == "grid"
    assert out == "" and not (tmp_path / "o").exists()


def test_import_does_not_load_scipy_signal():
    # importing scipy.signal costs over a second of set-up in every fresh process
    src = os.path.dirname(os.path.dirname(fockatom.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys, fockatom, fockatom.cli; "
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy.signal')); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


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
