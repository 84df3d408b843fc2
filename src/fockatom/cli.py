"""Scenario runner: JSON configs in, plot-ready CSV bundles out.

Commands: simulate, sweep, decay, delta-rise, detector-compare,
figure <id>, validate. Configs are strict JSON (unknown keys rejected);
command-line flags override config values. Outputs are deterministic:
identical configs produce byte-identical CSVs, with timestamps confined
to the JSON sidecars. The default output directory comes from the
FOCKATOM_OUT environment variable (falling back to ./out).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import cell_grid, sweep_pmax
from .detectors import bloch_response, fock_atom_response, linear_response
from .dynamics import (
    MODE_FRACTION_PRESETS,
    AtomParams,
    check_ode_step,
    delta_pulse_rise,
    solve_closed_form_lorentzian,
    solve_markov,
    solve_ode_reduction,
    solve_volterra,
    spontaneous_decay,
)
from .grids import TimeGrid
from .pulses import DELTA, PULSE_SHAPES, CoherentPulseSpec, PulseSpec
from .serialize import (
    write_csv,
    write_detector_trace,
    write_json,
    write_sweep,
    write_trajectory,
)
from .spectra import InteractionSpectrum

SCENARIOS = ("simulate", "sweep", "decay", "delta_rise", "detector_compare", "figure")
SOLVERS = ("closed_form", "ode_rk4", "volterra", "markov")

FIGURE_IDS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3",
              "fig4d", "fig4e", "fig4f", "fig5a", "fig5b", "fig6")


class ConfigError(ValueError):
    """Validation failure with the offending config field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


_DEFAULTS = {
    "scenario": "simulate",
    "figure_id": None,
    "atom": {"gamma": 1.0, "gamma_p": None, "mode_fraction": None, "t_d": 0.0,
             "c0_re": 0.0, "c0_im": 0.0},
    "spectrum": {"kind": "lorentzian", "kappa": 10.0, "csv": None},
    "pulse": {"shape": "gaussian", "tau_f": 1.0, "delta0": 0.0, "t_a": None,
              "xi0": 0.1, "n_bar": 1.0},
    "grid": {"t0": 0.0, "t_max": None, "dt": 1e-3},
    "sweep": {
        "tau_f": {"start": 0.01, "stop": 10.0, "num": 25, "spacing": "log"},
        "kappa": {"start": 0.1, "stop": 100.0, "num": 25, "spacing": "log"},
    },
    "solver": "closed_form",
    "output_dir": None,
}

# fields that may be null, with their type; the others are typed by their default
_NULLABLE = {"atom.gamma_p": float, "pulse.t_a": float, "grid.t_max": float,
             "atom.mode_fraction": (str, float), "spectrum.csv": str,
             "figure_id": str, "output_dir": str}

# Largest time grid a scenario may build, checked before anything is allocated;
# equal to solve_volterra's own cap, so a grid that passes here fits every solver.
MAX_GRID_SAMPLES = 1_000_000


def _merge_section(name, defaults, given):
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise ConfigError(name, "must be an object")
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"{name}.{key}", "unknown key")
        if isinstance(defaults[key], dict) and defaults[key]:
            out[key] = _merge_section(f"{name}.{key}", defaults[key], val)
        else:
            out[key] = _typed(f"{name}.{key}", defaults[key], val)
    return out


def _typed(field: str, default, val):
    """val checked against its field's type: the _NULLABLE entry or the default's."""
    kind = _NULLABLE.get(field, type(default))
    if val is None and field in _NULLABLE:
        return val
    if isinstance(val, str) and kind in (str, (str, float)):
        return val
    if kind is str:
        raise ConfigError(field, "must be a string")
    return _number(field, val, integer=kind is int)


def _number(field: str, val, integer: bool = False):
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise ConfigError(field, "must be an integer" if integer else "must be a number")
    return val


def normalize_config(raw: dict) -> dict:
    """Apply defaults, reject unknown keys, and validate field values."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    cfg = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            cfg[key] = _merge_section(key, default, raw.get(key))
        else:
            cfg[key] = _typed(key, default, raw[key]) if key in raw else default
    for key in raw:
        if key not in _DEFAULTS:
            raise ConfigError(key, "unknown key")

    if cfg["scenario"] not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {SCENARIOS}")
    if cfg["solver"] not in SOLVERS:
        raise ConfigError("solver", f"must be one of {SOLVERS}")

    atom = cfg["atom"]
    if atom["gamma"] <= 0:
        raise ConfigError("atom.gamma", "must be a positive number")
    frac = atom["mode_fraction"]
    if atom["gamma_p"] is None:
        if frac is None:
            ratio = 1.0
        elif isinstance(frac, str):
            if frac not in MODE_FRACTION_PRESETS:
                raise ConfigError("atom.mode_fraction",
                                  f"unknown preset; use one of {sorted(MODE_FRACTION_PRESETS)}")
            ratio = MODE_FRACTION_PRESETS[frac]
        else:
            ratio = float(frac)
        atom["gamma_p"] = ratio * atom["gamma"]
    if not 0 < atom["gamma_p"] <= atom["gamma"]:
        raise ConfigError("atom.gamma_p", "need 0 < gamma_p <= gamma")

    spec = cfg["spectrum"]
    if spec["kind"] not in ("lorentzian", "flat", "tabulated"):
        raise ConfigError("spectrum.kind", "must be lorentzian, flat or tabulated")
    if spec["kind"] == "lorentzian" and spec["kappa"] <= 0:
        raise ConfigError("spectrum.kappa", "must be a positive rate")
    if spec["kind"] == "tabulated" and not spec["csv"]:
        raise ConfigError("spectrum.csv", "tabulated spectrum needs a CSV path")

    pulse = cfg["pulse"]
    if pulse["shape"] not in PULSE_SHAPES:
        raise ConfigError("pulse.shape", f"must be one of {PULSE_SHAPES}")
    if pulse["shape"] != DELTA and pulse["tau_f"] <= 0:
        raise ConfigError("pulse.tau_f", "must be positive")
    if pulse["n_bar"] < 0:
        raise ConfigError("pulse.n_bar", "must be >= 0")

    grid = cfg["grid"]
    if grid["dt"] <= 0:
        raise ConfigError("grid.dt", "must be a positive time step")

    for axis in ("tau_f", "kappa"):
        ax = cfg["sweep"][axis]
        if ax["num"] < 1:
            raise ConfigError(f"sweep.{axis}.num", "must be >= 1")
        if ax["spacing"] not in ("log", "linear"):
            raise ConfigError(f"sweep.{axis}.spacing", "must be 'log' or 'linear'")
        if ax["start"] <= 0 and ax["spacing"] == "log":
            raise ConfigError(f"sweep.{axis}.start", "log spacing needs start > 0")
        if ax["stop"] < ax["start"]:
            raise ConfigError(f"sweep.{axis}.stop", "must be >= start")

    if cfg["scenario"] == "figure" and cfg["figure_id"] not in FIGURE_IDS:
        raise ConfigError("figure_id", f"must be one of {FIGURE_IDS}")

    if cfg["output_dir"] is None:
        cfg["output_dir"] = os.environ.get("FOCKATOM_OUT", "out")
    return cfg


def _budgeted(grid: TimeGrid) -> TimeGrid:
    """The grid itself, refused when it exceeds MAX_GRID_SAMPLES (nothing allocated yet)."""
    if grid.n > MAX_GRID_SAMPLES:
        raise ConfigError("grid.dt", f"{grid.n} samples exceed the budget of {MAX_GRID_SAMPLES}; "
                                     "raise grid.dt or lower grid.t_max")
    return grid


def _build_atom(cfg) -> AtomParams:
    a = cfg["atom"]
    return AtomParams(gamma=a["gamma"], gamma_p=a["gamma_p"], t_d=a["t_d"],
                      c0=complex(a["c0_re"], a["c0_im"]))


def _build_spectrum(cfg, atom: AtomParams) -> InteractionSpectrum:
    s = cfg["spectrum"]
    if s["kind"] == "lorentzian":
        return InteractionSpectrum.lorentzian(s["kappa"], gamma_p=atom.gamma_p,
                                              gamma=atom.gamma)
    if s["kind"] == "flat":
        return InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
    return InteractionSpectrum.from_csv(s["csv"], gamma_p=atom.gamma_p, gamma=atom.gamma)


def _build_pulse_and_grid(cfg, atom: AtomParams):
    """Pulse with a contained arrival plus a grid covering ring-down."""
    p = cfg["pulse"]
    g = cfg["grid"]
    kappa = cfg["spectrum"]["kappa"] if cfg["spectrum"]["kind"] == "lorentzian" else np.inf
    if p["shape"] == DELTA:
        t_a = p["t_a"] if p["t_a"] is not None else 1.0 / atom.gamma
        t_max = g["t_max"] if g["t_max"] is not None else t_a + 12.0 / atom.gamma
        pulse = PulseSpec(shape=DELTA, xi0=p["xi0"], t_a=t_a, delta0=p["delta0"])
        return pulse, _budgeted(TimeGrid.from_span(g["t0"], t_max, g["dt"]))
    auto_grid, lead = cell_grid(p["shape"], p["tau_f"], min(kappa, 1e6), atom.gamma,
                                dt=g["dt"])
    t_a = p["t_a"] if p["t_a"] is not None else g["t0"] + lead
    pulse = PulseSpec(shape=p["shape"], tau_f=p["tau_f"], delta0=p["delta0"],
                      t_a=t_a, xi0=p["xi0"])
    t_max = g["t_max"] if g["t_max"] is not None else g["t0"] + auto_grid.t_max
    return pulse, _budgeted(TimeGrid.from_span(g["t0"], t_max, g["dt"]))


def _run_solver(cfg, atom, spectrum, pulse, grid):
    solver = cfg["solver"]
    if solver == "markov" or spectrum.kind == "flat":
        return solve_markov(atom, pulse, grid)
    if solver == "volterra" or spectrum.kind == "tabulated":
        return solve_volterra(atom, spectrum, pulse, grid)
    if solver == "ode_rk4":
        return solve_ode_reduction(atom, spectrum.kappa, pulse, grid)
    return solve_closed_form_lorentzian(atom, spectrum.kappa, pulse, grid)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def run_scenario(cfg: dict) -> list[str]:
    """Execute a normalized config; returns the list of files written."""
    out = cfg["output_dir"]
    atom = _build_atom(cfg)
    scenario = cfg["scenario"]
    if scenario == "simulate":
        spectrum = _build_spectrum(cfg, atom)
        pulse, grid = _build_pulse_and_grid(cfg, atom)
        span = (grid.n - 1) * grid.dt
        if span >= spectrum.alias_horizon:
            raise ConfigError("grid.t_max", f"grid span {span:g} reaches the tabulated spectrum's "
                                            f"alias horizon 2*pi/h = {spectrum.alias_horizon:g} "
                                            "(h = largest node gap)")
        if cfg["solver"] == "ode_rk4" and spectrum.kind == "lorentzian":
            try:
                check_ode_step(atom.gamma, spectrum.kappa, grid.dt)
            except ValueError as exc:
                raise ConfigError("grid.dt", str(exc)) from None
        traj = _run_solver(cfg, atom, spectrum, pulse, grid)
        base = os.path.join(out, "trajectory")
        write_trajectory(base, traj, {"config": cfg})
        return [base + ".csv", base + ".json"]
    if scenario == "decay":
        atom_exc = AtomParams(gamma=atom.gamma, gamma_p=atom.gamma_p, t_d=atom.t_d, c0=1.0)
        grid = _budgeted(TimeGrid.from_span(
            cfg["grid"]["t0"], cfg["grid"]["t_max"] or cfg["grid"]["t0"] + 8.0 / atom.gamma,
            cfg["grid"]["dt"]))
        traj = spontaneous_decay(atom_exc, cfg["spectrum"]["kappa"], grid)
        base = os.path.join(out, "decay")
        write_trajectory(base, traj, {"config": cfg})
        return [base + ".csv", base + ".json"]
    if scenario == "delta_rise":
        grid = _budgeted(TimeGrid.from_span(
            cfg["grid"]["t0"], cfg["grid"]["t_max"] or cfg["grid"]["t0"] + 2.0 / atom.gamma,
            cfg["grid"]["dt"]))
        kappa = cfg["spectrum"]["kappa"]
        c_r, dc_r = delta_pulse_rise(atom, kappa, grid)
        sat = c_r[-1]
        c_r_markov = np.where(grid.times - grid.t0 >= atom.t_d,
                              np.exp(0.5 * atom.gamma * atom.t_d), 0.0)
        base = os.path.join(out, "delta_rise")
        write_csv(base + ".csv", ["t", "C_R", "dC_R_dt", "C_R_markov"],
                  [grid.times, c_r, dc_r, c_r_markov])
        write_json(base + ".json", {"config": cfg, "saturation": float(sat.real)})
        return [base + ".csv", base + ".json"]
    if scenario == "sweep":
        sw = cfg["sweep"]
        tau_f_grid = _axis(sw["tau_f"])
        kappa_grid = _axis(sw["kappa"])
        result = sweep_pmax(atom, cfg["pulse"]["shape"], tau_f_grid, kappa_grid,
                            solver=cfg["solver"])
        base = os.path.join(out, "sweep")
        write_sweep(base, result, {"config": cfg})
        return [base + ".csv", base + ".json"]
    if scenario == "detector_compare":
        return _detector_compare(cfg, atom, out)
    if scenario == "figure":
        return reproduce_figure(cfg["figure_id"], cfg)
    raise ConfigError("scenario", f"unhandled scenario {scenario!r}")


def _axis(ax) -> np.ndarray:
    if ax["num"] == 1:
        return np.array([float(ax["start"])])
    if ax["spacing"] == "log":
        return np.logspace(np.log10(ax["start"]), np.log10(ax["stop"]), ax["num"])
    return np.linspace(ax["start"], ax["stop"], ax["num"])


def _detector_compare(cfg, atom, out) -> list[str]:
    pulse, grid = _build_pulse_and_grid(cfg, atom)
    n_bar = cfg["pulse"]["n_bar"]
    flat = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
    traces = {
        "linear_fock": linear_response(atom, pulse, "fock", grid, flat),
        "linear_coherent": linear_response(atom, pulse, "coherent", grid, flat, n_bar=n_bar),
        "atom_fock": fock_atom_response(atom, pulse, grid),
        "atom_bloch_coherent": bloch_response(
            atom, CoherentPulseSpec(base=pulse, n_bar=n_bar), grid),
    }
    written = []
    for name, trace in sorted(traces.items()):
        base = os.path.join(out, name)
        write_detector_trace(base, trace, {"config": cfg})
        written += [base + ".csv", base + ".json"]
    return written


# ---------------------------------------------------------------------------
# figure presets: frozen parameter sets for the bundled scenarios (gamma = 1)
# ---------------------------------------------------------------------------

def reproduce_figure(fig_id: str, cfg: dict | None = None) -> list[str]:
    if fig_id not in FIGURE_IDS:
        raise ConfigError("figure_id", f"unknown figure id {fig_id!r}")
    cfg = cfg or normalize_config({"scenario": "figure", "figure_id": fig_id})
    out = os.path.join(cfg["output_dir"], fig_id)
    atom = _build_atom(cfg)
    dt = cfg["grid"]["dt"]
    written = []

    def traj_file(name, traj):
        base = os.path.join(out, name)
        write_trajectory(base, traj, {"figure": fig_id})
        written.extend([base + ".csv", base + ".json"])

    if fig_id in ("fig2a", "fig2b", "fig2c", "fig2d"):
        tau_f = {"fig2a": 0.1, "fig2b": 0.05, "fig2c": 0.01, "fig2d": 1.0}[fig_id]
        kappas = (10.0, 1.0) if fig_id == "fig2d" else (10.0,)
        grid, lead = cell_grid("gaussian", tau_f, min(kappas), atom.gamma, dt=dt)
        grid = _budgeted(grid)
        pulse = PulseSpec(shape="gaussian", tau_f=tau_f, t_a=lead)
        traj_file("markov", solve_markov(atom, pulse, grid))
        for kap in kappas:
            traj_file(f"lorentzian_k{kap:g}",
                      solve_closed_form_lorentzian(atom, kap, pulse, grid))
    elif fig_id == "fig3":
        kappa = 10.0 * atom.gamma
        grid = _budgeted(TimeGrid.from_span(0.0, 2.0 / atom.gamma, dt))
        c_r, dc_r = delta_pulse_rise(atom, kappa, grid)
        c_r_markov = np.ones(grid.n)
        base = os.path.join(out, "delta_rise")
        write_csv(base + ".csv", ["t", "C_R", "dC_R_dt", "C_R_markov"],
                  [grid.times, c_r, dc_r, c_r_markov])
        write_json(base + ".json", {"figure": fig_id, "kappa": kappa})
        written.extend([base + ".csv", base + ".json"])
    elif fig_id in ("fig4d", "fig4e", "fig4f"):
        shape = {"fig4d": "gaussian", "fig4e": "decaying_exp", "fig4f": "rising_exp"}[fig_id]
        sw = cfg["sweep"]
        result = sweep_pmax(atom, shape, _axis(sw["tau_f"]), _axis(sw["kappa"]),
                            solver=cfg["solver"] if cfg["solver"] != "markov" else "closed_form")
        base = os.path.join(out, f"sweep_{shape}")
        write_sweep(base, result, {"figure": fig_id})
        written.extend([base + ".csv", base + ".json"])
    elif fig_id in ("fig5a", "fig5b"):
        pulse_cfg = {"shape": "gaussian", "tau_f": 1.0 / atom.gamma}
        sub = dict(cfg)
        sub["pulse"] = {**cfg["pulse"], **pulse_cfg}
        pulse, grid = _build_pulse_and_grid(sub, atom)
        flat = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
        if fig_id == "fig5a":
            fock = linear_response(atom, pulse, "fock", grid, flat)
            coh = linear_response(atom, pulse, "coherent", grid, flat, n_bar=1.0)
            base = os.path.join(out, "linear_detector")
            write_csv(base + ".csv", ["t", "y_fock", "y_coherent"],
                      [grid.times, fock.y, coh.y])
        else:
            fock = fock_atom_response(atom, pulse, grid)
            bloch = bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=1.0), grid)
            base = os.path.join(out, "nonlinear_detector")
            write_csv(base + ".csv", ["t", "y_fock", "y_coherent"],
                      [grid.times, fock.y, bloch.y])
        write_json(base + ".json", {"figure": fig_id, "tau_f": pulse.tau_f})
        written.extend([base + ".csv", base + ".json"])
    elif fig_id == "fig6":
        kappas = (1.0, 2.0, 5.0, 10.0, 100.0)
        grid = _budgeted(TimeGrid.from_span(0.0, 8.0 / atom.gamma, dt))
        atom_exc = AtomParams(gamma=atom.gamma, gamma_p=atom.gamma_p, c0=1.0)
        cols = [grid.times]
        headers = ["t"]
        for kap in kappas:
            traj = spontaneous_decay(atom_exc, kap * atom.gamma, grid)
            cols.append(traj.p)
            headers.append(f"P_kappa_{kap:g}")
        base = os.path.join(out, "decay_curves")
        write_csv(base + ".csv", headers, cols)
        write_json(base + ".json", {"figure": fig_id, "kappas": list(kappas)})
        written.extend([base + ".csv", base + ".json"])
    return written


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    def setdefaulted(section, key, value):
        if value is not None:
            raw.setdefault(section, {})[key] = value

    setdefaulted("atom", "mode_fraction", args.gamma_p_ratio)
    setdefaulted("spectrum", "kappa", args.kappa)
    setdefaulted("pulse", "tau_f", args.tau_f)
    setdefaulted("pulse", "shape", args.pulse)
    setdefaulted("grid", "t_max", args.t_max)
    setdefaulted("grid", "dt", args.dt)
    if args.solver is not None:
        raw["solver"] = args.solver
    if args.out is not None:
        raw["output_dir"] = args.out
    return raw


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockatom",
        description="Non-Markov single-photon absorption scenarios (gamma = 1 units)")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON scenario config")
    common.add_argument("--gamma-p-ratio", type=float, dest="gamma_p_ratio",
                        help="pulse-mode fraction gamma_p/gamma")
    common.add_argument("--kappa", type=float, help="interaction spectrum width")
    common.add_argument("--tau-f", type=float, dest="tau_f", help="pulse length")
    common.add_argument("--pulse", choices=PULSE_SHAPES, help="pulse shape")
    common.add_argument("--solver", choices=SOLVERS)
    common.add_argument("--t-max", type=float, dest="t_max")
    common.add_argument("--dt", type=float)
    common.add_argument("--out", help="output directory (default $FOCKATOM_OUT or ./out)")
    for name in ("simulate", "sweep", "decay", "delta-rise", "detector-compare"):
        sub.add_parser(name, parents=[common])
    fig = sub.add_parser("figure", parents=[common])
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    val = sub.add_parser("validate")
    val.add_argument("config_path")
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = normalize_config(_load_config(args.config_path))
            json.dump(cfg, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        raw = _apply_overrides(_load_config(args.config), args)
        raw["scenario"] = args.command.replace("-", "_")
        if args.command == "figure":
            raw["figure_id"] = args.figure_id
        cfg = normalize_config(raw)
        written = run_scenario(cfg)
        for path in written:
            print(path)
        return 0
    except ConfigError as exc:
        json.dump({"error": exc.message, "field": exc.field}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ValueError, OSError) as exc:
        json.dump({"error": str(exc), "field": None}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
