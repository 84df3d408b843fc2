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
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .analysis import SOLVERS, SweepResult, cell_span, solve, sweep_pmax
from .detectors import DetectorTrace, bloch_response, fock_atom_response, linear_response
from .dynamics import (
    MODE_FRACTION_PRESETS,
    AtomParams,
    Trajectory,
    delta_pulse_rise,
    spontaneous_decay,
)
from .grids import MAX_GRID_SAMPLES, MIN_SCALE, ParameterError, TimeGrid, check_range
from .pulses import NORMALIZABLE_SHAPES, PULSE_SHAPES, CoherentPulseSpec, PulseSpec
from .serialize import (
    write_csv,
    write_detector_trace,
    write_json,
    write_sweep,
    write_trajectory,
)
from .spectra import InteractionSpectrum

SCENARIOS = ("simulate", "sweep", "decay", "delta_rise", "detector_compare", "figure")


class _Columns(NamedTuple):
    """One CSV: the time column, then column attr of each run, headed by its key."""

    attr: str
    runs: dict


def _from(scenario: str, output: str | None = None, **sections) -> tuple[dict, str]:
    """A figure run: its config overrides and the scenario output it takes."""
    return {"scenario": scenario, **sections}, output or scenario


def _fig2(tau_f: float, kappas, **grid) -> dict:
    spectra = {f"lorentzian_k{k:g}": {"kind": "lorentzian", "kappa": k} for k in kappas}
    pulse = {"shape": "gaussian", "tau_f": tau_f}
    return {name: _from("simulate", "trajectory", pulse=pulse, spectrum=spec, grid=grid)
            for name, spec in {"markov": {"kind": "flat"}, **spectra}.items()}


_FIG5_PULSE = {"shape": "gaussian", "tau_f": 1.0, "n_bar": 1.0}

# Figure presets, gamma = 1 literals: figure id -> {file name: contents}. A
# file is one run, written as its scenario writes it, or _Columns joining one
# column of several runs. Config fields a preset does not set keep their
# configured values.
FIGURES = {
    "fig2a": _fig2(0.1, [10.0]),
    "fig2b": _fig2(0.05, [10.0]),
    "fig2c": _fig2(0.01, [10.0]),
    "fig2d": _fig2(1.0, [10.0, 1.0], t_max=25.0),  # all on the kappa = 1 ring-down grid
    "fig3": {"delta_rise": _from("delta_rise", spectrum={"kappa": 10.0})},
    "fig4d": {"sweep_gaussian": _from("sweep", pulse={"shape": "gaussian"})},
    "fig4e": {"sweep_decaying_exp": _from("sweep", pulse={"shape": "decaying_exp"})},
    "fig4f": {"sweep_rising_exp": _from("sweep", pulse={"shape": "rising_exp"})},
    "fig5a": {"linear_detector": _Columns("y", {
        "y_fock": _from("detector_compare", "linear_fock", pulse=_FIG5_PULSE),
        "y_coherent": _from("detector_compare", "linear_coherent", pulse=_FIG5_PULSE)})},
    "fig5b": {"nonlinear_detector": _Columns("y", {
        "y_fock": _from("detector_compare", "atom_fock", pulse=_FIG5_PULSE),
        "y_coherent": _from("detector_compare", "atom_bloch_coherent", pulse=_FIG5_PULSE)})},
    "fig6": {"decay_curves": _Columns("p", {f"P_kappa_{k:g}": _from("decay", spectrum={"kappa": k})
                                            for k in (1.0, 2.0, 5.0, 10.0, 100.0)})},
}
FIGURE_IDS = tuple(FIGURES)


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

# The pulse and spectrum fields a scenario reads, for the scenarios that read only some,
# keyed by the scenario and, where it depends on them, by (scenario, spectrum.kind) and
# (scenario, pulse.shape): a sidecar records the config, so any other field of those
# sections set away from its default is refused rather than recorded and not run. A sweep
# cell's tau_f and kappa come from the sweep axes. A simulated delta pulse is its
# amplitude xi0 alone; a normalizable one has no amplitude, but a length and a carrier.
_READS = {
    "sweep": ("pulse.shape",),
    "decay": ("spectrum.kappa",),
    "delta_rise": ("spectrum.kappa",),
    "simulate": ("spectrum.kind", "pulse.shape", "pulse.t_a"),
    ("simulate", "lorentzian"): ("spectrum.kappa",),
    ("simulate", "tabulated"): ("spectrum.csv",),
    ("simulate", "delta"): ("pulse.xi0",),
    **{("simulate", shape): ("pulse.tau_f", "pulse.delta0") for shape in NORMALIZABLE_SHAPES},
}

# fields that may be null, with their type; the others are typed by their default
_NULLABLE = {"atom.gamma_p": float, "pulse.t_a": float, "grid.t_max": float,
             "atom.mode_fraction": (str, float), "spectrum.csv": str,
             "figure_id": str, "output_dir": str}


def _merge_section(name, defaults, given):
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise ParameterError(name, "must be an object")
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ParameterError(f"{name}.{key}", "unknown key")
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
        raise ParameterError(field, "must be a string")
    integer = kind is int
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise ParameterError(field, "must be an integer" if integer else "must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, +-Infinity, or an int beyond float range
        raise ParameterError(field, "must be a finite number within the float range")
    return val


def normalize_config(raw: dict) -> dict:
    """Apply defaults, reject unknown keys, and check types and enumerations.

    Ranges are left to the model constructors, which refuse by parameter
    name (`main` maps the name to its config field).
    """
    cfg = {}
    for key, default in _DEFAULTS.items():
        if isinstance(default, dict):
            cfg[key] = _merge_section(key, default, raw.get(key))
        else:
            cfg[key] = _typed(key, default, raw[key]) if key in raw else default
    for key in raw:
        if key not in _DEFAULTS:
            raise ParameterError(key, "unknown key")

    if cfg["scenario"] not in SCENARIOS:
        raise ParameterError("scenario", f"must be one of {SCENARIOS}")
    if cfg["solver"] not in SOLVERS:
        raise ParameterError("solver", f"must be one of {SOLVERS}")

    atom = cfg["atom"]
    frac = atom["mode_fraction"]
    if isinstance(frac, str) and frac not in MODE_FRACTION_PRESETS:
        raise ParameterError("atom.mode_fraction",
                             f"unknown preset; use one of {sorted(MODE_FRACTION_PRESETS)}")
    if atom["gamma_p"] is None:
        ratio = 1.0 if frac is None else MODE_FRACTION_PRESETS.get(frac, frac)
        atom["gamma_p"] = float(ratio) * atom["gamma"]

    spec = cfg["spectrum"]
    if spec["kind"] not in ("lorentzian", "flat", "tabulated"):
        raise ParameterError("spectrum.kind", "must be lorentzian, flat or tabulated")
    if spec["kind"] == "tabulated" and not spec["csv"]:
        raise ParameterError("spectrum.csv", "tabulated spectrum needs a CSV path")
    if cfg["pulse"]["shape"] not in PULSE_SHAPES:
        raise ParameterError("pulse.shape", f"must be one of {PULSE_SHAPES}")

    for axis in ("tau_f", "kappa"):
        ax = cfg["sweep"][axis]
        if ax["num"] < 1:
            raise ParameterError(f"sweep.{axis}.num", "must be >= 1")
        if ax["spacing"] not in ("log", "linear"):
            raise ParameterError(f"sweep.{axis}.spacing", "must be 'log' or 'linear'")
        if ax["start"] <= 0 and ax["spacing"] == "log":
            raise ParameterError(f"sweep.{axis}.start", "log spacing needs start > 0")
        if ax["stop"] < ax["start"]:
            raise ParameterError(f"sweep.{axis}.stop", "must be >= start")
    nums = {axis: cfg["sweep"][axis]["num"] for axis in ("tau_f", "kappa")}
    if nums["tau_f"] * nums["kappa"] > MAX_GRID_SAMPLES:
        raise ParameterError(f"sweep.{max(nums, key=nums.get)}.num",
                             f"{nums['tau_f']} x {nums['kappa']} cells exceed the budget "
                             f"of {MAX_GRID_SAMPLES}")

    if cfg["scenario"] == "figure" and cfg["figure_id"] not in FIGURE_IDS:
        raise ParameterError("figure_id", f"must be one of {FIGURE_IDS}")

    if cfg["output_dir"] is None:
        cfg["output_dir"] = os.environ.get("FOCKATOM_OUT", "out")
    return cfg


def _grid(cfg, t_max: float | None) -> TimeGrid:
    """The configured grid, ending at grid.t_max if set and at t_max otherwise."""
    g = cfg["grid"]
    return TimeGrid.from_span(g["t0"], t_max if g["t_max"] is None else g["t_max"], g["dt"])


def _build_spectrum(cfg, atom: AtomParams) -> InteractionSpectrum:
    s, rates = cfg["spectrum"], {"gamma_p": atom.gamma_p, "gamma": atom.gamma}
    if s["kind"] == "lorentzian":
        return InteractionSpectrum.lorentzian(s["kappa"], **rates)
    if s["kind"] == "flat":
        return InteractionSpectrum.flat(**rates)
    try:
        return InteractionSpectrum.from_csv(s["csv"], **rates)
    except (ValueError, OSError) as exc:
        raise ParameterError("spectrum.csv", str(exc)) from None


def _build_pulse_and_grid(cfg, atom: AtomParams, spectrum: InteractionSpectrum):
    """Pulse arriving at pulse.t_a, else at grid.t0 + the `cell_span` lead, and a grid from
    grid.t0 to grid.t_max, else to the arrival plus the trail, rounded once. The configured
    pulse is checked before the grid and the grid before the arrival, so a refusal names
    the field the user set."""
    p = cfg["pulse"]
    pulse = PulseSpec(shape=p["shape"], tau_f=p["tau_f"], delta0=p["delta0"], xi0=p["xi0"],
                      t_a=p["t_a"] or 0.0)
    kappa = spectrum.kappa if spectrum.kind == "lorentzian" else np.inf
    lead, trail = cell_span(p["shape"], p["tau_f"], min(kappa, 1e6), atom.gamma)
    t_a = cfg["grid"]["t0"] + lead if p["t_a"] is None else p["t_a"]
    grid = _grid(cfg, t_a + trail)
    return pulse.with_arrival(t_a), grid


def _axis(ax) -> np.ndarray:
    if ax["num"] == 1:
        return np.array([float(ax["start"])])
    if ax["spacing"] == "log":
        return np.logspace(np.log10(ax["start"]), np.log10(ax["stop"]), ax["num"])
    return np.linspace(ax["start"], ax["stop"], ax["num"])


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _outputs(cfg: dict) -> dict:
    """Named outputs of a non-figure scenario, each a thunk that computes it.

    Inputs are built, and so checked, here; a caller computes what it writes.
    """
    a, scenario = cfg["atom"], cfg["scenario"]
    atom = AtomParams(gamma=a["gamma"], gamma_p=a["gamma_p"], t_d=a["t_d"],
                      c0=complex(a["c0_re"], a["c0_im"]))
    kappa = cfg["spectrum"]["kappa"]
    if scenario == "sweep" and cfg["grid"] != _DEFAULTS["grid"]:
        raise ParameterError("grid", "a sweep builds each cell's grid from tau_f and kappa")
    reads = [field for key in (scenario, (scenario, cfg["spectrum"]["kind"]),
                               (scenario, cfg["pulse"]["shape"])) for field in _READS.get(key, ())]
    if "spectrum.kappa" in reads:
        check_range("kappa", kappa, MIN_SCALE)  # a field read is checked before those refused
    for section in ("pulse", "spectrum") if reads else ():
        for key, default in _DEFAULTS[section].items():
            if cfg[section][key] != default and f"{section}.{key}" not in reads:
                raise ParameterError(f"{section}.{key}", f"{scenario} reads only "
                                     f"{', '.join(reads)} of the pulse and spectrum sections")
    if scenario == "simulate":
        spectrum = _build_spectrum(cfg, atom)
        pulse, grid = _build_pulse_and_grid(cfg, atom, spectrum)
        return {"trajectory": lambda: solve(atom, spectrum, pulse, grid, cfg["solver"])}
    if scenario == "decay":
        grid = _grid(cfg, cfg["grid"]["t0"] + 8.0 / atom.gamma)
        return {"decay": lambda: spontaneous_decay(replace(atom, c0=1.0), kappa, grid)}
    if scenario == "delta_rise":
        grid = _grid(cfg, cfg["grid"]["t0"] + 2.0 / atom.gamma)

        def rise():
            c_r, dc_r = delta_pulse_rise(atom, kappa, grid)
            c_r_markov = np.where(grid.times - grid.t0 >= atom.t_d,
                                  np.exp(0.5 * atom.gamma * atom.t_d), 0.0)
            return (["t", "C_R", "dC_R_dt", "C_R_markov"], [grid.times, c_r, dc_r, c_r_markov],
                    {"saturation": float(c_r[-1])})
        return {"delta_rise": rise}
    if scenario == "sweep":
        axes = [_axis(cfg["sweep"][name]) for name in ("tau_f", "kappa")]
        return {"sweep": lambda: sweep_pmax(atom, cfg["pulse"]["shape"], *axes,
                                            solver=cfg["solver"])}
    if scenario == "detector_compare":  # the configured spectrum sets only the grid
        pulse, grid = _build_pulse_and_grid(cfg, atom, _build_spectrum(cfg, atom))
        coherent = CoherentPulseSpec(base=pulse, n_bar=cfg["pulse"]["n_bar"])
        flat = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
        return {
            "linear_fock": lambda: linear_response(atom, pulse, "fock", grid, flat),
            "linear_coherent": lambda: linear_response(atom, pulse, "coherent", grid, flat,
                                                       n_bar=coherent.n_bar),
            "atom_fock": lambda: fock_atom_response(atom, pulse, grid),
            "atom_bloch_coherent": lambda: bloch_response(atom, coherent, grid),
        }
    raise ParameterError("scenario", f"unhandled scenario {scenario!r}")


def _write(base: str, item, meta: dict) -> list[str]:
    """Write one output as base.{csv,json}; returns both paths.

    An output is a trajectory, sweep or detector trace, or else a table
    (header, columns, extra sidecar fields).
    """
    if isinstance(item, Trajectory):
        write_trajectory(base, item, meta)
    elif isinstance(item, SweepResult):
        write_sweep(base, item, meta)
    elif isinstance(item, DetectorTrace):
        write_detector_trace(base, item, meta)
    else:
        header, columns, extra = item
        write_csv(base + ".csv", header, columns)
        write_json(base + ".json", {**meta, **extra})
    return [base + ".csv", base + ".json"]


def _plan(cfg: dict) -> dict:
    """Output path base -> (thunk computing the output, sidecar fields) of a config.

    A figure runs its FIGURES preset through `_outputs`; its sidecars record
    the effective config of each run.
    """
    if cfg["scenario"] != "figure":
        return {os.path.join(cfg["output_dir"], name): (make, {"config": cfg})
                for name, make in sorted(_outputs(cfg).items())}
    fig_id = cfg["figure_id"]

    def run(overrides, output):  # overrides replace fields of cfg, section by section
        run_cfg = {key: {**val, **overrides.get(key, {})} if isinstance(val, dict)
                   else overrides.get(key, val) for key, val in cfg.items()}
        return run_cfg, _outputs(run_cfg)[output]

    def joined(attr, runs):
        traces = [make() for _, make in runs.values()]
        return (["t", *runs], [traces[0].times] + [getattr(x, attr) for x in traces],
                {"config": {head: c for head, (c, _) in runs.items()}})

    plan = {}
    for name, spec in FIGURES[fig_id].items():
        base = os.path.join(cfg["output_dir"], fig_id, name)
        if isinstance(spec, _Columns):
            runs = {head: run(*r) for head, r in spec.runs.items()}
            plan[base] = partial(joined, spec.attr, runs), {"figure": fig_id}
        else:
            run_cfg, make = run(*spec)
            plan[base] = make, {"figure": fig_id, "config": run_cfg}
    return plan


def run_scenario(cfg: dict) -> list[str]:
    """Execute a normalized config; returns the list of files written.

    Every output is computed before the first file is written.
    """
    items = {base: (make(), meta) for base, (make, meta) in _plan(cfg).items()}
    return [path for base, (item, meta) in items.items() for path in _write(base, item, meta)]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError("config", f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ParameterError("config", "top level must be a JSON object")
    return raw


_FLAGS = {"gamma_p_ratio": "atom.mode_fraction", "kappa": "spectrum.kappa", "tau_f": "pulse.tau_f",
          "pulse": "pulse.shape", "t_max": "grid.t_max", "dt": "grid.dt", "solver": "solver",
          "out": "output_dir"}


def _apply_overrides(raw: dict, args) -> dict:
    """raw with each given flag set on its _FLAGS field; a non-object section is left as is."""
    for flag, field in _FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        *section, key = field.split(".")
        node = raw.setdefault(section[0], {}) if section else raw
        if isinstance(node, dict):
            node[key] = value
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


def _config_field(name: str, raw: dict) -> str:
    """Config path of a field or model parameter name, as set in the raw config."""
    atom = raw.get("atom") or {}
    if name == "gamma_p" and atom.get("gamma_p") is None and atom.get("mode_fraction") is not None:
        return "atom.mode_fraction"  # gamma_p was derived from it
    if name == "c0":  # the larger part
        return max(("atom.c0_re", "atom.c0_im"), key=lambda f: abs(atom.get(f[5:], 0)))
    return next((f"{section}.{name}" for section, keys in _DEFAULTS.items()
                 if isinstance(keys, dict) and name in keys), name)


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    raw = {}
    try:
        if args.command == "validate":
            raw = _load_config(args.config_path)
            cfg = normalize_config(raw)
            _plan(cfg)  # builds, and so checks, every model input
            json.dump(cfg, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
        raw = _apply_overrides(_load_config(args.config), args)
        raw["scenario"] = args.command.replace("-", "_")
        if args.command == "figure":
            raw["figure_id"] = args.figure_id
        for path in run_scenario(normalize_config(raw)):
            print(path)
        return 0
    except (ValueError, OSError) as exc:  # reads raise tagged errors; an OSError left is a write
        field = getattr(exc, "field", "output_dir" if isinstance(exc, OSError) else None)
        json.dump({"error": getattr(exc, "message", str(exc)),
                   "field": field and _config_field(field, raw)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
