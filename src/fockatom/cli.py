"""Scenario runner: JSON configs in, plot-ready CSV bundles out.

Commands: simulate, sweep, decay, delta-rise, detector-compare, figure <id>, validate.
Configs are strict JSON: an unknown key, or a field set away from its default that the
run builds no input from or a figure preset sets to another value, exits 2 naming it, as
does a file's scenario or figure_id other than the command's. Each
command-line flag sets one config field (`_FLAGS`), overriding the file, and its value is
checked and refused as that field's value; a figure preset that sets the field to another
value refuses it even at the field's default.
Outputs are deterministic: identical configs produce byte-identical CSVs, with timestamps
confined to the JSON sidecars. The default output directory comes from the FOCKATOM_OUT
environment variable (falling back to ./out).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .analysis import SOLVERS, SweepResult, pulse_window, solve, sweep_pmax
from .detectors import DetectorTrace, bloch_response, fock_atom_response, linear_response
from .dynamics import (
    MODE_FRACTION_PRESETS,
    AtomParams,
    Trajectory,
    delta_pulse_rise,
    spontaneous_decay,
)
from .grids import MAX_GRID_SAMPLES, MIN_SCALE, ParameterError, TimeGrid, check_range
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
# configured values; one it sets refuses another value the user set.
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
    "atom": {"gamma": 1.0, "mode_fraction": None, "t_d": 0.0, "c0_re": 0.0, "c0_im": 0.0},
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
_NULLABLE = {"pulse.t_a": float, "grid.t_max": float, "atom.mode_fraction": (str, float),
             "spectrum.csv": str, "figure_id": str, "output_dir": str}
# the names an enumerated field takes (atom.mode_fraction also takes a number)
_CHOICES = {"scenario": SCENARIOS, "figure_id": FIGURE_IDS, "solver": SOLVERS,
            "spectrum.kind": ("lorentzian", "flat", "tabulated"), "pulse.shape": PULSE_SHAPES,
            "sweep.tau_f.spacing": ("log", "linear"), "sweep.kappa.spacing": ("log", "linear"),
            "atom.mode_fraction": tuple(MODE_FRACTION_PRESETS)}


def _merged(name: str, defaults: dict, given) -> dict:
    """A new dict of defaults with each field of given checked and set: the whole config at
    name "", else the section at that path, a null section being all defaults."""
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ParameterError(name, "must be an object")
    prefix = name + "." if name else ""
    for key in given:
        if key not in defaults:
            raise ParameterError(prefix + key, "unknown key")
    return {key: _merged(prefix + key, val, given.get(key)) if isinstance(val, dict)
            else _typed(prefix + key, val, given[key]) if key in given else val
            for key, val in defaults.items()}


def _typed(field: str, default, val):
    """val checked against its field's type, the _NULLABLE entry or the default's, and a
    string against the field's _CHOICES. A float field's value is returned as a float, the
    type of its _DEFAULTS entry: a figure preset is merged over the user's config,
    whose values then type the preset's, so an integer given for a float field (kappa 10)
    must not make the preset's 10.0 "not an integer". Sidecars write such values as floats."""
    kind = _NULLABLE.get(field, type(default))
    if val is None and field in _NULLABLE:
        return val
    if isinstance(val, str) and kind in (str, (str, float)):
        if field in _CHOICES and val not in _CHOICES[field]:
            raise ParameterError(field, f"must be one of {_CHOICES[field]}")
        return val
    if kind is str:
        raise ParameterError(field, "must be a string")
    integer = kind is int
    if isinstance(val, bool) or not isinstance(val, int if integer else (int, float)):
        raise ParameterError(field, "must be an integer" if integer else "must be a number")
    if not abs(val) <= sys.float_info.max:  # NaN, +-Infinity, or an int beyond float range
        raise ParameterError(field, "must be a finite number within the float range")
    return val if integer else float(val)


def normalize_config(raw: dict) -> dict:
    """Apply defaults, reject unknown keys, and check types and enumerations.

    The sweep axes are checked here: each count >= 1, the cell budget, both
    ends in the model's scale range and the values ascending. Other ranges are
    left to the model constructors, which refuse by parameter name (`main`
    maps the name to its config field).
    """
    cfg = _merged("", _DEFAULTS, raw)
    spec = cfg["spectrum"]
    if spec["kind"] == "tabulated" and not spec["csv"]:
        raise ParameterError("spectrum.csv", "tabulated spectrum needs a CSV path")

    nums = {axis: ax["num"] for axis, ax in cfg["sweep"].items()}
    for axis, num in nums.items():  # both counts, before the budget multiplies them
        if num < 1:
            raise ParameterError(f"sweep.{axis}.num", "must be >= 1")
    if nums["tau_f"] * nums["kappa"] > MAX_GRID_SAMPLES:
        raise ParameterError(f"sweep.{max(nums, key=nums.get)}.num", f"{nums['tau_f']} x "
                             f"{nums['kappa']} cells exceed the budget of {MAX_GRID_SAMPLES}")
    for axis, ax in cfg["sweep"].items():  # its values built once the budget bounds num
        for end in ("start", "stop"):
            check_range(f"sweep.{axis}.{end}", ax[end], MIN_SCALE)
        if ax["stop"] < ax["start"] or not np.all(np.diff(_axis(ax)) > 0):
            raise ParameterError(f"sweep.{axis}.stop", "must be >= start, num values ascending")

    if cfg["scenario"] == "figure" and cfg["figure_id"] is None:
        raise ParameterError("figure_id", f"must be one of {FIGURE_IDS}")

    if cfg["output_dir"] is None:
        cfg["output_dir"] = os.environ.get("FOCKATOM_OUT", "out")
    return cfg


def _grid(cfg, span: float) -> TimeGrid:
    """The configured grid: from grid.t0 to grid.t_max if set, and otherwise the whole steps
    that cover span, counted from 0 as `analysis.cell_grid` counts them and placed at grid.t0,
    so that its length depends on neither grid.t0 nor the rounding of grid.t0 + span."""
    g = cfg["grid"]
    if g["t_max"] is not None:
        return TimeGrid.from_span(g["t0"], g["t_max"], g["dt"])
    # a two-sample grid first: dt, then t0, are refused before the span, as from_span orders them
    return replace(TimeGrid(g["t0"], g["dt"], 2), n=TimeGrid.from_span(0.0, span, g["dt"]).n)


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
    """Pulse arriving at pulse.t_a, else at grid.t0 + the `pulse_window` lead, and a grid from
    grid.t0 to grid.t_max, else over the span from grid.t0 to the arrival plus the trail
    (`_grid`): at the default arrival the `cell_grid` span lead + trail, at any grid.t0. A
    flat spectrum takes the kappa -> infinity window. A delta pulse is its amplitude xi0, any
    other its length and carrier. The pulse is checked before the grid and the grid before
    the arrival, so a refusal names the field the user set; a pulse.t_a whose pulse and
    ring-down end by grid.t0 is refused on pulse.t_a. A derived grid does not span atom.t_d,
    so a delay that puts the end of the certified prefix past it is refused on atom.t_d."""
    p, t0 = cfg["pulse"], cfg["grid"]["t0"]
    form = ("xi0",) if p["shape"] == DELTA else ("tau_f", "delta0")
    pulse = PulseSpec(shape=p["shape"], t_a=p["t_a"] or 0.0, **{key: p[key] for key in form})
    kappa = spectrum.kappa if spectrum.kind == "lorentzian" else np.inf
    lead, prefix, trail = pulse_window(pulse.shape, pulse.tau_f, kappa, atom.gamma)
    t_a = t0 + lead if p["t_a"] is None else p["t_a"]
    span = lead + trail if p["t_a"] is None else (t_a - t0) + trail
    if span <= 0:
        raise ParameterError("t_a", f"pulse and ring-down end at {t_a + trail} <= grid.t0={t0}")
    if cfg["grid"]["t_max"] is None and atom.t_d > trail - prefix:
        raise ParameterError("t_d", f"t_d={atom.t_d:g} > {trail - prefix:g} moves the response "
                                    f"past the derived grid; set grid.t_max to span it")
    grid = _grid(cfg, span)
    return replace(pulse, t_a=t_a), grid


def _axis(ax) -> np.ndarray:
    if ax["num"] == 1:
        return np.array([float(ax["start"])])
    if ax["spacing"] == "log":
        return np.logspace(np.log10(ax["start"]), np.log10(ax["stop"]), ax["num"])
    return np.linspace(ax["start"], ax["stop"], ax["num"])


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

class _Recording:
    """A config, or one of its sections, adding the path of each field read to `read`."""

    def __init__(self, node: dict, read: set, section: str = ""):
        self._node, self._read, self._section = node, read, section

    def __getitem__(self, key: str):
        val = self._node[key]
        if not self._section and isinstance(val, dict):
            return _Recording(val, self._read, key + ".")
        self._read.add(self._section + key)
        return val


def _fields(cfg: dict) -> dict:
    """Path -> value of each field a scenario may read (a sweep axis whole), pulse first."""
    return {**{f"{name}.{key}": val for name in ("pulse", "spectrum", "atom", "grid", "sweep")
               for key, val in cfg[name].items()}, "solver": cfg["solver"]}


def _outputs(cfg: dict, given: dict, flagged=frozenset()) -> dict:
    """Named outputs of the scenario run cfg, each a thunk of inputs built, and so checked,
    here. A field of the user's config given set away from its `normalize_config({})` default
    is refused unless the run read it and took that value (a figure preset sets its own). A
    field set by a command-line flag (in flagged) is the user's at any value, so a preset
    that sets it to another is refused too: `figure fig4e --pulse gaussian` names
    pulse.shape. A file value equal to the default cannot be told from an unset one, so a
    preset replaces it unrefused."""
    read, ran = set(), _fields(cfg)
    cfg = _Recording(cfg, read)
    a, scenario = cfg["atom"], cfg["scenario"]
    c0 = {"decay": 1.0, "delta_rise": 0j}.get(scenario)  # decay's excited atom; no amplitude
    frac = a["mode_fraction"]  # the share of gamma into the pulse modes; null is matched
    frac = 1.0 if frac is None else MODE_FRACTION_PRESETS.get(frac, frac)
    atom = AtomParams(gamma=a["gamma"], gamma_p=float(frac) * a["gamma"], t_d=a["t_d"],
                      c0=complex(a["c0_re"], a["c0_im"]) if c0 is None else c0)
    if scenario in ("decay", "delta_rise"):  # closed forms of a Lorentzian spectrum
        check_range("kappa", kappa := cfg["spectrum"]["kappa"], MIN_SCALE)
    if scenario == "simulate":
        spectrum = _build_spectrum(cfg, atom)
        pulse, grid = _build_pulse_and_grid(cfg, atom, spectrum)
        solver = (cfg["solver"],) if spectrum.kind == "lorentzian" else ()  # others fix theirs
        outputs = {"trajectory": partial(solve, atom, spectrum, pulse, grid, *solver)}
    elif scenario == "decay":
        grid = _grid(cfg, 8.0 / atom.gamma)
        outputs = {"decay": partial(spontaneous_decay, atom, kappa, grid)}
    elif scenario == "delta_rise":
        grid = _grid(cfg, 2.0 / atom.gamma)

        def rise():
            c_r, dc_r, c_r_markov = delta_pulse_rise(atom, kappa, grid)
            return (["t", "C_R", "dC_R_dt", "C_R_markov"], [grid.times, c_r, dc_r, c_r_markov],
                    {"saturation": float(c_r[-1])})
        outputs = {"delta_rise": rise}
    elif scenario == "sweep":
        axes = [_axis(cfg["sweep"][name]) for name in ("tau_f", "kappa")]
        outputs = {"sweep": partial(sweep_pmax, atom, cfg["pulse"]["shape"], *axes,
                                    solver=cfg["solver"])}
    else:  # detector_compare: every trace, and so the window, is of the flat spectrum
        flat = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
        pulse, grid = _build_pulse_and_grid(cfg, atom, flat)
        coherent = CoherentPulseSpec(base=pulse, n_bar=cfg["pulse"]["n_bar"])
        outputs = {
            "linear_fock": partial(linear_response, atom, pulse, grid, flat),
            "linear_coherent": partial(linear_response, atom, coherent, grid, flat),
            "atom_fock": partial(fock_atom_response, atom, pulse, grid),
            "atom_bloch_coherent": partial(bloch_response, atom, coherent, grid),
        }
    defaults = _fields(normalize_config({}))
    for field, val in _fields(given).items():
        if val != defaults[field] and field not in read:
            raise ParameterError(field, f"set, but {scenario} builds no input from it")
        if val != ran[field] and (val != defaults[field] or field in flagged):  # a preset's
            raise ParameterError(field, f"set, but the run takes the preset's value {ran[field]}")
    return outputs


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


def _plan(cfg: dict, flagged=frozenset()) -> dict:
    """Output path base -> (thunk computing the output, sidecar fields) of a config.

    A figure merges each run of its FIGURES preset over cfg, as `normalize_config`
    merges a config over the defaults, and runs it through `_outputs`, with the
    fields set by command-line flags; its sidecars record the effective config
    of each run.
    """
    if cfg["scenario"] != "figure":
        return {os.path.join(cfg["output_dir"], name): (make, {"config": cfg})
                for name, make in sorted(_outputs(cfg, cfg).items())}
    fig_id = cfg["figure_id"]

    def run(overrides, output):
        run_cfg = _merged("", cfg, overrides)
        return run_cfg, _outputs(run_cfg, cfg, flagged)[output]

    def joined(attr, runs):
        traces = [make() for _, make in runs.values()]
        return (["t", *runs], [traces[0].grid.times] + [getattr(x, attr) for x in traces],
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


def run_scenario(cfg: dict, flagged=frozenset()) -> list[str]:
    """Execute a normalized config, flagged the fields set by command-line flags; returns
    the list of files written.

    Every output is computed before the first file is written.
    """
    items = {base: (make(), meta) for base, (make, meta) in _plan(cfg, flagged).items()}
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
    """raw with each given flag's text set on its _FLAGS field, as a float where the field
    takes numbers and float() reads the text: normalize_config checks it like a config value.
    A non-object section is left as is."""
    for flag, field in _FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        *section, key = field.split(".")
        default = _DEFAULTS[section[0]][key] if section else _DEFAULTS[key]
        if _NULLABLE.get(field, type(default)) is not str:
            with contextlib.suppress(ValueError):
                value = float(value)
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
    for flag, field in _FLAGS.items():
        common.add_argument("--" + flag.replace("_", "-"), dest=flag, help=f"sets {field}")
    commands = {name: sub.add_parser(name.replace("_", "-"), parents=[common])
                for name in SCENARIOS}
    commands["figure"].add_argument("figure_id")
    val = sub.add_parser("validate")
    val.add_argument("config_path")
    return parser


def _config_field(name: str, raw: dict) -> str:
    """Config path of a field or model parameter name, as set in the raw config."""
    atom = raw.get("atom") or {}
    if name == "gamma_p":  # the model's rate, set by mode_fraction
        return "atom.mode_fraction"
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
        command = {"scenario": args.command.replace("-", "_")}
        if args.command == "figure":  # another command runs a figure sidecar's config
            command["figure_id"] = args.figure_id
        for key, val in command.items():  # a file value set away from its default must agree
            if raw.get(key, _DEFAULTS[key]) not in (_DEFAULTS[key], val):
                raise ParameterError(key, f"set to {raw[key]!r}, but the command runs {val!r}")
        raw.update(command)
        flagged = {field for flag, field in _FLAGS.items() if getattr(args, flag) is not None}
        for path in run_scenario(normalize_config(raw), flagged):
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
