"""Whole-config robustness: every config runs to finite CSVs or exits 2 naming a field."""

import json
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockatom import analysis, cli
from fockatom.dynamics import MODE_FRACTION_PRESETS, AtomParams
from fockatom.pulses import PULSE_SHAPES


def _leaves(section, prefix=""):
    for key, val in section.items():
        if isinstance(val, dict) and val:
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield prefix + key, val


LEAVES = dict(_leaves(cli._DEFAULTS))
# "config", or the key path of any section or field
FIELDS = {"config", *LEAVES, *(p.rsplit(".", 1)[0] for p in LEAVES if "." in p),
          *(p.split(".")[0] for p in LEAVES)}
NUMERIC = sorted(p for p, v in LEAVES.items()
                 if type(v) in (int, float) or cli._NULLABLE.get(p) is float)
POOL = [0.0, -0.0, -1.0, -1e308, 1e-320, 1e-300, 1e308, math.nan, math.inf, -math.inf,
        0.5, 1.0, 2.0, 10.0, 3]
STRINGS = {
    "atom.mode_fraction": [*MODE_FRACTION_PRESETS, "junk", *POOL],
    "spectrum.kind": ["lorentzian", "flat", "tabulated", "junk"],
    "pulse.shape": [*PULSE_SHAPES, "junk"],
    "solver": [*analysis.SOLVERS, "junk"],
}


def _nest(flat: dict) -> dict:
    cfg = {"grid": {"dt": 0.01}}  # a coarse step unless the example draws one
    for path, val in flat.items():
        *sections, key = path.split(".")
        node = cfg
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = val
    return cfg


def _run(work, command, cfg):
    """Exit code of one CLI run and the CSV paths it wrote."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    path = os.path.join(work, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)  # NaN and Infinity literals included
    argv = ["validate", path] if command == "validate" else [*command.split(),
                                                             "--config", path, "--out", out]
    code = cli.main(argv)
    csvs = [os.path.join(root, name) for root, _, names in os.walk(out)
            for name in names if name.endswith(".csv")]
    return code, csvs


def _all_finite(csv_path) -> bool:
    with open(csv_path) as fh:
        rows = fh.read().splitlines()[1:]
    return all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    d = np.linspace(-100.0, 100.0, 2001)
    g2 = (1.0 / (2 * np.pi)) / ((d / 5.0) ** 2 + 1.0)
    (root / "s.csv").write_text("delta,g2\n" + "\n".join(f"{x},{y}" for x, y in zip(d, g2)))
    return str(root)


@st.composite
def _configs(draw, table):
    """One to four fields of the default config replaced, each from its pool."""
    pools = {**{path: POOL for path in NUMERIC}, **STRINGS,
             "spectrum.csv": [table, table + ".missing"]}
    paths = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=4, unique=True))
    return _nest({path: draw(st.sampled_from(pools[path])) for path in paths})


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_config_runs_finite_or_exits_2_with_a_field(work, capsys, data):
    command = data.draw(st.sampled_from(["validate", "simulate", "decay", "delta-rise",
                                         "detector-compare"]))
    cfg = data.draw(_configs(os.path.join(work, "s.csv")))
    code, csvs = _run(work, command, cfg)
    err = capsys.readouterr().err
    assert code in (0, 2), (command, cfg)
    if code == 2:
        assert json.loads(err)["field"] in FIELDS, (command, cfg, err)
    else:
        assert all(_all_finite(path) for path in csvs), (command, cfg)


@pytest.mark.parametrize("command, cfg, field", [
    # NaN and Infinity are JSON literals that Python's json accepts
    ("detector-compare", {"pulse": {"n_bar": math.nan}}, "pulse.n_bar"),
    ("sweep", {"sweep": {"tau_f": {"start": math.nan, "num": 2}, "kappa": {"num": 2}}},
     "sweep.tau_f.start"),
    ("simulate", {"spectrum": {"kappa": math.inf}}, "spectrum.kappa"),
    ("simulate", {"atom": {"t_d": 10**400}}, "atom.t_d"),
    # extreme finite values used to end in OverflowError or ZeroDivisionError
    ("simulate", {"grid": {"dt": 1e-320}}, "grid.dt"),
    ("simulate", {"grid": {"t_max": 1e308}}, "grid.t_max"),
    ("simulate", {"spectrum": {"kappa": 1e-320}}, "spectrum.kappa"),
    ("simulate", {"pulse": {"tau_f": 1e-320}}, "pulse.tau_f"),
    ("simulate", {"pulse": {"tau_f": 1e300}}, "pulse.tau_f"),
    # rules only a model constructor or solver made reached the user as field null
    ("simulate", {"atom": {"c0_re": 2}}, "atom.c0_re"),
    ("simulate", {"atom": {"c0_im": -2}}, "atom.c0_im"),
    ("simulate", {"grid": {"t_max": -1}}, "grid.t_max"),
    ("delta-rise", {"spectrum": {"kappa": 0.5}}, "spectrum.kappa"),
    ("detector-compare", {"pulse": {"shape": "delta"}}, "pulse.shape"),
    ("detector-compare", {"pulse": {"delta0": 0.5}}, "pulse.delta0"),
    ("decay", {"spectrum": {"kind": "flat", "kappa": -1}}, "spectrum.kappa"),
    ("simulate", {"pulse": {"shape": "rising_exp"}, "grid": {"dt": 1.0}}, "grid.dt"),
    # the field the user set, not the one derived from it
    ("simulate", {"grid": {"t0": 1e308}}, "grid.t0"),
    ("simulate", {"pulse": {"t_a": 1e308}}, "pulse.t_a"),
    ("simulate", {"atom": {"gamma": 1e308}}, "atom.gamma"),
    ("simulate", {"pulse": {"shape": "delta", "xi0": -1e308}}, "pulse.xi0"),
    ("simulate", {"pulse": {"shape": "delta"}, "spectrum": {"kind": "tabulated"}}, "pulse.shape"),
    ("simulate", {"atom": {"mode_fraction": 2}}, "atom.mode_fraction"),
    ("validate", {"atom": {"mode_fraction": 2}}, "atom.mode_fraction"),
    ("simulate", {"atom": {"gamma_p": 2}}, "atom.gamma_p"),
    # sweeps: bounded before anything is allocated, and a delta sweep before any cell runs
    ("sweep", {"sweep": {"tau_f": {"num": 1001}, "kappa": {"num": 1000}}}, "sweep.tau_f.num"),
    ("sweep", {"pulse": {"shape": "delta"}, "sweep": {"tau_f": {"num": 1}, "kappa": {"num": 1}}},
     "pulse.shape"),
    # validate builds every model input, so it reads the spectrum table
    ("validate", {"spectrum": {"kind": "tabulated", "csv": "missing.csv"}}, "spectrum.csv"),
    ("validate", {"scenario": "detector_compare", "pulse": {"n_bar": -1}}, "pulse.n_bar"),
])
def test_refusal_names_the_config_field(tmp_path, capsys, work, command, cfg, field):
    if cfg.get("spectrum", {}).get("kind") == "tabulated":
        cfg["spectrum"].setdefault("csv", os.path.join(work, "s.csv"))
    code, csvs = _run(str(tmp_path), command, cfg)
    payload = json.loads(capsys.readouterr().err)
    assert (code, payload["field"]) == (2, field), payload
    assert csvs == []


def test_sample_budget_message_is_short(tmp_path, capsys):
    code, _ = _run(str(tmp_path), "simulate", {"pulse": {"tau_f": 1e40}})
    payload = json.loads(capsys.readouterr().err)
    assert (code, payload["field"]) == (2, "grid.dt")
    assert payload["error"].startswith("1.3e+44 samples exceed the budget")


def test_tabulated_table_outside_the_pulse_window_names_the_csv(tmp_path, capsys):
    table = tmp_path / "far.csv"
    table.write_text("delta,g2\n" + "\n".join(f"{x},0.1" for x in range(200, 300)))
    code, _ = _run(str(tmp_path), "simulate",
                   {"spectrum": {"kind": "tabulated", "csv": str(table)}, "grid": {"t_max": 5.0}})
    assert (code, json.loads(capsys.readouterr().err)["field"]) == (2, "spectrum.csv")


def test_flag_on_a_section_that_is_not_an_object(tmp_path, capsys):
    # --dt used to index into the section and escape main as a TypeError
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": 5}))
    code = cli.main(["simulate", "--config", str(path), "--dt", "0.01", "--out", str(tmp_path)])
    assert (code, json.loads(capsys.readouterr().err)["field"]) == (2, "grid")


def test_unwritable_output_dir_names_output_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["decay", "--dt", "0.01", "--out", str(blocker / "sub")])
    assert (code, json.loads(capsys.readouterr().err)["field"]) == (2, "output_dir")


def test_sweep_cell_over_the_grid_budget_fails_alone():
    # tau_f = 1e-5 derives dt = 1e-6: a 1e7-sample cell grid, refused before any allocation
    sweep = analysis.sweep_pmax(AtomParams(), "gaussian", [1e-5, 1.0], [10.0])
    assert "exceed the budget" in sweep.status[0][0]
    assert sweep.status[0][1] == "ok"
