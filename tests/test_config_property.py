"""Whole-config robustness: every config runs to finite CSVs or exits 2 naming a field."""

import json
import math
import os
import pathlib
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fockatom import analysis, cli
from fockatom.dynamics import MODE_FRACTION_PRESETS, AtomParams
from fockatom.pulses import PULSE_SHAPES
from fockatom.spectra import InteractionSpectrum, memory_kernel


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
    # s.csv, and the two tables of the oversize tabulated drives: wide.csv (+-2000 in
    # steps of 0.5, kappa = 10) and sparse.csv (+-1e6 in 401 rows)
    for name, d, kappa in (("s.csv", np.linspace(-100.0, 100.0, 2001), 5.0),
                           ("wide.csv", np.linspace(-2000.0, 2000.0, 8001), 10.0),
                           ("sparse.csv", np.linspace(-1e6, 1e6, 401), 10.0)):
        g2 = (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
        (root / name).write_text("delta,g2\n" + "\n".join(f"{x},{y}" for x, y in zip(d, g2)))
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


TABLE_SPAN, TABLE_DT = 4.0, 0.02  # the grid every drawn table runs on


@st.composite
def _tables(draw):
    """A Lorentzian table, uniform at a random spacing, with up to two faults drawn into it.

    Returns the CSV text and whether no fault was drawn.
    """
    h = draw(st.floats(0.02, 3.0))  # alias horizon 2*pi/h, above TABLE_SPAN up to h = 1.57
    d = draw(st.floats(-150.0, 20.0)) + h * np.arange(draw(st.integers(0, 300)))
    g2 = (1.0 / (2 * np.pi)) / ((d / draw(st.floats(1.0, 10.0))) ** 2 + 1.0)
    rows = [[repr(x), repr(y)] for x, y in zip(d.tolist(), g2.tolist())]
    faults = draw(st.lists(st.sampled_from(["gap", "short", "negative", "nan", "inf", "-inf"]),
                           max_size=2)) if rows else []
    for fault in faults:
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "gap":  # widen the gap before row i
            wider = draw(st.sampled_from([1e-4, 0.01, 0.5])) * h
            for row in rows[i:]:
                row[0] = repr(float(row[0]) + wider)
        elif fault == "short":
            rows[i] = rows[i][:1]
        elif fault == "negative":
            rows[i][-1] = "-1e-3"
        else:  # a non-finite delta or g2
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = fault
    text = "delta,g2\n" + "".join(",".join(row) + "\n" for row in rows)
    return text, not faults and len(rows) >= 2


# a clean table over [-150, 150] in steps of 1 (alias horizon 6.3)
_WIDE_TABLE = "delta,g2\n" + "".join(f"{x!r},{1.0 / (2 * np.pi) / ((x / 5.0) ** 2 + 1.0)!r}\n"
                                      for x in np.linspace(-150.0, 150.0, 301).tolist())


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(table=(_WIDE_TABLE, True), tau_f=1.0, delta0=2.5)  # 4201 nodes: runs
@example(table=(_WIDE_TABLE, True), tau_f=2000.0, delta0=120.0)  # 1.9e7 nodes: refused
@given(table=_tables(), tau_f=st.sampled_from([0.25, 0.05, 1.0, 8.0, 300.0, 2000.0]),
       delta0=st.sampled_from([0.0, 2.5, -30.0, 120.0, -180.0]))
def test_every_table_runs_right_or_exits_2_naming_it(work, capsys, table, tau_f, delta0):
    # the drive's detuning window |delta| <= |delta0| + 50/tau_f, in steps of at most
    # 1/(40 tau_f): a long pulse (tau_f up to 2000) with a carrier needs more nodes than the
    # budget, a short one may miss the table, and |delta0| dt > pi aliases the carrier
    text, clean = table
    path = os.path.join(work, "table.csv")
    with open(path, "w") as fh:
        fh.write(text)
    cfg = {"spectrum": {"kind": "tabulated", "csv": path},
           "pulse": {"tau_f": tau_f, "delta0": delta0},
           "grid": {"t_max": TABLE_SPAN, "dt": TABLE_DT}}
    code, csvs = _run(work, "simulate", cfg)
    err = capsys.readouterr().err
    if code == 2:
        payload = json.loads(err)
        field = payload["field"]
        if field == "grid.t_max":
            assert InteractionSpectrum.from_csv(path).alias_horizon <= TABLE_SPAN
        elif field == "grid.dt":
            assert abs(delta0) * TABLE_DT > np.pi, (text, err)
        elif field in ("pulse.delta0", "pulse.tau_f"):
            assert "detuning nodes, over the budget" in payload["error"], (text, err)
        else:
            assert field == "spectrum.csv", (text, err)
            assert not clean or "does not overlap" in payload["error"], (text, err)
        return
    assert code == 0 and all(_all_finite(p) for p in csvs), (text, err)
    # the half-step kernel of the Volterra weights against the direct phase sum
    kernel = memory_kernel(InteractionSpectrum.from_csv(path))
    n = round(2 * TABLE_SPAN / TABLE_DT) + 1
    tau = 0.5 * TABLE_DT * np.arange(n)
    want = np.exp(-1j * np.outer(tau, kernel._nodes)) @ kernel._weights
    got = kernel.uniform(0.0, 0.5 * TABLE_DT, n)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), text


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
    # a grid whose sample times would repeat, and a span below one step of a grid.t_max unset
    ("simulate", {"grid": {"t0": 1e13}}, "grid.t0"),
    ("simulate", {"atom": {"gamma": 6e49}, "pulse": {"shape": "delta"}}, "grid.dt"),
    ("delta-rise", {"spectrum": {"kappa": 0.5}}, "spectrum.kappa"),
    ("detector-compare", {"pulse": {"shape": "delta"}}, "pulse.shape"),
    ("detector-compare", {"pulse": {"delta0": 0.5}}, "pulse.delta0"),
    ("decay", {"spectrum": {"kind": "flat", "kappa": -1}}, "spectrum.kappa"),
    ("simulate", {"pulse": {"shape": "rising_exp"}, "grid": {"dt": 1.0}}, "grid.dt"),
    # the field the user set, not the one derived from it
    ("simulate", {"grid": {"t0": 1e308}}, "grid.t0"),
    ("simulate", {"pulse": {"t_a": 1e308}}, "pulse.t_a"),
    ("simulate", {"pulse": {"t_a": -50}}, "pulse.t_a"),
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
    # an axis of several cells needs stop > start: a single cell takes start alone
    ("sweep", {"sweep": {"tau_f": {"num": 2, "start": 1, "stop": 1}}}, "sweep.tau_f.stop"),
    # and its values must strictly ascend: three cells an ulp apart repeat a value
    ("sweep", {"sweep": {"tau_f": {"num": 3, "start": 1, "stop": 1.0000000000000002},
                         "kappa": {"num": 1}}}, "sweep.tau_f.stop"),
    ("sweep", {"sweep": {"tau_f": {"num": 1},
                         "kappa": {"num": 3, "start": 1, "stop": 1.0000000000000002,
                                   "spacing": "linear"}}}, "sweep.kappa.stop"),
    # validate builds every model input, so it reads the spectrum table
    ("validate", {"spectrum": {"kind": "tabulated", "csv": "missing.csv"}}, "spectrum.csv"),
    ("validate", {"scenario": "detector_compare", "pulse": {"n_bar": -1}}, "pulse.n_bar"),
    # a sweep's cells take only the pulse shape: other pulse and spectrum fields would be
    # recorded in the sidecar but not run
    ("sweep", {"pulse": {"delta0": 0.5}}, "pulse.delta0"),
    ("sweep", {"pulse": {"tau_f": 2.0}}, "pulse.tau_f"),
    ("sweep", {"pulse": {"shape": "rising_exp", "xi0": 0.2}}, "pulse.xi0"),
    ("sweep", {"spectrum": {"kind": "flat"}}, "spectrum.kind"),
    ("sweep", {"spectrum": {"kappa": 5.0}}, "spectrum.kappa"),
    ("figure fig4e", {"pulse": {"delta0": 0.5}}, "pulse.delta0"),
    # decay and delta-rise read only spectrum.kappa of the two sections; fig6 runs decay
    ("decay", {"pulse": {"shape": "delta"}}, "pulse.shape"),
    ("delta-rise", {"spectrum": {"kind": "flat"}}, "spectrum.kind"),
    ("figure fig6", {"pulse": {"tau_f": 2.0}}, "pulse.tau_f"),
    # simulate reads the fields of its spectrum kind and pulse shape: a flat spectrum has no
    # kappa, a table no kappa and the others no table, a delta pulse no length or carrier,
    # a normalizable one no amplitude xi0, and no pulse a photon number n_bar
    ("simulate", {"spectrum": {"kind": "flat", "kappa": 5.0}, "pulse": {"xi0": 0.3, "n_bar": 4.0}},
     "pulse.xi0"),
    ("simulate", {"spectrum": {"kind": "flat", "kappa": 5.0}}, "spectrum.kappa"),
    ("simulate", {"spectrum": {"kind": "tabulated", "kappa": 5.0}}, "spectrum.kappa"),
    ("simulate", {"spectrum": {"csv": "table.csv"}}, "spectrum.csv"),
    ("simulate", {"pulse": {"n_bar": 4.0}}, "pulse.n_bar"),
    ("simulate", {"pulse": {"shape": "delta", "n_bar": 4.0}}, "pulse.n_bar"),
    ("simulate", {"pulse": {"shape": "rising_exp", "xi0": 0.3}}, "pulse.xi0"),
    ("simulate", {"pulse": {"shape": "delta", "tau_f": 2.0}}, "pulse.tau_f"),
    ("simulate", {"pulse": {"shape": "delta", "delta0": 0.5}}, "pulse.delta0"),
    ("figure fig2a", {"pulse": {"n_bar": 2.0}}, "pulse.n_bar"),
    # a long detuned pulse on a wide table: its drive quadrature would take 8e7 detuning
    # nodes (a 640 MB linspace, then a 1.2 GiB array), on a sparse one 4e10; refused unbuilt
    ("simulate", {"spectrum": {"kind": "tabulated", "csv": "wide.csv"},
                  "pulse": {"tau_f": 1000, "delta0": 1000, "t_a": 5}, "grid": {"t_max": 10}},
     "pulse.delta0"),
    ("simulate", {"spectrum": {"kind": "tabulated", "csv": "sparse.csv"},
                  "pulse": {"tau_f": 1000, "delta0": 5e5}, "grid": {"t_max": 1e-3, "dt": 1e-6}},
     "pulse.delta0"),
    # a field no input is built from, in any section: detector-compare's pulse is never a
    # delta, decay runs from c0 = 1 and delta-rise from no amplitude, a flat spectrum fixes
    # its solver, decay and detector-compare never read one, and only a sweep reads its axes
    ("detector-compare", {"pulse": {"xi0": 0.3}, "spectrum": {"kind": "flat", "kappa": 5}},
     "pulse.xi0"),
    ("decay", {"atom": {"c0_re": 0.5}}, "atom.c0_re"),
    ("decay", {"solver": "volterra"}, "solver"),
    ("delta-rise", {"atom": {"c0_re": 0.5}}, "atom.c0_re"),
    ("simulate", {"spectrum": {"kind": "flat"}, "solver": "ode_rk4"}, "solver"),
    ("simulate", {"sweep": {"tau_f": {"num": 2}}}, "sweep.tau_f"),
    ("decay", {"sweep": {"kappa": {"start": 1.0}}}, "sweep.kappa"),
    ("detector-compare", {"solver": "volterra"}, "solver"),
    ("validate", {"scenario": "decay", "solver": "volterra"}, "solver"),
    # gamma_p fixes the rate mode_fraction would derive; markov is the flat spectrum's
    # solver, reached only through its kind
    ("simulate", {"atom": {"gamma_p": 0.5, "mode_fraction": 0.7}}, "atom.mode_fraction"),
    ("simulate", {"solver": "markov"}, "solver"),
    ("validate", {"scenario": "sweep", "solver": "markov"}, "solver"),
    # a flag is its config field: its value is checked, and refused, as that field's
    ("simulate --solver markov", {}, "solver"),
    ("simulate --kappa abc", {}, "spectrum.kappa"),
    ("simulate --pulse square", {}, "pulse.shape"),
    ("simulate --gamma-p-ratio bogus", {}, "atom.mode_fraction"),
    ("figure fig99", {}, "figure_id"),
    # an enumerated field takes only its names, checked with its type in any scenario
    ("sweep", {"sweep": {"tau_f": {"spacing": "cubic"}}}, "sweep.tau_f.spacing"),
    ("simulate", {"spectrum": {"kind": "junk"}}, "spectrum.kind"),
    ("simulate", {"figure_id": "fig99"}, "figure_id"),
])
def test_refusal_names_the_config_field(tmp_path, capsys, work, command, cfg, field):
    if cfg.get("spectrum", {}).get("kind") == "tabulated":  # a table of the work directory
        cfg["spectrum"]["csv"] = os.path.join(work, cfg["spectrum"].get("csv", "s.csv"))
    code, csvs = _run(str(tmp_path), command, cfg)
    payload = json.loads(capsys.readouterr().err)
    assert (code, payload["field"]) == (2, field), payload
    assert csvs == []


def test_fig3_and_fig6_accept_atom_fields(tmp_path, capsys):
    # fig3 reads atom.t_d and not atom.mode_fraction, fig6's decay runs read neither
    for fig in ("fig3", "fig6"):
        code, csvs = _run(str(tmp_path), f"figure {fig}",
                          {"atom": {"mode_fraction": 0.7, "t_d": 0.1}})
        assert code == 0 and csvs, (fig, capsys.readouterr().err)


# one valid value per settable field, away from its default and from each base config's
ALTERNATES = {
    "atom.gamma": 1.5, "atom.gamma_p": 0.5, "atom.mode_fraction": 0.5, "atom.t_d": 0.1,
    "atom.c0_re": 0.5, "atom.c0_im": 0.5, "spectrum.kind": "flat", "spectrum.kappa": 5.0,
    "spectrum.csv": "s.csv", "pulse.shape": "decaying_exp", "pulse.tau_f": 2.0,
    "pulse.delta0": 0.5, "pulse.t_a": 5.0, "pulse.xi0": 0.3, "pulse.n_bar": 2.0,
    "grid.t0": 1.0, "grid.t_max": 30.0, "grid.dt": 0.02, "solver": "ode_rk4",
}
# each scenario's base config: a coarse grid, a small sweep, and a detector-compare
# spectrum (kappa = 1 < 2 gamma) that moves its grid
BASES = {
    "simulate": {"grid": {"dt": 0.01}},
    "decay": {"grid": {"dt": 0.01}},
    "delta-rise": {"grid": {"dt": 0.01}},
    "detector-compare": {"grid": {"dt": 0.01}, "spectrum": {"kappa": 1.0}},
    "sweep": {"sweep": {"tau_f": {"start": 0.5, "stop": 2.0, "num": 2},
                        "kappa": {"start": 1.0, "stop": 10.0, "num": 2}}},
}
# the atom is built from gamma, gamma_p (or atom.mode_fraction) and t_d in every scenario,
# though decay's excited atom has no drive to take gamma_p or delay, and the delta-rise
# window has no gamma_p
UNMOVED = {("decay", "atom.gamma_p"), ("decay", "atom.mode_fraction"), ("decay", "atom.t_d"),
           ("delta-rise", "atom.gamma_p"), ("delta-rise", "atom.mode_fraction")}


def _csv_bytes(work, command, cfg):
    """Exit code of one CLI run and the bytes of each CSV it wrote, by path in the output."""
    code, csvs = _run(work, command, cfg)
    out = os.path.join(work, "out")
    return code, {os.path.relpath(path, out): pathlib.Path(path).read_bytes() for path in csvs}


@pytest.fixture(scope="module")
def base_csvs(work):
    return {command: _csv_bytes(work, command, cfg) for command, cfg in BASES.items()}


@pytest.mark.parametrize("field", sorted(ALTERNATES))
@pytest.mark.parametrize("command", sorted(BASES))
def test_a_field_set_moves_the_output_or_is_refused(work, base_csvs, capsys, command, field):
    # a run that accepts a field must compute from it: some CSV differs from the base run's
    assert base_csvs[command][0] == 0
    *section, key = field.split(".")
    cfg = json.loads(json.dumps(BASES[command]))
    (cfg.setdefault(section[0], {}) if section else cfg)[key] = ALTERNATES[field]
    code, csvs = _csv_bytes(work, command, cfg)
    err = capsys.readouterr().err
    if code == 2:
        assert json.loads(err)["field"] in FIELDS, err
    else:
        assert code == 0, err
        assert (csvs != base_csvs[command][1]) != ((command, field) in UNMOVED), cfg


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
