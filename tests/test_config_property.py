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
    # a delay: the response of t_d = 30 would lie past the derived grid (max P 6.9e-46), and
    # t_d = -5 would cut the Gaussian's lead (p_max 0.7627 for 0.8007), in a sweep cell too
    ("simulate", {"atom": {"t_d": 30.0}}, "atom.t_d"),
    ("simulate", {"atom": {"t_d": -5.0}}, "atom.t_d"),
    ("sweep", {"atom": {"t_d": -5.0}, "sweep": {"tau_f": {"start": 1.0, "num": 1},
                                              "kappa": {"start": 10.0, "num": 1}}}, "atom.t_d"),
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
    ("simulate", {"atom": {"gamma": 6e49}, "pulse": {"shape": "delta"},
                  "spectrum": {"kind": "flat"}}, "grid.dt"),
    ("delta-rise", {"spectrum": {"kappa": 0.5}}, "spectrum.kappa"),
    ("detector-compare", {"pulse": {"shape": "delta"}}, "pulse.shape"),
    ("detector-compare", {"pulse": {"delta0": 0.5}}, "pulse.delta0"),
    ("decay", {"spectrum": {"kind": "flat", "kappa": -1}}, "spectrum.kappa"),
    ("simulate", {"pulse": {"shape": "rising_exp"}, "grid": {"dt": 1.0}}, "grid.dt"),
    # a delay whose closed-form factor kappa e^(gamma t_d/2) overflows
    ("delta-rise", {"atom": {"t_d": 2000}}, "atom.t_d"),
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
    # mode_fraction alone sets the pulse-mode rate, so a config has no gamma_p; markov is
    # the flat spectrum's solver, reached only through its kind
    ("simulate", {"atom": {"gamma_p": 0.5, "mode_fraction": 0.7}}, "atom.gamma_p"),
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
    # both ends of an axis lie in its model parameter's range, linear spacing too
    ("sweep", {"sweep": {"kappa": {"start": 0, "stop": 10, "num": 3, "spacing": "linear"}}},
     "sweep.kappa.start"),
    ("sweep", {"sweep": {"kappa": {"start": -10, "stop": -1, "num": 3, "spacing": "linear"}}},
     "sweep.kappa.start"),
    ("sweep", {"sweep": {"tau_f": {"stop": 1e60}}}, "sweep.tau_f.stop"),
    # a count below 1 is refused as such, though the product of two is over the budget
    ("sweep", {"sweep": {"tau_f": {"num": -3000}, "kappa": {"num": -2000}}}, "sweep.tau_f.num"),
    # ... and before an axis is built: a huge first axis is not allocated for a count-0 second
    ("sweep", {"sweep": {"tau_f": {"num": 10_000_000_000}, "kappa": {"num": 0}}}, "sweep.kappa.num"),
    # a field a figure preset sets runs the preset's value, so another value set is refused
    ("figure fig2a", {"pulse": {"tau_f": 5.0}}, "pulse.tau_f"),
    ("figure fig3", {"spectrum": {"kappa": 20.0}}, "spectrum.kappa"),
    ("figure fig2d", {"grid": {"t_max": 30.0}}, "grid.t_max"),
    # every detector-compare trace, and so its window, is of the flat spectrum
    ("detector-compare", {"spectrum": {"kappa": 1.0}}, "spectrum.kappa"),
    # the command sets the scenario and figure id: a file may not set another
    ("simulate", {"scenario": "decay"}, "scenario"),
    ("figure fig3", {"figure_id": "fig6"}, "figure_id"),
])
def test_refusal_names_the_config_field(tmp_path, capsys, work, command, cfg, field):
    if cfg.get("spectrum", {}).get("kind") == "tabulated":  # a table of the work directory
        cfg["spectrum"]["csv"] = os.path.join(work, cfg["spectrum"].get("csv", "s.csv"))
    code, csvs = _run(str(tmp_path), command, cfg)
    payload = json.loads(capsys.readouterr().err)
    assert (code, payload["field"]) == (2, field), payload
    assert csvs == []


def test_fig3_and_fig6_accept_atom_fields(tmp_path, capsys):
    # every run builds the atom from both; fig3's output takes atom.t_d and not
    # atom.mode_fraction, fig6's decay runs take neither
    for fig in ("fig3", "fig6"):
        code, csvs = _run(str(tmp_path), f"figure {fig}",
                          {"atom": {"mode_fraction": 0.7, "t_d": 0.1}})
        assert code == 0 and csvs, (fig, capsys.readouterr().err)


def test_figure_accepts_the_value_its_preset_sets(tmp_path, capsys):
    # a field set to the value the preset runs is read and taken, so it is accepted, also
    # when the config gives a number as an integer
    small = {"tau_f": {"start": 0.5, "stop": 2.0, "num": 2}, "kappa": {"num": 1}}
    for command, cfg in [("figure fig4e --pulse decaying_exp", {"sweep": small}),
                         ("figure fig2a", {"pulse": {"tau_f": 0.1}, "grid": {"dt": 0.01}}),
                         ("figure fig3", {"spectrum": {"kappa": 10}})]:
        code, csvs = _run(str(tmp_path), command, cfg)
        assert code == 0 and csvs, (command, capsys.readouterr().err)


# one valid value per settable field, away from its default and from each base config's
ALTERNATES = {
    "atom.gamma": 1.5, "atom.mode_fraction": 0.5, "atom.t_d": 0.1,
    "atom.c0_re": 0.5, "atom.c0_im": 0.5, "spectrum.kind": "flat", "spectrum.kappa": 5.0,
    "spectrum.csv": "s.csv", "pulse.shape": "decaying_exp", "pulse.tau_f": 2.0,
    "pulse.delta0": 0.5, "pulse.t_a": 5.0, "pulse.xi0": 0.3, "pulse.n_bar": 2.0,
    "grid.t0": 1.0, "grid.t_max": 30.0, "grid.dt": 0.02, "solver": "ode_rk4",
}
# a field the config no longer has, with a value it once took: every scenario refuses it
# as an unknown key on that field, so no run drops it unread
GONE = {"atom.gamma_p": 0.5}
# each scenario's base config: a coarse grid, or a small sweep
BASES = {
    "simulate": {"grid": {"dt": 0.01}},
    "decay": {"grid": {"dt": 0.01}},
    "delta-rise": {"grid": {"dt": 0.01}},
    "detector-compare": {"grid": {"dt": 0.01}},
    "sweep": {"sweep": {"tau_f": {"start": 0.5, "stop": 2.0, "num": 2},
                        "kappa": {"start": 1.0, "stop": 10.0, "num": 2}}},
}
# the atom is built from gamma, atom.mode_fraction (its gamma_p) and t_d in every scenario,
# though decay's excited atom has no drive to take gamma_p or delay, and the delta-rise
# window has no gamma_p
UNMOVED = {("decay", "atom.mode_fraction"), ("decay", "atom.t_d"),
           ("delta-rise", "atom.mode_fraction")}


def _csv_bytes(work, command, cfg):
    """Exit code of one CLI run and the bytes of each CSV it wrote, by path in the output."""
    code, csvs = _run(work, command, cfg)
    out = os.path.join(work, "out")
    return code, {os.path.relpath(path, out): pathlib.Path(path).read_bytes() for path in csvs}


@pytest.fixture(scope="module")
def base_csvs(work):
    return {command: _csv_bytes(work, command, cfg) for command, cfg in BASES.items()}


@pytest.mark.parametrize("field", sorted({**ALTERNATES, **GONE}))
@pytest.mark.parametrize("command", sorted(BASES))
def test_a_field_set_moves_the_output_or_is_refused(work, base_csvs, capsys, command, field):
    # a run that accepts a field must compute from it: some CSV differs from the base run's
    assert base_csvs[command][0] == 0
    *section, key = field.split(".")
    cfg = json.loads(json.dumps(BASES[command]))
    (cfg.setdefault(section[0], {}) if section else cfg)[key] = {**ALTERNATES, **GONE}[field]
    code, csvs = _csv_bytes(work, command, cfg)
    err = capsys.readouterr().err
    if field in GONE:
        assert (code, json.loads(err)["field"]) == (2, field), err
    elif code == 2:
        assert json.loads(err)["field"] in FIELDS, err
    else:
        assert code == 0, err
        assert (csvs != base_csvs[command][1]) != ((command, field) in UNMOVED), cfg


DELAY_DT = 2.0 ** -9  # grid.t0, t_d and a set arrival are whole steps of it, exactly


def _simulate_peak(work, capsys, cfg):
    """`fockatom validate` of a simulate config: exit 2 and the field it names, or exit 0 and
    the refined peak of the trajectory simulate computes."""
    code, _ = _run(work, "validate", cfg)
    err = capsys.readouterr().err
    if code:
        return code, json.loads(err)["field"]
    [(make, _)] = cli._plan(cli.normalize_config(cfg)).values()
    traj = make()
    return code, analysis._refine_peak(traj.grid, traj.p, int(np.argmax(traj.p)))[1]


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(shape=st.sampled_from(PULSE_SHAPES), tau_f=st.floats(-1.3, 0.3).map(lambda x: 10.0 ** x),
       kappa=st.one_of(st.none(), st.floats(-1.0, 2.0).map(lambda x: 10.0 ** x)),
       t0=st.integers(-1000, 1000), t_a=st.one_of(st.none(), st.integers(0, 5000)),
       t_d=st.one_of(st.integers(0, round(15.0 / DELAY_DT)),
                     st.integers(0, round(60.0 / DELAY_DT))))
# t_d = 30 past the Gaussian's threshold trail - prefix = 10.5, then each at a threshold
@example(shape="gaussian", tau_f=1.0, kappa=10.0, t0=0, t_a=None, t_d=round(30.0 / DELAY_DT))
@example(shape="gaussian", tau_f=1.0, kappa=10.0, t0=0, t_a=None, t_d=round(10.5 / DELAY_DT))
@example(shape="delta", tau_f=1.0, kappa=0.1, t0=0, t_a=None, t_d=round(17.0 / DELAY_DT))
def test_a_delay_is_refused_or_keeps_the_peak(work, capsys, shape, tau_f, kappa, t0, t_a, t_d):
    # a derived grid does not span the delay: simulate refuses t_d on atom.t_d exactly when
    # the end of the response's certified prefix, t_a + t_d + prefix, lies past the grid end
    # t_a + trail, and otherwise peaks as the undelayed run of the arrival t_a + t_d on a
    # grid that spans it, which sees the same pulse head past grid.t0; grid.t0, t_d and a
    # set arrival are whole steps, so both runs sample the response alike
    t0, t_d = t0 * DELAY_DT, t_d * DELAY_DT
    pulse = {"shape": shape} if shape == "delta" else {"shape": shape, "tau_f": tau_f}
    lead, prefix, trail = analysis.pulse_window(shape, pulse.get("tau_f", 1.0),
                                                np.inf if kappa is None else kappa, 1.0)
    if t_a is not None:
        pulse["t_a"] = t0 + t_a * DELAY_DT
    cfg = {"spectrum": {"kind": "flat"} if kappa is None else {"kappa": kappa},
           "grid": {"t0": t0, "dt": DELAY_DT}}
    later = {**pulse, "t_a": pulse.get("t_a", t0 + lead) + t_d}
    code, undelayed = _simulate_peak(work, capsys, {**cfg, "pulse": later})
    assert code == 0, undelayed
    code, delayed = _simulate_peak(work, capsys, {**cfg, "pulse": pulse, "atom": {"t_d": t_d}})
    if t_d > trail - prefix:
        assert (code, delayed) == (2, "atom.t_d")
    else:
        assert code == 0, delayed
        assert abs(delayed - undelayed) <= 1e-6, (delayed, undelayed)


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
