"""Seeded workloads of the fockatom benchmark, their jobs and output checks.

Seed 0 runs exactly the bundled configs; other seeds move parameter values
but keep every size (sweep cell counts, grid n) fixed, so the work of a
pass stays comparable across seeds. The program receives only these
generated inputs: figure and scenario jobs go through `fockatom.cli.main`,
the cross-check through the `solve_*` library calls.

Two workloads, each a pass of 15-20 s on a 2-CPU machine:
  sweeps        the three 25x25 spectral-matching heatmaps (fig4d, fig4e,
                fig4f), 1875 cells; the Gaussian drive of fig4d dominates.
  trajectories  the eight trajectory bundles and four scenarios, then the
                criterion-5 solver matrix and the tabulated-kernel decay;
                the Volterra memory sum dominates, CSV writing and the
                Bloch detector come next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fockatom as fa
from fockatom import analysis, cli

WORKLOADS = ("sweeps", "trajectories")

P_TOL = 1e-6            # P <= 1 + P_TOL everywhere (the program's own guard)
GAP_TOL = 1e-4          # three-solver sup-norm gap per cross-check case
TAB_TOL = 1e-3          # tabulated-kernel decay vs closed form
REF_TOL = 1e-6          # seed-0 values vs the committed reference
ARGMAX_TAU = (0.5, 2.0)  # spectral-matching optimum of every sweep

SWEEP_FIGS = ("fig4d", "fig4e", "fig4f")
BUNDLES = ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig5a", "fig5b", "fig6")
SCENARIOS = ("simulate", "detector-compare", "decay", "delta-rise")
CLI_JOBS = SWEEP_FIGS + BUNDLES + SCENARIOS

LOG_STEP = 3.0 / 24.0    # decades between neighbouring sweep axis points
XC_KAPPAS = (1.0, 2.0, 10.0, 100.0)
XC_KAPPA_MAX = 100.0
XC_SHAPES = ("gaussian", "decaying_exp", "rising_exp")
XC_TAUS = (0.1, 1.0, 10.0)
XC_N = 16001
TAB_NS = (8001, 16001, 32001)
TAB_SPACING, TAB_HALF = 0.05, 500.0   # alias horizon 2*pi/0.05 ~ 126 > T = 32
DT = 1e-3


@dataclass
class Job:
    """One unit of timed work and the check of its output.

    `run(out_dir)` is timed; `check(result, pass_dir, refs)` runs after it
    and returns (problems, summaries), summaries keyed by CSV path under
    pass_dir or, for library calls, by job name. `samples` counts the
    trajectory grid samples the job computes; None means they are counted
    as the CSV rows it writes.
    """

    name: str
    run: Callable
    check: Callable
    samples: int | None
    cells: int = 0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def sweep_config(seed: int) -> dict:
    """Config overrides shifting both sweep axes by part of one log step.

    tau_f moves up by the drawn fraction (at most 1/8 of a step) and kappa
    down by it. The Gaussian drive's quadrature size depends on both, and
    the opposite shifts keep its total within 0.1% of seed 0; the total grid
    samples of each sweep stay within 2.2%, so the work of a pass does too.
    """
    if seed == 0:
        return {}
    frac = random.Random(f"sweep-{seed}").uniform(-0.125, 0.125) * LOG_STEP
    return {"sweep": {
        "tau_f": {"start": 0.01 * 10.0 ** frac, "stop": 10.0 * 10.0 ** frac},
        "kappa": {"start": 0.1 * 10.0 ** -frac, "stop": 100.0 * 10.0 ** -frac},
    }}


def figure_configs(seed: int) -> dict:
    """Per-job config overrides of the figure bundles and scenarios."""
    if seed == 0:
        return {job: {} for job in BUNDLES + SCENARIOS}
    rng = random.Random(f"figures-{seed}")
    ratio = rng.uniform(0.5, 1.0)
    t_d = rng.uniform(0.0, 0.2)
    atom = {"mode_fraction": ratio, "t_d": t_d}
    # t_max pinned to the bundled grid (23 = 7 tau_f lead + ring-down at
    # tau_f = 1, kappa = 10) so n stays 23001 whatever tau_f is drawn
    gauss = {"atom": {"mode_fraction": ratio},
             "pulse": {"tau_f": _log_uniform(rng, 0.7, 1.4)},
             "grid": {"t_max": 23.0}}
    cfgs = {job: {"atom": dict(atom)} for job in BUNDLES}
    cfgs["simulate"] = {**gauss, "spectrum": {"kappa": _log_uniform(rng, 3.0, 30.0)}}
    cfgs["detector-compare"] = {**gauss,
                                "pulse": {"tau_f": _log_uniform(rng, 0.7, 1.4)}}
    cfgs["decay"] = {"spectrum": {"kappa": _log_uniform(rng, 1.0, 100.0)}}
    cfgs["delta-rise"] = {"atom": {"t_d": t_d},
                          "spectrum": {"kappa": _log_uniform(rng, 1.0, 100.0)}}
    return cfgs


def crosscheck_cases(seed: int) -> list[tuple[float, str, float]]:
    """(kappa, shape, tau_f) of the criterion-5 matrix, drawn per cell.

    Each value is drawn log-uniformly within half a decade either side of
    the matrix value, except that kappa stays <= 100, where the RK4 step
    dt = 1e-3 still resolves the stiffest rate.
    """
    rng = random.Random(f"crosscheck-{seed}")
    cases = []
    for kappa in XC_KAPPAS:
        top = min(0.5, math.log10(XC_KAPPA_MAX / kappa))
        for shape in XC_SHAPES:
            for tau_f in XC_TAUS:
                if seed:
                    kappa_c = kappa * 10.0 ** rng.uniform(-0.5, top)
                    tau_c = tau_f * 10.0 ** rng.uniform(-0.5, 0.5)
                else:
                    kappa_c, tau_c = kappa, tau_f
                cases.append((kappa_c, shape, tau_c))
    return cases


def tab_kappa(seed: int) -> float:
    return 10.0 if seed == 0 else _log_uniform(random.Random(f"tab-{seed}"), 7.0, 14.0)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _cli_job(name: str, overrides: dict, work_dir: str, samples: int | None,
             cells: int = 0) -> Job:
    argv = ["figure", name] if name.startswith("fig") else [name]
    if overrides:
        os.makedirs(work_dir, exist_ok=True)
        path = os.path.join(work_dir, f"config-{name}.json")
        with open(path, "w") as fh:
            json.dump(overrides, fh)
        argv += ["--config", path]

    def run(out_dir):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv + ["--out", out_dir])
        return code, out.getvalue().split(), err.getvalue()

    def check(result, pass_dir, refs):
        return check_cli_result(name, result, pass_dir, refs)

    return Job(name=name, run=run, check=check, samples=samples, cells=cells)


def _sweep_samples(fig_id: str, overrides: dict) -> tuple[int, int]:
    """(grid samples, cells) of one sweep figure, from the program's own grids."""
    cfg = cli.normalize_config({**overrides, "scenario": "figure", "figure_id": fig_id})
    shape = {"fig4d": "gaussian", "fig4e": "decaying_exp", "fig4f": "rising_exp"}[fig_id]
    taus = cli._axis(cfg["sweep"]["tau_f"])
    kappas = cli._axis(cfg["sweep"]["kappa"])
    n = sum(analysis.cell_grid(shape, t, k, 1.0)[0].n for k in kappas for t in taus)
    return n, taus.size * kappas.size


def sweep_jobs(seed: int, work_dir: str) -> list[Job]:
    overrides = sweep_config(seed)
    jobs = []
    for fig in SWEEP_FIGS:
        n, cells = _sweep_samples(fig, overrides)
        jobs.append(_cli_job(fig, overrides, work_dir, n, cells))
    return jobs


def figure_jobs(seed: int, work_dir: str) -> list[Job]:
    return [_cli_job(name, cfg, work_dir, None) for name, cfg in figure_configs(seed).items()]


def crosscheck_jobs(seed: int) -> list[Job]:
    kap = tab_kappa(seed)
    return ([_xc_job(*case) for case in crosscheck_cases(seed)]
            + [_tab_job(kap, n) for n in TAB_NS])


def build_jobs(workload: str, seed: int, work_dir: str) -> list[Job]:
    if workload == "sweeps":
        return sweep_jobs(seed, work_dir)
    if workload == "trajectories":
        return figure_jobs(seed, work_dir) + crosscheck_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _xc_job(kappa: float, shape: str, tau_f: float) -> Job:
    def run(_out_dir):
        atom = fa.AtomParams()
        grid = fa.TimeGrid(0.0, DT, XC_N)
        pulse = fa.PulseSpec(shape, tau_f=tau_f, t_a=8.0)
        spec = fa.InteractionSpectrum.lorentzian(kappa)
        return (fa.solve_closed_form_lorentzian(atom, kappa, pulse, grid).p,
                fa.solve_ode_reduction(atom, kappa, pulse, grid).p,
                fa.solve_volterra(atom, spec, pulse, grid).p)

    name = f"xc-k{kappa:.6g}-{shape}-tf{tau_f:.6g}"
    return Job(name=name, run=run, check=_call_check(name), samples=3 * XC_N)


def tabulated_lorentzian(kappa: float):
    d = np.linspace(-TAB_HALF, TAB_HALF, int(round(2 * TAB_HALF / TAB_SPACING)) + 1)
    g2 = (1.0 / (2.0 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    return fa.InteractionSpectrum.tabulated(d, g2)


def _tab_job(kappa: float, n: int) -> Job:
    def run(_out_dir):
        atom = fa.AtomParams(c0=1.0)
        grid = fa.TimeGrid(0.0, DT, n)
        return (fa.solve_volterra(atom, tabulated_lorentzian(kappa), None, grid).p,
                fa.solve_closed_form_lorentzian(atom, kappa, None, grid).p)

    name = f"tab-n{n}"
    return Job(name=name, run=run, check=_call_check(name), samples=2 * n)


def _call_check(name: str) -> Callable:
    def check(result, _pass_dir, refs):
        probs, summary = check_call_result(name, result, refs)
        return probs, {name: summary}

    return check


# ---------------------------------------------------------------------------
# checks (run outside the timed region)
# ---------------------------------------------------------------------------

def read_csv(path: str) -> tuple[list[str], np.ndarray, bytes]:
    """Header, numeric columns (status text dropped) and raw bytes of a CSV."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header = raw.split(b"\n", 1)[0].decode().split(",")
    cols = [i for i, h in enumerate(header) if h != "status"]
    data = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, usecols=cols,
                      dtype=float, ndmin=2)
    return [header[i] for i in cols], data, raw


def _is_probability(col: str) -> bool:
    # n_bar = 1 in every bundled and seeded config, so detector y is also <= 1
    return col in ("P", "p_max", "y", "y_fock", "y_coherent") or col.startswith("P_kappa")


def summarize(header: list[str], data: np.ndarray, raw: bytes) -> dict:
    """Compact reference record: digest, row count, column maxima, samples."""
    rows = data.shape[0]
    idx = sorted(set(np.linspace(0, rows - 1, 9).round().astype(int).tolist()))
    return {
        "digest": hashlib.sha256(raw).hexdigest(),
        "rows": rows,
        "max": {h: float(np.max(data[:, i])) for i, h in enumerate(header)},
        "sample_rows": idx,
        "samples": data[idx].tolist(),
    }


def compare_reference(got: dict, ref: dict) -> list[str]:
    """Problems of a summary against its seed-0 reference (empty if it matches)."""
    if got["rows"] != ref["rows"]:
        return [f"rows {got['rows']} != {ref['rows']}"]
    probs = []
    for col, val in ref["max"].items():
        if abs(got["max"].get(col, math.inf) - val) > REF_TOL:
            probs.append(f"max {col} {got['max'].get(col)} != {val}")
    if not np.allclose(got["samples"], ref["samples"], rtol=0.0, atol=REF_TOL):
        probs.append("sampled values differ")
    return probs


def check_csv(path: str, ref: dict | None) -> tuple[list[str], dict]:
    header, data, raw = read_csv(path)
    probs = []
    if not np.all(np.isfinite(data)):
        probs.append("non-finite values")
    for i, col in enumerate(header):
        if _is_probability(col) and np.nanmax(data[:, i]) > 1.0 + P_TOL:
            probs.append(f"{col} exceeds 1 + {P_TOL}")
    summary = summarize(header, data, raw)
    if "status" in raw.split(b"\n", 1)[0].decode():
        sweep_probs, summary["cells_not_ok"] = _check_sweep(raw, header, data)
        probs += sweep_probs
    if ref is not None:
        probs += compare_reference(summary, ref)
    return probs, summary


def _check_sweep(raw: bytes, header: list[str], data: np.ndarray) -> tuple[list[str], int]:
    """Problems of a sweep CSV and its number of cells whose status is not ok."""
    lines = raw.decode().splitlines()[1:]
    bad = sum(not ln.endswith(",ok") for ln in lines)
    probs = [f"{bad} sweep cells not ok"] if bad else []
    pm = data[:, header.index("p_max")]
    tau = data[:, header.index("tau_f")][int(np.nanargmax(pm))]
    if not ARGMAX_TAU[0] <= tau <= ARGMAX_TAU[1]:
        probs.append(f"argmax tau_f {tau:.4g} outside {ARGMAX_TAU}")
    return probs, bad


def check_cli_result(name: str, result, pass_dir: str, refs: dict | None):
    """Problems plus per-CSV summaries of one CLI job.

    CSVs are keyed by their path under the pass directory, which starts
    with the job name because every job writes into its own directory.
    """
    code, written, err = result
    if code != 0:
        return [f"exit code {code}: {err.strip()}"], {}
    probs, summaries = [], {}
    for path in written:
        if not path.endswith(".csv"):
            continue
        key = os.path.relpath(path, pass_dir)
        ref = None
        if refs is not None:
            ref = refs.get(key)
            if ref is None:
                probs.append(f"{key}: no reference")
        p, summaries[key] = check_csv(path, ref)
        probs += [f"{key}: {x}" for x in p]
    if refs is not None:
        probs += [f"{k}: not written" for k in refs
                  if k.startswith(name + "/") and k not in summaries]
    return probs, summaries


def check_call_result(name: str, result, refs: dict | None):
    """Problems plus a compact summary of one cross-check job."""
    probs = []
    for p in result:
        if not np.all(np.isfinite(p)) or p.max() > 1.0 + P_TOL:
            probs.append(f"P not finite or above 1 + {P_TOL}")
    if name.startswith("tab-"):
        gap = float(np.abs(result[0] - result[1]).max())
        if gap > TAB_TOL:
            probs.append(f"tabulated decay gap {gap:.3g} > {TAB_TOL}")
    else:
        a, b, c = result
        gap = float(max(np.abs(a - b).max(), np.abs(a - c).max(), np.abs(b - c).max()))
        if gap > GAP_TOL:
            probs.append(f"solver gap {gap:.3g} > {GAP_TOL}")
    n = len(result[0])
    idx = sorted(set(np.linspace(0, n - 1, 9).round().astype(int).tolist()))
    summary = {"gap": gap, "rows": n,
               "max": {f"P{i}": float(p.max()) for i, p in enumerate(result)},
               "sample_rows": idx,
               "samples": [[float(p[i]) for p in result] for i in idx]}
    if refs is not None:
        ref = refs.get(name)
        if ref is None:
            probs.append("no reference")
        else:
            probs += compare_reference(summary, ref)
    return probs, summary
