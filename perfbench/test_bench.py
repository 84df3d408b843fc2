"""Tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest perfbench/test_bench.py

The traced fig4d pass takes about half a minute on a 2-CPU machine.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from fockatom import analysis, cli, dynamics, spectra  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    import json

    with open(run.REFERENCE) as fh:
        return json.load(fh)


def test_traced_fig4d_self_times_account_for_pass_wall(tmp_path, refs):
    jobs = [j for j in wl.sweep_jobs(0, str(tmp_path)) if j.name == "fig4d"]
    tracer = tr.Tracer()
    with tracer.installed():
        traced = run.run_pass(jobs, str(tmp_path / "traced"), refs, tracer)
    assert not traced["failures"]

    spans = tracer.spans
    selfs = tr.self_times(spans)
    wall = traced["wall"]
    assert min(selfs) > -1e-9
    assert {tr.layer_of(s.name) for s in spans} <= set(run.LAYERS)
    # every layer the pass goes through is seen, so no time falls to the job span
    assert {"cli.main", "cli.normalize_config", "analysis.sweep_pmax", "analysis.cell_grid",
            "spectra.driving_term_uniform", "dynamics.solve_closed_form_lorentzian",
            "serialize.write_sweep", "serialize.write_json"} <= {s.name for s in spans}
    shares = {layer: sum(st for s, st in zip(spans, selfs) if tr.layer_of(s.name) == layer)
              / wall for layer in run.LAYERS}
    assert shares["bench"] <= 1e-3
    assert sum(v for k, v in shares.items() if k != "bench") == pytest.approx(
        1.0 - shares["bench"], abs=1e-4)
    # what the wrappers add to the pass is small against the shares
    assert tr.wrapper_cost() * len(spans) / wall <= 1e-2

    solver_spans = [s for s in spans if s.name == "dynamics.solve_closed_form_lorentzian"
                    and spans[s.parent].name == "analysis.sweep_pmax"]
    assert len(solver_spans) == 625
    assert sum(s.name == "spectra.driving_term_uniform" for s in spans) == 625


def test_tracer_restores_every_binding():
    before = (analysis._SOLVERS["closed_form"], cli.write_csv, dynamics.driving_term_uniform,
              spectra.MemoryKernel.__dict__["uniform"], cli.main)
    with tr.Tracer().installed():
        assert analysis._SOLVERS["closed_form"].__wrapped__ is before[0]
        assert cli.write_csv.__wrapped__ is before[1]
        assert dynamics.driving_term_uniform.__wrapped__ is before[2]
    after = (analysis._SOLVERS["closed_form"], cli.write_csv, dynamics.driving_term_uniform,
             spectra.MemoryKernel.__dict__["uniform"], cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_corrupted_output_counts_as_failed(tmp_path, refs):
    job = next(j for j in wl.figure_jobs(0, str(tmp_path)) if j.name == "fig2a")
    pass_dir = str(tmp_path / "pass")
    result = job.run(os.path.join(pass_dir, job.name))
    probs, summaries = job.check(result, pass_dir, refs)
    assert probs == [] and len(summaries) == 2

    path = os.path.join(pass_dir, "fig2a", "fig2a", "lorentzian_k10.csv")
    header, data, _ = wl.read_csv(path)
    data[:, header.index("P")] *= 1.01
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    probs, _ = job.check(result, pass_dir, refs)
    assert any("lorentzian_k10.csv" in p for p in probs)


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_seeds_change_values_but_not_sizes(tmp_path, seed):
    assert wl.figure_configs(seed) == wl.figure_configs(seed)
    assert wl.figure_configs(seed) != wl.figure_configs(0)
    base = wl.sweep_jobs(0, str(tmp_path))
    other = wl.sweep_jobs(seed, str(tmp_path))
    assert [j.cells for j in other] == [j.cells for j in base] == [625, 625, 625]
    cases = wl.crosscheck_cases(seed)
    assert len(cases) == 36 and max(k for k, _, _ in cases) <= 100.0
    assert cases != wl.crosscheck_cases(0)

    rows = {}
    for s in (0, seed):
        jobs = wl.figure_jobs(s, str(tmp_path / f"cfg{s}"))
        result = run.run_pass(jobs, str(tmp_path / f"pass{s}"), None)
        assert not result["failures"]
        rows[s] = {k: v["rows"] for k, v in result["summaries"].items()}
    assert rows[seed] == rows[0]


def test_pass_stops_before_the_first_job_that_does_not_fit(tmp_path):
    jobs = [wl.Job(name=n, run=lambda out: None, check=lambda r, d, refs: ([], {}), samples=1)
            for n in ("a", "b", "c")]
    between = []
    result = run.run_pass(jobs, str(tmp_path / "pass"), None, fits=lambda j: j.name != "b",
                          after_job=lambda: between.append(1))
    assert list(result["times"]) == ["a"] and result["samples"] == 1 and between == [1]


def test_sweep_check_flags_bad_cells():
    header = ["tau_f", "kappa", "p_max", "t_peak"]
    raw = b"tau_f,kappa,p_max,t_peak,status\n1,1,0.9,1,ok\n0.1,1,nan,nan,error: x\n"
    data = np.array([[1.0, 1.0, 0.9, 1.0], [0.1, 1.0, np.nan, np.nan]])
    assert wl._check_sweep(raw, header, data) == (["1 sweep cells not ok"], 1)
