"""fockatom benchmark: one seeded workload, closed loop, one job at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): sweeps, trajectories.

--trace 0 measures end to end with tracing off: passes over the workload's
jobs repeat until --seconds are used (the first pass runs whole; the last
may stop early, before a job that would not end in time), and one pass is
reported as the sum of each job's median time, together with set-up time
(median of fresh interpreters started between jobs) and peak RSS.
--trace 1 runs one untraced and one traced pass and reports per-layer
metrics; the trajectories workload also runs the isolated layer cases of
layers.py (they do not depend on the workload, so the sweeps workload
reports them as 0). The spans, and the spreads of the isolated cases, are
written to .bench_out/ when the run ends.

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. Outputs are checked outside
the timed region; seed 0 is also compared with reference_seed0.json.
Everything is read and written inside the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference_seed0.json")
NPROC = os.cpu_count() or 1
SETUP_REPS = 5

SETUP_CODE = (
    "import fockatom as fa, fockatom.cli\n"
    "fa.solve_closed_form_lorentzian(fa.AtomParams(), 1.0,"
    " fa.PulseSpec('decaying_exp', tau_f=1.0, t_a=1.0),"
    " fa.TimeGrid.from_span(0.0, 16.0, 1e-3))\n"
)


def _thread_env() -> dict:
    """Environment capping BLAS/OpenMP threads at the machine's CPU count."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, str(NPROC))
    env["PYTHONPATH"] = SRC
    return env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(jobs, pass_dir: str, refs: dict | None, tracer=None,
             fits=None, after_job=None) -> dict:
    """Run every job once, timing each; check outputs after each job.

    The pass stops before a job for which `fits(job)` is false. `after_job()`
    runs after each job and its check, outside the job's time.
    """
    os.makedirs(pass_dir)
    times, spent, failures, summaries = {}, {}, {}, {}
    samples = cells = csv_bytes = 0
    for job in jobs:
        if fits and not fits(job):
            break
        out_dir = os.path.join(pass_dir, job.name)
        scope = tracer.job(job.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = job.run(out_dir)
        except Exception as exc:  # a job that raises counts as failed
            times[job.name] = spent[job.name] = time.perf_counter() - t0
            failures[job.name] = [f"{type(exc).__name__}: {exc}"]
            if after_job:
                after_job()
            continue
        times[job.name] = time.perf_counter() - t0
        probs, found = job.check(result, pass_dir, refs)
        spent[job.name] = time.perf_counter() - t0
        summaries.update(found)
        csvs = [k for k, s in found.items() if "digest" in s]
        csv_bytes += sum(os.path.getsize(os.path.join(pass_dir, k)) for k in csvs)
        samples += job.samples if job.samples is not None else sum(
            found[k]["rows"] for k in csvs)
        cells += job.cells
        if probs:
            failures[job.name] = probs
        if after_job:
            after_job()
    shutil.rmtree(pass_dir)
    wall = sum(times.values())
    return {"wall": wall, "times": times, "spent": spent, "failures": failures,
            "summaries": summaries, "samples": samples, "cells": cells,
            "csv_bytes": csv_bytes}


def setup_once() -> float:
    """Wall time of a fresh interpreter importing fockatom and solving once."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_thread_env(),
                   check=True)
    return time.perf_counter() - t0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(p, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    best = None
    for p in (50.0, 90.0, 95.0, 98.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = (p, statistics.quantiles(values, n=1000, method="inclusive")[
                int(p * 10) - 1])
    return best


def _fmt_timing(name: str, values: list[float], unit: str, scale: float = 1.0) -> str:
    med = statistics.median(values) * scale
    line = f"  {name:<28} median {med:.6g} {unit}  (n={len(values)})"
    tail = tail_percentile(values)
    if tail:
        line += f"  p{tail[0]:g} {tail[1] * scale:.6g} {unit}"
    return line


# ---------------------------------------------------------------------------
# end to end (--trace 0)
# ---------------------------------------------------------------------------

def end_to_end(args, jobs, work_dir, refs):
    # The machine's speed drifts over tens of seconds, so set-up is sampled
    # between jobs, after about every --seconds / SETUP_REPS of passes, and its
    # median sees the same machine as the passes. Set-up time is not counted
    # in --seconds.
    setup, passes = [], []
    start = time.perf_counter()
    end = start + args.seconds

    def sample_setup():
        nonlocal end
        due = start + sum(setup) + len(setup) * args.seconds / SETUP_REPS
        if len(setup) < SETUP_REPS and time.perf_counter() >= due:
            setup.append(setup_once())
            end += setup[-1]

    def fits(job):
        return time.perf_counter() + passes[0]["spent"][job.name] <= end

    # closed loop: the first pass runs whole; later ones run each job while it
    # should end within --seconds, judged by its time in the first pass
    while True:
        p = run_pass(jobs, os.path.join(work_dir, f"pass{len(passes)}"), refs,
                     fits=fits if passes else None, after_job=sample_setup)
        if p["times"]:
            passes.append(p)
        if len(p["times"]) < len(jobs) or time.perf_counter() >= end:
            break
    # one pass = every job at its median time over the passes that ran it
    job_times = {job.name: [p["times"][job.name] for p in passes if job.name in p["times"]]
                 for job in jobs}
    wall = sum(statistics.median(t) for t in job_times.values())
    rate = passes[0]["samples"] / wall
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "samples_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    walls = [p["wall"] for p in passes if len(p["times"]) == len(jobs)]
    lines = [f"  {'wall_s (one pass)':<28} {wall:.6g} s  (sum of per-job medians over "
             f"{len(passes)} passes, the last may be partial)",
             _fmt_timing("whole passes", walls, "s"),
             _fmt_timing("setup_s (fresh interpreter)", setup, "s"),
             f"  {'samples_per_s':<28} {rate:.6g} 1/s"
             f"  ({passes[0]['samples']} grid samples per pass)"]
    if passes[0]["cells"]:
        lines.append(f"  {'cells_per_s':<28} {passes[0]['cells'] / wall:.6g} 1/s"
                     f"  ({passes[0]['cells']} cells per pass)")
    lines.append(_fmt_timing("job latency", [t for ts in job_times.values() for t in ts], "s"))
    lines.append(f"  {'peak_rss_mib':<28} {rss:.6g} MiB")
    return passes, metrics, lines


# ---------------------------------------------------------------------------
# per layer (--trace 1)
# ---------------------------------------------------------------------------

LAYERS = ("bench", "cli", "analysis", "spectra", "dynamics", "detectors", "serialize")
SOLVER_SPANS = {
    "closed_form": "dynamics.solve_closed_form_lorentzian",
    "ode_rk4": "dynamics.solve_ode_reduction",
    "volterra": "dynamics.solve_volterra",
    "markov": "dynamics.solve_markov",
}


def per_layer(args, jobs, work_dir, refs):
    import layers
    import tracer as tr
    import workloads as wl

    plain = run_pass(jobs, os.path.join(work_dir, "untraced"), refs)
    tracer = tr.Tracer()
    with tracer.installed():
        traced = run_pass(jobs, os.path.join(work_dir, "traced"), refs, tracer)
    spans = tracer.spans
    selfs = tr.self_times(spans)
    wall = traced["wall"]

    def self_sum(pred):
        return sum(st for s, st in zip(spans, selfs) if pred(s.name))

    def durations(name, parent_name=None):
        return [s.end - s.start for s in spans if s.name == name and (
            parent_name is None or (s.parent is not None
                                    and spans[s.parent].name == parent_name))]

    m: dict[str, tuple[float, str]] = {"bench.nproc": (NPROC, "count")}
    # the per-call cost of a wrapper times the span count; a traced pass
    # against an untraced one measures the machine's drift, not the tracer
    call_cost = tr.wrapper_cost()
    m["trace.overhead_frac"] = (call_cost * len(spans) / wall, "frac")
    for layer in LAYERS:
        m[f"{layer}.share"] = (self_sum(lambda n: tr.layer_of(n) == layer) / wall, "frac")
    m["spectra.drive_self_s"] = (self_sum(lambda n: n == "spectra.driving_term_uniform"), "s")
    m["spectra.drive_calls"] = (len(durations("spectra.driving_term_uniform")), "count")
    m["spectra.kernel_self_s"] = (self_sum(lambda n: n == "spectra.MemoryKernel.uniform"), "s")
    for key, name in SOLVER_SPANS.items():
        m[f"dynamics.{key}_self_s"] = (self_sum(lambda n: n == name), "s")
    m["analysis.sweep_self_s"] = (self_sum(lambda n: n == "analysis.sweep_pmax"), "s")
    cell = sorted(d for name in SOLVER_SPANS.values()
                  for d in durations(name, "analysis.sweep_pmax"))
    pct = statistics.quantiles(cell, n=100, method="inclusive") if len(cell) > 1 else None
    m["analysis.cells"] = (len(cell), "count")
    m["analysis.cell_ms.p50"] = (pct[49] * 1e3 if pct else 0.0, "ms")
    m["analysis.cell_ms.p98"] = (pct[97] * 1e3 if pct else 0.0, "ms")
    m["analysis.cells_per_s"] = (plain["cells"] / plain["wall"], "1/s")
    m["analysis.cells_failed"] = (sum(
        s.get("cells_not_ok", 0) for s in traced["summaries"].values()), "count")
    m["detectors.bloch_self_s"] = (self_sum(lambda n: n == "detectors.bloch_response"), "s")
    m["serialize.write_csv_self_s"] = (self_sum(lambda n: n == "serialize.write_csv"), "s")
    m["serialize.csv_bytes"] = (traced["csv_bytes"], "B")
    digests = {k: s["digest"] for k, s in traced["summaries"].items() if "digest" in s}
    m["serialize.csv_identical"] = (sum(
        1 for k, d in digests.items() if plain["summaries"][k].get("digest") == d), "count")
    main_spans = [s for s in spans if s.name == "cli.main"]
    for job in wl.CLI_JOBS:
        m[f"cli.main_s.{job}"] = (sum(s.end - s.start for s in main_spans if s.job == job), "s")
    m["cli.self_s"] = (self_sum(lambda n: tr.layer_of(n) == "cli"), "s")
    norm = durations("cli.normalize_config")
    m["cli.normalize_config_us"] = (statistics.median(norm) * 1e6 if norm else 0.0, "us")
    if args.workload == "trajectories":
        isolated, spreads = layers.run_isolated(work_dir)
    else:
        isolated = {name: (0.0, unit) for name, unit in layers.METRICS.items()}
        spreads = {}
    m.update(isolated)

    _write_spans(args, spans, spreads)
    shares = sorted(((m[f"{layer}.share"][0], layer) for layer in LAYERS), reverse=True)
    lines = [f"  traced pass {wall:.6g} s, {len(spans)} spans; tracer overhead "
             f"{m['trace.overhead_frac'][0]:.2e} of the pass "
             f"({call_cost * 1e6:.3g} us per traced call)",
             f"  untraced pass {plain['wall']:.6g} s (traced / untraced - 1 = "
             f"{wall / plain['wall'] - 1.0:+.4f}; one pair of passes, mostly machine drift)",
             "  self-time shares: " + ", ".join(f"{l} {s:.3f}" for s, l in shares),
             f"  dominant layer: {shares[0][1]} ({shares[0][0]:.1%} of the traced pass)"]
    if cell:
        lines.append(_fmt_timing("cell solver span", cell, "ms", 1e3))
    if spreads:
        lines.append("  isolated layer cases (median; spread = (max - min) / median):")
        lines += [f"    {name:<40} {isolated[name][0]:.6g} {isolated[name][1]}"
                  + (f"  spread {spreads[name]:.3f}" if name in spreads else "")
                  for name in layers.METRICS]
    else:
        lines.append("  isolated layer cases: measured only by --workload trajectories")
    return [plain, traced], m, lines


def _write_spans(args, spans, spreads: dict) -> None:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "job"],
                   "spans": [[s.name, s.start, s.end, s.parent, s.job] for s in spans],
                   "isolated_spread": spreads}, fh)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fockatom", "__init__.py")):
        print(f"benchmark: no fockatom sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({k: v for k, v in _thread_env().items() if k != "PYTHONPATH"})
    sys.path.insert(0, SRC)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    refs = None
    if args.seed == 0:
        with open(REFERENCE) as fh:
            refs = json.load(fh)
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        jobs = wl.build_jobs(args.workload, args.seed, work_dir)
        measure = per_layer if args.trace else end_to_end
        passes, metrics, lines = measure(args, jobs, work_dir, refs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(f"fockatom benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} nproc={NPROC} passes={len(passes)} jobs/pass={len(jobs)}")
    for line in lines:
        print(line)
    gaps = [s["gap"] for p in passes for k, s in p["summaries"].items() if k.startswith("xc-")]
    if gaps:
        print(f"  {'worst solver gap':<28} {max(gaps):.3g}  (over {len(gaps)} cases)")
    print(f"  {'failed_frac':<28} {failed / attempted:.6g}  ({failed} of {attempted} jobs)")
    for p in passes:
        for job, probs in p["failures"].items():
            print(f"  FAILED {job}: {'; '.join(probs)[:500]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
