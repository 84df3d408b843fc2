"""Run the benchmark over several seeds and record the results.

    python3 perfbench/collect.py --label seed

For each workload of BENCHMARK.json: ten end-to-end runs (trace 0, seeds
0 to 9), then one traced run at seed 0. Writes perfbench/BENCH_<label>.json with the
machine, library versions, sample counts and, per metric, the values,
median, quartiles and quartile spread (q3 - q1) / median, checked against
the bounds in BENCHMARK.json; and perfbench/BENCH_<label>.md, which
reproduces the timing table of ROADMAP.md from these numbers.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def spread_stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def machine() -> dict:
    import numpy
    import scipy

    mem = ""
    try:
        with open("/proc/meminfo") as fh:
            mem = fh.readline().split(":", 1)[1].strip()
    except OSError:
        pass
    return {"platform": platform.platform(), "processor": platform.processor(),
            "nproc": os.cpu_count(), "memory": mem,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def load_trace(workload: str) -> dict:
    """What the seed-0 traced run of `workload` left in .bench_out/."""
    path = os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed0.json")
    with open(path) as fh:
        return json.load(fh)


def span_total(spans, name: str, job_prefix: str = "") -> float:
    return sum(e - s for n, s, e, _, job in spans if n == name and job.startswith(job_prefix))


def self_total(spans, name: str, job_prefix: str = "") -> float:
    """Summed self time (duration minus direct children) of the spans called `name`."""
    children = [0.0] * len(spans)
    for _, s, e, parent, _ in spans:
        if parent is not None:
            children[parent] += e - s
    return sum(e - s - children[i] for i, (n, s, e, _, job) in enumerate(spans)
               if n == name and job.startswith(job_prefix))


def roadmap_rows(result: dict) -> list[list]:
    """ROADMAP "Recent" timing lines next to the same quantities measured here.

    Rows are [what, ROADMAP low, ROADMAP high, measured seconds, spread]. The
    isolated cases come from the trajectories traced run; span totals from
    the seed-0 traces that the traced runs left in .bench_out/.
    """
    wl = result["workloads"]

    def layer(workload, name):
        return wl[workload]["per_layer"][name]

    def e2e_spread(workload):
        return wl[workload]["end_to_end"]["wall_s"]["spread"]

    rows = []

    def iso_row(what, lo, hi, name, to_s):
        rows.append((what, lo, hi, to_s(layer("trajectories", name)),
                     result["isolated_spread"][name]))

    iso_row("solve_closed_form_lorentzian, gaussian", 8e-3, 10e-3,
            "dynamics.closed_form_ms.gaussian", lambda v: v / 1e3)
    iso_row("solve_closed_form_lorentzian, decaying_exp", 2e-3, 3e-3,
            "dynamics.closed_form_ms", lambda v: v / 1e3)
    iso_row("solve_ode_reduction", 54e-3, 85e-3,
            "dynamics.ode_rk4_us_per_step", lambda v: v * 16000 / 1e6)
    iso_row("solve_volterra", 0.28, 1.3, "dynamics.volterra_ms.n16k", lambda v: v / 1e3)
    iso_row("bloch_response", 106e-3, 106e-3,
            "detectors.bloch_us_per_step", lambda v: v * 16000 / 1e6)
    iso_row("write_trajectory", 72e-3, 72e-3, "serialize.csv_rows_per_s", lambda v: 16001 / v)

    spans = load_trace("sweeps")["spans"]
    sp = e2e_spread("sweeps")
    rows.append(("sweep_pmax 25x25, gaussian", 12.7, 12.7,
                 span_total(spans, "analysis.sweep_pmax", "fig4d"), sp))
    rows.append(("  its drive self time (ROADMAP: CZT chirp setup alone)", 9.0, 9.0,
                 self_total(spans, "spectra.driving_term_uniform", "fig4d"), sp))
    rows.append(("figure fig4d", 13.3, 13.3, layer("sweeps", "cli.main_s.fig4d"), sp))
    rows.append(("Tier-1 criterion 3 (gaussian), as fig4d's sweep", 13.6, 13.6,
                 span_total(spans, "analysis.sweep_pmax", "fig4d"), sp))
    for shape, job in (("decaying_exp", "fig4e"), ("rising_exp", "fig4f")):
        rows.append((f"sweep_pmax 25x25, {shape}", 1.1, 1.1,
                     span_total(spans, "analysis.sweep_pmax", job), sp))

    sp = e2e_spread("trajectories")
    for fig in ("fig2a", "fig2c", "fig5a"):
        rows.append((f"figure {fig}", 0.13, 0.13, layer("trajectories", f"cli.main_s.{fig}"),
                     sp))
    total = sum(layer(w, f"cli.main_s.{fig}") for w in ("sweeps", "trajectories")
                for fig in ("fig2a", "fig2b", "fig2c", "fig2d", "fig3", "fig4d",
                            "fig4e", "fig4f", "fig5a", "fig5b", "fig6"))
    rows.append(("all 11 figures", 17.0, 17.0, total, max(sp, e2e_spread("sweeps"))))

    spans = load_trace("trajectories")["spans"]
    rows.append(("Tier-1 criterion 5 (the 36-case matrix)", 16.5, 16.5,
                 span_total(spans, "bench.job", "xc-"), sp))
    return [list(r) for r in rows]


def _fmt_s(sec: float) -> str:
    return f"{sec * 1e3:.3g} ms" if sec < 1.0 else f"{sec:.3g} s"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    result = {"label": args.label,
              "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "machine": machine(), "run_seconds": seconds,
              "seeds": list(range(SEEDS)), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(SEEDS)]
        e2e = {}
        for name, bound in bounds.items():
            stats = spread_stats([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound,
                         below_third_of_bound=stats["spread"] < bound / 3)
            e2e[name] = stats
        entry = {"runs": len(runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": e2e}
        traced = run_once(workload, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_units"] = {k: v["unit"] for k, v in traced["metrics"].items()}
        result["workloads"][workload] = entry
        for name, s in e2e.items():
            print(f"{workload:>15} {name:<14} median {s['median']:.6g} {s['unit']}  "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)

    result["isolated_spread"] = load_trace("trajectories")["isolated_spread"]
    result["roadmap_rows"] = roadmap_rows(result)
    base = os.path.join(HERE, f"BENCH_{args.label}")
    with open(base + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    write_table(result, base + ".md")
    print(f"wrote {base}.json and {base}.md")
    return 0


def write_table(result: dict, path: str) -> None:
    m = result["machine"]
    with open(path, "w") as fh:
        fh.write(f"# Benchmark {result['label']}\n\n"
                 f"{m['platform']}, {m['nproc']} CPUs, {m['memory']}; Python "
                 f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}.\n\n"
                 "The timing table of ROADMAP.md next to the same quantities measured by "
                 "the benchmark: isolated layer cases (median of repeated calls; spread = "
                 "(max - min) / median of those calls) and span totals of the seed-0 traced "
                 "runs (spread = quartile spread of the workload's wall_s over "
                 f"{len(result['seeds'])} seeds).\n\n")
        fh.write("| What | ROADMAP | Measured | Spread | Flag |\n|---|---|---|---|---|\n")
        for what, lo, hi, got, spread in result["roadmap_rows"]:
            off = got < lo * (1 - spread) or got > hi * (1 + spread)
            road = _fmt_s(lo) if lo == hi else f"{_fmt_s(lo)} to {_fmt_s(hi)}"
            fh.write(f"| {what} | {road} | {_fmt_s(got)} | {spread:.1%} | "
                     f"{'off by more than the spread' if off else 'ok'} |\n")

if __name__ == "__main__":
    sys.exit(main())
