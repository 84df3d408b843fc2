"""Isolated layer cases: one direct call per layer at n = 16001, dt = 1e-3.

Each case is timed several times and reported as its median; the spread
(max - min) / median goes with it, because single samples on a small shared
machine are not trustworthy (Volterra timings were not even monotone in n).
The cases do not depend on the workload, so the benchmark runs them once,
in the traced run of the trajectories workload.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

import fockatom as fa
from fockatom import serialize, spectra

from workloads import DT, TAB_NS, tabulated_lorentzian

N = 16001
KAPPA = 10.0
REPS = 5
VOLTERRA_REPS = 3

# every metric run_isolated reports, with its unit
METRICS = {
    **{f"spectra.drive_ms.{shape}.{kind}": "ms"
       for shape in ("gaussian", "decaying_exp", "rising_exp", "delta")
       for kind in ("lorentzian", "tabulated") if (shape, kind) != ("delta", "tabulated")},
    "spectra.kernel_ms.tabulated": "ms",
    "dynamics.closed_form_ms": "ms",
    "dynamics.closed_form_ms.gaussian": "ms",
    "dynamics.ode_rk4_us_per_step": "us",
    **{f"dynamics.volterra_ms.n{n // 1000}k": "ms" for n in TAB_NS},
    "dynamics.volterra_ns_per_mac": "ns",
    "analysis.transduction_metrics_ms": "ms",
    "detectors.bloch_us_per_step": "us",
    "serialize.csv_rows_per_s": "1/s",
}


def _time(fn, reps: int) -> tuple[float, float]:
    fn()  # warm-up: lazy imports and first-touch allocations
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    med = statistics.median(samples)
    return med, (max(samples) - min(samples)) / med


def run_isolated(tmp_root: str) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer isolated metrics as {name: (value, unit)}, and their spreads.

    The spreads describe the benchmark's noise, not the program, so they are
    printed and recorded next to the metrics but are not metrics themselves.
    """
    out: dict[str, tuple[float, str]] = {}
    spreads: dict[str, float] = {}

    def record(name, fn, to_value, reps=REPS):
        med, spread = _time(fn, reps)
        out[name] = (to_value(med), METRICS[name])
        spreads[name] = spread
        return med

    def ms(sec):
        return sec * 1e3

    def us_per_step(sec):
        return sec * 1e6 / (N - 1)

    atom = fa.AtomParams()
    lor = fa.InteractionSpectrum.lorentzian(KAPPA)
    tab = tabulated_lorentzian(KAPPA)
    grid = fa.TimeGrid(0.0, DT, N)
    pulses = {
        "gaussian": fa.PulseSpec("gaussian", tau_f=1.0, t_a=8.0),
        "decaying_exp": fa.PulseSpec("decaying_exp", tau_f=1.0, t_a=8.0),
        "rising_exp": fa.PulseSpec("rising_exp", tau_f=1.0, t_a=8.0),
        "delta": fa.PulseSpec("delta", xi0=0.1, t_a=8.0),
    }
    for shape, pulse in pulses.items():
        record(f"spectra.drive_ms.{shape}.lorentzian",
               lambda: spectra.driving_term_uniform(lor, pulse, 0.0, DT, N), ms)
        if shape != "delta":  # a delta pulse has no drive on a finite table
            record(f"spectra.drive_ms.{shape}.tabulated",
                   lambda: spectra.driving_term_uniform(tab, pulse, 0.0, DT, N), ms)
    kern = spectra.memory_kernel(tab)
    # the Volterra solver samples the kernel at dt/2: 2n - 1 points
    record("spectra.kernel_ms.tabulated",
           lambda: kern.uniform(0.0, 0.5 * DT, 2 * N - 1), ms)

    gauss, dexp = pulses["gaussian"], pulses["decaying_exp"]
    record("dynamics.closed_form_ms",
           lambda: fa.solve_closed_form_lorentzian(atom, KAPPA, dexp, grid), ms)
    record("dynamics.closed_form_ms.gaussian",
           lambda: fa.solve_closed_form_lorentzian(atom, KAPPA, gauss, grid), ms)
    record("dynamics.ode_rk4_us_per_step",
           lambda: fa.solve_ode_reduction(atom, KAPPA, gauss, grid), us_per_step)
    # spontaneous decay on the analytic kernel isolates the O(n^2) memory sum
    excited = fa.AtomParams(c0=1.0)
    for n in TAB_NS:
        g = fa.TimeGrid(0.0, DT, n)
        med = record(f"dynamics.volterra_ms.n{n // 1000}k",
                     lambda: fa.solve_volterra(excited, lor, None, g), ms,
                     reps=VOLTERRA_REPS)
        if n == N:
            macs = n * (n - 1) / 2
            out["dynamics.volterra_ns_per_mac"] = (med * 1e9 / macs, "ns")

    traj = fa.solve_closed_form_lorentzian(atom, KAPPA, gauss, grid)
    record("analysis.transduction_metrics_ms",
           lambda: fa.transduction_metrics(traj, KAPPA, atom.gamma), ms)
    coherent = fa.CoherentPulseSpec(base=gauss, n_bar=1.0)
    record("detectors.bloch_us_per_step",
           lambda: fa.bloch_response(atom, coherent, grid), us_per_step)
    with tempfile.TemporaryDirectory(dir=tmp_root) as d:
        base = os.path.join(d, "trajectory")
        record("serialize.csv_rows_per_s",
               lambda: serialize.write_trajectory(base, traj, {}), lambda sec: N / sec)
    return out, spreads
