"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
from scipy.special import erf

from fockatom import (
    AtomParams,
    CoherentPulseSpec,
    InteractionSpectrum,
    PulseSpec,
    TimeGrid,
    Trajectory,
    bloch_response,
    branch_params,
    delta_pulse_rise,
    fock_atom_response,
    linear_response,
    solve_closed_form_lorentzian,
    solve_markov,
    solve_ode_reduction,
    solve_volterra,
    spontaneous_decay,
    sweep_pmax,
    transduction_metrics,
)

GAMMA = 1.0


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_1_strong_coupling_gaussian_absorption():
    """kappa = gamma, Gaussian tau_f = 1/gamma: max P >= 0.95 in under 5 s."""
    start = time.perf_counter()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    traj = solve_closed_form_lorentzian(AtomParams(), GAMMA, pulse, grid)
    elapsed = time.perf_counter() - start
    p_max = traj.p.max()
    ok = p_max >= 0.95 and elapsed < 5.0
    assert _verdict(1, ok, f"strong-coupling max P = {p_max:.4f} (>= 0.95), "
                           f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_markov_optimum():
    """Flat spectrum, Gaussian shape: the pulse-length optimum is 0.80 +- 0.02.

    The fixed tau_f = 1/gamma Markov peak is 0.7702 (verified against the
    closed-form erf amplitude below), so the 0.8 figure is the
    pulse-length-optimized Markov maximum; both numbers are reported.
    """
    atom = AtomParams()
    best = 0.0
    best_tf = None
    for tf in np.linspace(0.4, 1.6, 25):
        grid = TimeGrid.from_span(0.0, 7.0 * tf + 9.0, 2e-3)
        traj = solve_markov(atom, PulseSpec("gaussian", tau_f=tf, t_a=7.0 * tf), grid)
        if traj.p.max() > best:
            best, best_tf = traj.p.max(), tf
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    fixed = solve_markov(atom, PulseSpec("gaussian", tau_f=1.0, t_a=7.0), grid).p.max()
    x = grid.times - 7.0
    oracle = ((1.0 / (2.0 * np.pi)) ** 0.25 * np.sqrt(np.pi) * np.exp(0.25 - x / 2.0)
              * (1.0 + erf(x / 2.0 - 0.5)))
    fixed_oracle = (np.abs(oracle) ** 2).max()
    ok = abs(best - 0.80) <= 0.02 and abs(fixed - fixed_oracle) < 1e-4
    assert _verdict(2, ok, f"Markov optimum max P = {best:.4f} at tau_f = {best_tf:.3f} "
                           f"(0.80 +- 0.02); fixed tau_f = 1/gamma gives {fixed:.4f} "
                           f"(erf oracle {fixed_oracle:.4f})")


@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
def test_criterion_3_spectral_matching_optimum(shape):
    """25x25 sweep per shape: global argmax tau_f in [0.5, 2]/gamma, < 5 min."""
    start = time.perf_counter()
    tau_f_grid = np.logspace(-2, 1, 25)
    kappa_grid = np.logspace(-1, 2, 25)
    sweep = sweep_pmax(AtomParams(), shape, tau_f_grid, kappa_grid)
    tf_star, kap_star, p_star = sweep.argmax
    elapsed = time.perf_counter() - start
    ok = 0.5 <= tf_star <= 2.0 and elapsed < 300.0
    assert _verdict(3, ok, f"{shape}: argmax tau_f = {tf_star:.3f} in [0.5, 2], "
                           f"kappa* = {kap_star:.2f}, p* = {p_star:.4f}, "
                           f"runtime {elapsed:.1f}s (< 300s)")


def test_criterion_4_rise_time_bound():
    """Delta-pulse rising edges fit a/kappa with R^2 > 0.99; Markov rise < 2 dt."""
    kappas = np.array([5.0, 10.0, 20.0, 40.0])
    rises = []
    for kap in kappas:
        grid = TimeGrid.from_span(0.0, 4.0, 1e-4)
        c_r, _, _ = delta_pulse_rise(AtomParams(), kap, grid)
        traj = Trajectory(grid=grid, c=c_r.astype(complex), p=c_r**2,
                          solver_id="rise_edge", params={})  # P is not bounded by 1
        rises.append(transduction_metrics(traj, kap, GAMMA).rise_10_90)
    rises = np.array(rises)
    a = np.sum(rises / kappas) / np.sum(1.0 / kappas**2)
    r2 = 1.0 - np.sum((rises - a / kappas) ** 2) / np.sum((rises - rises.mean()) ** 2)

    dt = 1e-3
    grid = TimeGrid.from_span(0.0, 15.0, dt)
    markov = solve_markov(AtomParams(), PulseSpec("delta", xi0=0.1, t_a=1.0), grid)
    m_rise = transduction_metrics(markov, np.inf, GAMMA).rise_10_90
    ok = r2 > 0.99 and m_rise < 2.0 * dt
    assert _verdict(4, ok, f"rise ~ a/kappa with a = {a:.3f}, R^2 = {r2:.4f} (> 0.99); "
                           f"Markov delta rise = {m_rise:.2e} (< {2 * dt:.0e})")


def test_criterion_5_solver_cross_validation():
    """closed-form, ODE and Volterra agree to 1e-4 on P across the matrix."""
    worst = 0.0
    worst_case = ""
    for kappa in (1.0, 2.0, 10.0, 100.0):
        spec = InteractionSpectrum.lorentzian(kappa)
        for shape in ("gaussian", "decaying_exp", "rising_exp"):
            for tau_f in (0.1, 1.0, 10.0):
                grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
                pulse = PulseSpec(shape, tau_f=tau_f, t_a=8.0)
                atom = AtomParams()
                a = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
                b = solve_ode_reduction(atom, kappa, pulse, grid)
                c = solve_volterra(atom, spec, pulse, grid)
                gap = max(np.abs(a.p - b.p).max(), np.abs(a.p - c.p).max(),
                          np.abs(b.p - c.p).max())
                if gap > worst:
                    worst = gap
                    worst_case = f"kappa={kappa}, {shape}, tau_f={tau_f}"
    ok = worst <= 1e-4
    assert _verdict(5, ok, f"36-case matrix sup-norm gap = {worst:.2e} (<= 1e-4), "
                           f"worst at {worst_case}")


def test_criterion_6_spontaneous_decay():
    """kappa = 100: rate within 2% of gamma; kappa = gamma: non-exponential."""
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    weak = spontaneous_decay(AtomParams(c0=1.0), 100.0, grid)
    rate = -np.polyfit(grid.times, np.log(weak.p), 1)[0]

    strong = spontaneous_decay(AtomParams(c0=1.0), 1.0, grid)
    keep = strong.p > 1e-12
    coef = np.polyfit(grid.times[keep], np.log(strong.p[keep]), 1)
    resid = np.abs(np.log(strong.p[keep]) - np.polyval(coef, grid.times[keep])).max()
    ok = abs(rate - GAMMA) <= 0.02 and resid > 0.05
    assert _verdict(6, ok, f"kappa=100 fit rate = {rate:.4f} (within 2% of 1); "
                           f"kappa=1 log-residual = {resid:.2f} (> 0.05)")


def test_criterion_7_markov_convergence():
    """sup|P_lorentzian - P_markov| decreasing over kappa = 10, 100, 1000."""
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    ref = solve_markov(atom, pulse, grid)
    gaps = []
    for kappa in (10.0, 100.0, 1000.0):
        traj = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
        gaps.append(np.abs(traj.p - ref.p).max())
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2
    assert _verdict(7, ok, "sup gaps at kappa = 10, 100, 1000: "
                           + ", ".join(f"{g:.2e}" for g in gaps)
                           + " (monotone, last < 1e-2)")


def test_criterion_8_detector_contrast():
    """Linear Fock == coherent; Bloch n=1 peak short of Fock peak by > 0.1."""
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    flat = InteractionSpectrum.flat()
    fock_lin = linear_response(atom, pulse, grid, flat)
    coh_lin = linear_response(atom, CoherentPulseSpec(base=pulse, n_bar=1.0), grid, flat)
    lin_gap = np.abs(fock_lin.y - coh_lin.y).max()

    fock_atom = fock_atom_response(atom, pulse, grid)
    bloch = bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=1.0), grid)
    margin = fock_atom.y.max() - bloch.y.max()

    n_weak = 1e-4
    weak = bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=n_weak), grid)
    weak_rel = np.abs(weak.y / n_weak - fock_lin.y).max() / fock_lin.y.max()
    ok = lin_gap <= 1e-12 and margin > 0.1 and weak_rel < 0.01
    assert _verdict(8, ok, f"linear Fock-coherent gap = {lin_gap:.1e} (<= 1e-12); "
                           f"Bloch peak {bloch.y.max():.3f} vs Fock {fock_atom.y.max():.3f} "
                           f"(margin {margin:.3f} > 0.1); weak-drive mismatch "
                           f"{weak_rel:.2e} (< 1%)")


def test_criterion_9_branch_algebra():
    """s1+s2 = 1 and p1 p2 = gamma kappa/2 to 1e-12 over 1e4 random pairs."""
    rng = np.random.default_rng(20240817)
    worst_s = 0.0
    worst_p = 0.0
    for _ in range(10_000):
        g, k = 10.0 ** rng.uniform(-2, 2, size=2)
        br = branch_params(g, k)
        worst_s = max(worst_s, abs(br.s1 + br.s2 - 1.0))
        worst_p = max(worst_p, abs(br.p1 * br.p2 - 0.5 * g * k) / (0.5 * g * k))
    br = branch_params(GAMMA, 1000.0 * GAMMA)
    p1_rel = abs(br.p1 - 0.5 * GAMMA) / (0.5 * GAMMA)
    p2_rel = abs(br.p2 - 1000.0 * GAMMA) / (1000.0 * GAMMA)
    ok = worst_s <= 1e-12 and worst_p <= 1e-12 and p1_rel < 1e-3 and p2_rel < 1e-3
    assert _verdict(9, ok, f"1e4 pairs: |s1+s2-1| <= {worst_s:.1e}, "
                           f"|p1 p2 - gk/2| rel <= {worst_p:.1e} (<= 1e-12); "
                           f"kappa = 1e3: p1 -> gamma/2 within {p1_rel:.1e}, "
                           f"p2 -> kappa within {p2_rel:.1e} (< 1e-3)")
