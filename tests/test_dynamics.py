"""Solver cross-validation, branch algebra, decay laws, rising edges."""

import numpy as np
import pytest
from scipy.special import erf

from fockatom import (
    AtomParams,
    InteractionSpectrum,
    PulseSpec,
    TimeGrid,
    branch_decomposition,
    branch_params,
    delta_pulse_rise,
    solve_closed_form_lorentzian,
    solve_markov,
    solve_ode_reduction,
    solve_volterra,
    spontaneous_decay,
)
from fockatom.dynamics import MODE_FRACTION_PRESETS


def markov_gaussian_amplitude(t, tau_f=1.0, gamma=1.0, gamma_p=1.0, t_a=0.0):
    """Closed-form Markov response to a Gaussian pulse (erf oracle)."""
    x = np.asarray(t, dtype=float) - t_a
    pref = (1.0 / (2.0 * np.pi * tau_f**2)) ** 0.25
    return (pref * np.sqrt(gamma_p) * tau_f * np.sqrt(np.pi)
            * np.exp(gamma**2 * tau_f**2 / 4.0 - gamma * x / 2.0)
            * (1.0 + erf(x / (2.0 * tau_f) - gamma * tau_f / 2.0)))


# ---------------------------------------------------------------------------
# branch parameters
# ---------------------------------------------------------------------------

def test_branch_values_weak_coupling_example():
    br = branch_params(1.0, 10.0)
    assert br.p1 == pytest.approx(0.527864, abs=1e-6)
    assert br.p2 == pytest.approx(9.472136, abs=1e-6)
    assert br.s1 == pytest.approx(1.059017, abs=1e-6)
    assert br.s2 == pytest.approx(-0.059017, abs=1e-6)
    assert not br.degenerate


def test_branch_identities_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(300):
        g, k = 10.0 ** rng.uniform(-2, 2, size=2)
        br = branch_params(g, k)
        assert abs(br.s1 + br.s2 - 1.0) < 1e-12
        assert abs(br.p1 + br.p2 - k) < 1e-12 * k
        assert abs(br.p1 * br.p2 - 0.5 * g * k) < 1e-12 * 0.5 * g * k


def test_branch_weak_coupling_expansion():
    g = 1.0
    br = branch_params(g, 1000.0 * g)
    assert abs(br.p1 - 0.5 * g) / (0.5 * g) < 1e-3
    assert abs(br.s2 - (-g / 2000.0)) / (g / 2000.0) < 0.1


def test_branch_complex_conjugate_pair_strong_coupling():
    br = branch_params(1.0, 1.0)
    assert br.p2 == pytest.approx(np.conj(br.p1))
    assert br.s2 == pytest.approx(np.conj(br.s1))
    assert br.p1.real == pytest.approx(0.5)   # decay rate kappa/2
    assert br.p1.imag != 0.0                  # frequency shift


def test_branch_degenerate_flag():
    assert branch_params(1.0, 2.0).degenerate
    assert branch_params(1.0, 2.0 * (1 + 1e-10)).degenerate
    assert not branch_params(1.0, 2.0 * (1 + 1e-6)).degenerate


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_recovers_initial_condition():
    atom = AtomParams(c0=1.0)
    grid = TimeGrid.from_span(0.0, 1.0, 1e-3)
    traj = solve_closed_form_lorentzian(atom, 10.0, PulseSpec("gaussian", t_a=0.5), grid)
    assert traj.c[0] == pytest.approx(1.0, abs=1e-12)


def test_closed_form_decay_weak_coupling_is_exponential():
    atom = AtomParams(c0=1.0)
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    traj = solve_closed_form_lorentzian(atom, 100.0, None, grid)
    ref = np.exp(-grid.times)
    assert np.abs(traj.p / ref - 1.0).max() < 0.02


def test_closed_form_strong_coupling_high_absorption():
    # Gaussian tau_f = 1/gamma at kappa = gamma exceeds P = 0.96
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    traj = solve_closed_form_lorentzian(atom, 1.0, pulse, grid)
    assert traj.p.max() > 0.96


# ---------------------------------------------------------------------------
# ODE reduction
# ---------------------------------------------------------------------------

def test_ode_matches_closed_form_gaussian():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    a = solve_closed_form_lorentzian(atom, 10.0, pulse, grid)
    b = solve_ode_reduction(atom, 10.0, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-6


def test_ode_zero_dynamics():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 2.0, 1e-3)
    traj = solve_ode_reduction(atom, 10.0, None, grid)
    assert np.abs(traj.c).max() == 0.0


def test_ode_degenerate_matches_closed_form():
    # the ODE route has no removable singularity at kappa = 2 gamma
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    a = solve_closed_form_lorentzian(atom, 2.0, pulse, grid)
    b = solve_ode_reduction(atom, 2.0, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-6


def test_ode_rejects_stiff_step():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match="step too large for stiffness"):
        solve_ode_reduction(atom, 1000.0, None, grid)


# ---------------------------------------------------------------------------
# Volterra
# ---------------------------------------------------------------------------

def test_volterra_matches_closed_form_short_pulse():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 10.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=0.1, t_a=3.0)
    spec = InteractionSpectrum.lorentzian(10.0)
    a = solve_closed_form_lorentzian(atom, 10.0, pulse, grid)
    b = solve_volterra(atom, spec, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-4


def test_volterra_no_coupling_keeps_initial_state():
    d = np.linspace(-50, 50, 101)
    spec = InteractionSpectrum.tabulated(d, np.zeros_like(d))
    atom = AtomParams(c0=0.6)
    grid = TimeGrid.from_span(0.0, 2.0, 1e-3)
    traj = solve_volterra(atom, spec, None, grid)
    assert np.abs(traj.c - 0.6).max() < 1e-14


def test_volterra_tabulated_lorentzian_consistency_decay():
    # sampled Lorentzian reproduces the analytic-kernel decay within 1e-3
    gamma, kappa = 1.0, 10.0
    d = np.linspace(-500.0, 500.0, 20001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    atom = AtomParams(c0=1.0)
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    a = solve_volterra(atom, tab, None, grid)
    b = solve_closed_form_lorentzian(atom, kappa, None, grid)
    assert np.abs(a.p - b.p).max() < 1e-3


def test_volterra_tabulated_lorentzian_consistency_driven():
    # driven comparison in the bandwidth-dominated regime kappa*tau_f >> 1,
    # where the analytic coupling phase (a ~1/kappa drive delay) is negligible
    gamma, kappa, tau_f = 1.0, 100.0, 10.0
    d = np.linspace(-5000.0, 5000.0, 200001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 40.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=tau_f, t_a=20.0)
    a = solve_volterra(atom, tab, pulse, grid)
    b = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-3


def test_volterra_tabulated_exponential_pulse_runs_sane():
    # exponential pulse on a finite table: quadrature tails are table-limited,
    # so expect agreement at the coupling-phase-delay scale ~|dP/dt|/kappa
    gamma, kappa, tau_f = 1.0, 50.0, 2.0
    d = np.linspace(-2500.0, 2500.0, 20001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 14.0, 2e-3)
    pulse = PulseSpec("decaying_exp", tau_f=tau_f, t_a=2.0)
    a = solve_volterra(atom, tab, pulse, grid)
    b = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
    assert np.abs(a.p - b.p).max() < 2e-2
    assert a.p.max() > 0.3


def test_volterra_redirects_flat_spectrum():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 8.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    with pytest.warns(UserWarning, match="redirecting"):
        traj = solve_volterra(atom, InteractionSpectrum.flat(), pulse, grid)
    assert traj.solver_id == "markov"


@pytest.mark.parametrize("t_max", [33.0, 40.0])
def test_volterra_refuses_tabulated_grid_past_alias_horizon(t_max):
    # node gap h = 0.2: the tabulated kernel repeats after 2*pi/h = 31.4
    kappa = 10.0
    d = np.linspace(-500.0, 500.0, 5001)
    g2 = (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    grid = TimeGrid.from_span(0.0, t_max, 1e-2)
    with pytest.raises(ValueError, match=r"alias horizon 2\*pi/h = 31\.4159"):
        solve_volterra(AtomParams(c0=1.0), InteractionSpectrum.tabulated(d, g2), None, grid)


def test_volterra_memory_budget():
    atom = AtomParams()
    grid = TimeGrid(0.0, 1e-3, 1_000_001)
    with pytest.raises(ValueError, match="memory budget exceeded"):
        solve_volterra(atom, InteractionSpectrum.lorentzian(1.0), None, grid)


# ---------------------------------------------------------------------------
# Markov reference
# ---------------------------------------------------------------------------

def test_markov_delta_pulse_instantaneous_decay():
    atom = AtomParams(gamma_p=0.8, t_d=0.5)
    grid = TimeGrid.from_span(0.0, 10.0, 1e-3)
    pulse = PulseSpec("delta", xi0=0.1, t_a=1.0)
    traj = solve_markov(atom, pulse, grid)
    t = grid.times
    expected = np.where(t >= 1.5, 0.1 * np.sqrt(0.8) * np.exp(-0.5 * (t - 1.5)), 0.0)
    assert np.abs(traj.c - expected).max() < 1e-14


def test_markov_gaussian_matches_erf_oracle():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    traj = solve_markov(atom, pulse, grid)
    oracle = np.abs(markov_gaussian_amplitude(grid.times, t_a=7.0)) ** 2
    assert np.abs(traj.p - oracle).max() < 1e-6
    # true value of the tau_f = 1/gamma Markov peak; the pulse-length
    # optimum (~0.801) is higher and lives at tau_f ~ 0.68/gamma
    assert traj.p.max() == pytest.approx(0.770249, abs=1e-4)


def test_markov_matched_rising_exp_reaches_unity():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 25.0, 1e-3)
    pulse = PulseSpec("rising_exp", tau_f=1.0, t_a=18.0)
    traj = solve_markov(atom, pulse, grid)
    assert traj.p.max() == pytest.approx(1.0, abs=1e-5)


def test_markov_no_drive_no_excitation():
    traj = solve_markov(AtomParams(), None, TimeGrid.from_span(0.0, 2.0, 1e-3))
    assert np.abs(traj.c).max() == 0.0


# ---------------------------------------------------------------------------
# spontaneous decay
# ---------------------------------------------------------------------------

def test_decay_initial_probability_is_one():
    traj = spontaneous_decay(AtomParams(c0=1.0), 10.0, TimeGrid.from_span(0.0, 5.0, 1e-3))
    assert traj.p[0] == pytest.approx(1.0, abs=1e-12)


def test_decay_requires_excited_atom():
    with pytest.raises(ValueError, match="c0 = 1"):
        spontaneous_decay(AtomParams(), 10.0, TimeGrid.from_span(0.0, 5.0, 1e-3))


def _fit_log_slope(t, p):
    coef = np.polyfit(t, np.log(p), 1)
    return -coef[0], coef


def test_decay_weak_coupling_rate_within_two_percent():
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    traj = spontaneous_decay(AtomParams(c0=1.0), 100.0, grid)
    rate, _ = _fit_log_slope(grid.times, traj.p)
    assert 0.98 < rate < 1.02


def test_decay_strong_coupling_not_exponential():
    grid = TimeGrid.from_span(0.0, 5.0, 1e-3)
    traj = spontaneous_decay(AtomParams(c0=1.0), 1.0, grid)
    keep = traj.p > 1e-12
    _, coef = _fit_log_slope(grid.times[keep], traj.p[keep])
    resid = np.log(traj.p[keep]) - np.polyval(coef, grid.times[keep])
    assert np.abs(resid).max() > 0.05


def test_decay_degenerate_continuity():
    grid = TimeGrid.from_span(0.0, 8.0, 1e-3)
    atom = AtomParams(c0=1.0)
    mid = spontaneous_decay(atom, 2.0, grid)
    for eps in (1e-6, -1e-6):
        near = spontaneous_decay(atom, 2.0 * (1.0 + eps), grid)
        assert np.abs(near.p - mid.p).max() < 1e-6


# ---------------------------------------------------------------------------
# delta-pulse rising edge
# ---------------------------------------------------------------------------

def test_rise_speed_width():
    grid = TimeGrid.from_span(0.0, 2.0, 1e-4)
    _, dc_r = delta_pulse_rise(AtomParams(), 10.0, grid)
    peak = dc_r.max()
    t = grid.times
    below = np.nonzero(dc_r <= peak / np.e)[0]
    width = t[below[below > np.argmax(dc_r)][0]]
    assert width == pytest.approx(1.0 / 9.5, abs=2e-4)
    assert abs(width - 0.10526) < 1e-3


def test_rise_saturates_fast_at_huge_kappa():
    grid = TimeGrid.from_span(0.0, 0.01, 1e-6)
    c_r, _ = delta_pulse_rise(AtomParams(), 1e4, grid)
    sat = c_r[-1]
    t99 = grid.times[np.nonzero(c_r >= 0.99 * sat)[0][0]]
    assert t99 <= 5e-4


def test_rise_monotone_nondecreasing():
    grid = TimeGrid.from_span(0.0, 3.0, 1e-3)
    c_r, _ = delta_pulse_rise(AtomParams(t_d=0.3), 5.0, grid)
    assert np.all(np.diff(c_r) >= -1e-15)
    assert c_r[grid.times < 0.3].max() == 0.0


def test_rise_requires_weak_coupling():
    with pytest.raises(ValueError, match="weak coupling"):
        delta_pulse_rise(AtomParams(), 0.5, TimeGrid.from_span(0.0, 1.0, 1e-3))


# ---------------------------------------------------------------------------
# branch decomposition
# ---------------------------------------------------------------------------

def test_branch_sum_matches_closed_form():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=8.0)
    c1, c2 = branch_decomposition(atom, 10.0, pulse, grid)
    ref = solve_closed_form_lorentzian(atom, 10.0, pulse, grid)
    assert np.abs(c1 + c2 - ref.c).max() < 1e-4


@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
def test_branch_sum_matches_closed_form_complex_branches(shape):
    # kappa < 2 gamma: complex-conjugate rates p_j in the cavity filters
    atom = AtomParams(gamma_p=0.7)
    grid = TimeGrid.from_span(0.0, 45.0, 2e-3)
    pulse = PulseSpec(shape, tau_f=1.0, t_a=30.0, delta0=0.4)
    c1, c2 = branch_decomposition(atom, 0.5, pulse, grid)
    ref = solve_closed_form_lorentzian(atom, 0.5, pulse, grid)
    assert np.abs(c1 + c2 - ref.c).max() < 1e-6


def test_branch_two_dominates_nothing_weak_coupling():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 12.0, 2e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=6.0)
    c1, c2 = branch_decomposition(atom, 100.0, pulse, grid)
    assert np.abs(c2).max() / np.abs(c1).max() < 0.02


def test_branch_zero_pulse_gives_zero():
    c1, c2 = branch_decomposition(AtomParams(), 10.0, None,
                                  TimeGrid.from_span(0.0, 1.0, 1e-2))
    assert np.abs(c1).max() == 0.0 and np.abs(c2).max() == 0.0


def test_branch_degenerate_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        branch_decomposition(AtomParams(), 2.0, PulseSpec("gaussian"),
                             TimeGrid.from_span(0.0, 1.0, 1e-2))


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_linearity_in_delta_amplitude():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 6.0, 1e-3)
    base = PulseSpec("delta", xi0=0.05, t_a=1.0)
    doubled = PulseSpec("delta", xi0=0.1, t_a=1.0)
    a = solve_closed_form_lorentzian(atom, 10.0, base, grid)
    b = solve_closed_form_lorentzian(atom, 10.0, doubled, grid)
    assert np.array_equal(2.0 * a.c, b.c)


def test_superposition_of_initial_state_and_pulse():
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=6.0)
    both = solve_closed_form_lorentzian(AtomParams(c0=0.5), 10.0, pulse, grid)
    only_c0 = solve_closed_form_lorentzian(AtomParams(c0=0.5), 10.0, None, grid)
    only_pulse = solve_closed_form_lorentzian(AtomParams(), 10.0, pulse, grid)
    assert np.abs(both.c - (only_c0.c + only_pulse.c)).max() < 1e-13


def test_probability_bound_across_solvers():
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 14.0, 1e-3)
    spec = InteractionSpectrum.lorentzian(1.0)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0)
    for traj in (solve_closed_form_lorentzian(atom, 1.0, pulse, grid),
                 solve_ode_reduction(atom, 1.0, pulse, grid),
                 solve_volterra(atom, spec, pulse, grid),
                 solve_markov(atom, pulse, grid)):
        assert traj.p.min() >= 0.0
        assert traj.p.max() <= 1.0 + 1e-9


def test_trajectory_probability_is_modulus_squared():
    grid = TimeGrid.from_span(0.0, 4.0, 1e-3)
    traj = solve_markov(AtomParams(), PulseSpec("gaussian", tau_f=0.5, t_a=2.0), grid)
    assert np.array_equal(traj.p, np.abs(traj.c) ** 2)


def test_gamma_rescaling_invariance():
    # C_gamma(t; kappa, tau_f) == C_1(gamma t; kappa/gamma, gamma tau_f):
    # gamma really is just the unit of rates throughout the stack
    fast = solve_closed_form_lorentzian(
        AtomParams(gamma=2.0, gamma_p=2.0), 20.0,
        PulseSpec("gaussian", tau_f=0.5, t_a=3.5), TimeGrid(0.0, 5e-4, 16001))
    slow = solve_closed_form_lorentzian(
        AtomParams(), 10.0,
        PulseSpec("gaussian", tau_f=1.0, t_a=7.0), TimeGrid(0.0, 1e-3, 16001))
    assert np.abs(fast.p - slow.p).max() < 1e-9


def test_propagation_delay_equals_arrival_shift():
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse_early = PulseSpec("gaussian", tau_f=1.0, t_a=5.0)
    pulse_late = PulseSpec("gaussian", tau_f=1.0, t_a=5.5)
    delayed = solve_closed_form_lorentzian(AtomParams(t_d=0.5), 10.0, pulse_early, grid)
    shifted = solve_closed_form_lorentzian(AtomParams(), 10.0, pulse_late, grid)
    assert np.abs(delayed.c - shifted.c).max() < 1e-12


def test_atom_params_validation_and_presets():
    with pytest.raises(ValueError, match="gamma"):
        AtomParams(gamma=-1.0)
    with pytest.raises(ValueError, match="gamma_p"):
        AtomParams(gamma_p=2.0)
    with pytest.raises(ValueError, match="c0"):
        AtomParams(c0=1.5)
    free = AtomParams.with_mode_fraction("free_space")
    assert free.gamma_p == pytest.approx(3.0 / (8.0 * np.pi))
    assert MODE_FRACTION_PRESETS["waveguide_1d"] == 0.5


# ---------------------------------------------------------------------------
# triple-solver spot matrix (the full matrix runs in the acceptance suite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kappa,shape,tau_f", [
    (1.0, "gaussian", 1.0),
    (2.0, "decaying_exp", 1.0),
    (10.0, "rising_exp", 0.1),
    (100.0, "gaussian", 0.1),
])
def test_triple_solver_agreement_spot(kappa, shape, tau_f):
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 12.0, 1e-3)
    pulse = PulseSpec(shape, tau_f=tau_f, t_a=6.0)
    spec = InteractionSpectrum.lorentzian(kappa)
    a = solve_closed_form_lorentzian(atom, kappa, pulse, grid)
    b = solve_ode_reduction(atom, kappa, pulse, grid)
    c = solve_volterra(atom, spec, pulse, grid)
    assert np.abs(a.p - b.p).max() < 1e-4
    assert np.abs(a.p - c.p).max() < 1e-4
    assert np.abs(b.p - c.p).max() < 1e-4
