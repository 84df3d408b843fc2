"""Rise/fall metrics, jitter-bound scaling, sweeps."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from fockatom import (
    AtomParams,
    InteractionSpectrum,
    PulseSpec,
    TimeGrid,
    Trajectory,
    branch_params,
    delta_pulse_rise,
    linear_response,
    solve,
    solve_closed_form_lorentzian,
    solve_markov,
    sweep_pmax,
    transduction_metrics,
)
from fockatom import analysis, dynamics
from fockatom.analysis import SOLVERS, _argmax_with_tiebreak, _local_maxima
from fockatom.dynamics import check_ode_step
from fockatom.grids import ParameterError
from fockatom.pulses import NORMALIZABLE_SHAPES

LN9 = np.log(9.0)


def _markov_delta_traj(gamma=1.0, t_arr=1.0, dt=1e-3, t_max=15.0):
    atom = AtomParams(gamma=gamma, gamma_p=gamma)
    grid = TimeGrid.from_span(0.0, t_max, dt)
    return solve_markov(atom, PulseSpec("delta", xi0=0.1, t_a=t_arr), grid)


def _rise_edge_traj(gamma, kappa, dt=2e-4, t_max=4.0):
    """Trajectory whose P is the squared delta-pulse rising edge (not bounded by 1)."""
    grid = TimeGrid.from_span(0.0, t_max, dt)
    c_r, _, _ = delta_pulse_rise(AtomParams(gamma=gamma, gamma_p=gamma), kappa, grid)
    return Trajectory(grid=grid, c=c_r.astype(complex), p=c_r**2,
                      solver_id="rise_edge", params={})


# ---------------------------------------------------------------------------
# transduction metrics
# ---------------------------------------------------------------------------

def test_markov_delta_fall_time():
    traj = _markov_delta_traj()
    m = transduction_metrics(traj, kappa=np.inf, gamma=1.0)
    assert abs(m.fall_90_10 - LN9) / LN9 < 0.01
    assert abs(m.fall_90_10 - 2.19722) < 0.03


def test_markov_delta_rise_below_two_steps():
    traj = _markov_delta_traj(dt=1e-3)
    m = transduction_metrics(traj, kappa=np.inf, gamma=1.0)
    assert m.rise_10_90 < 2e-3


def test_rise_halves_when_kappa_doubles():
    r10 = transduction_metrics(_rise_edge_traj(1.0, 10.0), 10.0, 1.0).rise_10_90
    r20 = transduction_metrics(_rise_edge_traj(1.0, 20.0), 20.0, 1.0).rise_10_90
    assert abs(r20 / r10 - 0.5) < 0.05


def test_metrics_window_and_bound():
    traj = _markov_delta_traj()
    m = transduction_metrics(traj, kappa=10.0, gamma=1.0)
    assert m.analytic_bound == pytest.approx(1.1)
    assert m.window == pytest.approx((m.rise_10_90 + m.fall_90_10) / LN9)
    # the jump sqrt(2 pi gamma_p) xi0 of the Dirac drive: P = 2 pi xi0^2
    assert m.p_max == pytest.approx(2 * np.pi * 0.01, rel=1e-3)
    assert not m.ambiguous
    # plain scalars, ready for a JSON record
    assert all(type(v) in (float, bool) for v in asdict(m).values()), asdict(m)


def test_metrics_fall_crossings_in_one_step_interpolate_like_the_rise():
    # P drops from the peak past both thresholds in one step: the 10% crossing, like the
    # 90% one, is interpolated from the sample before it, the mirror of the rise rule
    dt = 0.1
    grid = TimeGrid.from_span(0.0, 2 * dt, dt)
    p = np.array([0.0, 1.0, 0.05])
    traj = Trajectory(grid=grid, c=np.sqrt(p).astype(complex), p=p,
                      solver_id="synthetic", params={})
    m = transduction_metrics(traj, kappa=1.0, gamma=1.0)
    assert m.fall_90_10 == pytest.approx(0.8 / 0.95 * dt)
    assert m.rise_10_90 == pytest.approx(0.8 * dt)


def test_metrics_rise_from_first_sample_is_not_interpolated():
    # P already past 10% at the first sample: that sample is the crossing, with no earlier
    # sample to interpolate from; the 90% crossing still interpolates
    dt = 0.1
    grid = TimeGrid.from_span(0.0, 2 * dt, dt)
    p = np.array([0.5, 1.0, 0.0])
    traj = Trajectory(grid=grid, c=np.sqrt(p).astype(complex), p=p,
                      solver_id="synthetic", params={})
    m = transduction_metrics(traj, kappa=1.0, gamma=1.0)
    assert m.rise_10_90 == pytest.approx(0.8 * dt)
    assert m.fall_90_10 == pytest.approx(0.8 * dt)


def test_metrics_fall_past_grid_end_is_nan():
    # P still rising at the last sample: the rise is measured, both fall crossings never
    # happen inside the grid, so the fall and the window are NaN
    grid = TimeGrid.from_span(0.0, 1.0, 1e-2)
    p = grid.times.copy()
    traj = Trajectory(grid=grid, c=np.sqrt(p).astype(complex), p=p,
                      solver_id="synthetic", params={})
    m = transduction_metrics(traj, kappa=1.0, gamma=1.0)
    assert m.rise_10_90 == pytest.approx(0.8)
    assert np.isnan(m.fall_90_10) and np.isnan(m.window)
    assert m.t_peak == pytest.approx(1.0)


def test_metrics_flags_oscillatory_trajectory_ambiguous():
    # two comparable bumps: secondary peak above 0.8 p_max
    grid = TimeGrid.from_span(0.0, 10.0, 1e-3)
    t = grid.times
    p = np.exp(-((t - 3.0) ** 2)) + 0.9 * np.exp(-((t - 7.0) ** 2))
    traj = Trajectory(grid=grid, c=np.sqrt(p).astype(complex), p=p,
                      solver_id="synthetic", params={})
    m = transduction_metrics(traj, kappa=1.0, gamma=1.0)
    assert m.ambiguous


def test_local_maxima_match_find_peaks():
    # plateaus, maxima on the edges and ties come from few distinct levels;
    # some arrays also carry a NaN or an inf
    rng = np.random.default_rng(7)
    cases = [np.array([]), np.array([1.0]), np.array([2.0, 1.0]), np.array([0.0, 1.0, 1.0]),
             np.array([1.0, 0.0, 0.0, 1.0]), np.array([0.0, 2.0, 2.0, 2.0, 2.0, 0.0]),
             np.array([0.0, 1.0, np.nan, 1.0, 0.0]), np.array([0.0, np.inf, np.inf, 0.0])]
    for trial in range(3000):
        y = rng.integers(0, 4, size=rng.integers(2, 40)).astype(float)
        if trial % 5 == 0:
            y[rng.integers(0, y.size)] = np.nan if trial % 2 else np.inf
        cases.append(y)
    for i, y in enumerate(cases):
        height = float(i % 5) - 1.0
        want = find_peaks(y, height=height)[0]
        assert np.array_equal(_local_maxima(y, height), want), (y, height)


def test_metrics_reject_zero():
    grid = TimeGrid.from_span(0.0, 1.0, 1e-2)
    traj = solve_markov(AtomParams(), None, grid)
    with pytest.raises(ValueError, match="no absorption event"):
        transduction_metrics(traj, 1.0, 1.0)


def test_nonmarkov_rise_floors_as_pulse_shrinks():
    # shrinking the pulse shrinks the Markov rise time without bound, while
    # the finite interaction bandwidth pins the rise at its delta-pulse floor
    from fockatom import solve_closed_form_lorentzian

    atom = AtomParams()
    kappa = 10.0
    grid = TimeGrid.from_span(0.0, 8.0, 2e-4)
    delta_resp = solve_closed_form_lorentzian(
        atom, kappa, PulseSpec("delta", xi0=0.05, t_a=2.0), grid)
    rise_floor = transduction_metrics(delta_resp, kappa, 1.0).rise_10_90
    rise_m = {}
    rise_l = {}
    for tf in (0.1, 0.01):
        pulse = PulseSpec("gaussian", tau_f=tf, t_a=2.0)
        rise_m[tf] = transduction_metrics(solve_markov(atom, pulse, grid),
                                          kappa, 1.0).rise_10_90
        rise_l[tf] = transduction_metrics(
            solve_closed_form_lorentzian(atom, kappa, pulse, grid), kappa, 1.0).rise_10_90
    assert rise_m[0.01] < 0.2 * rise_m[0.1]          # Markov rise follows the pulse
    assert rise_m[0.01] < 0.25 * rise_floor          # and undercuts the floor freely
    assert rise_l[0.01] == pytest.approx(rise_floor, rel=0.05)
    assert rise_l[0.1] > rise_l[0.01]                # shrinking toward the floor


# ---------------------------------------------------------------------------
# jitter-bound scaling
# ---------------------------------------------------------------------------

def test_rise_time_scales_inversely_with_kappa():
    kappas = np.array([5.0, 10.0, 20.0, 40.0])
    rises = np.array([
        transduction_metrics(_rise_edge_traj(1.0, k, dt=1e-4), k, 1.0).rise_10_90
        for k in kappas
    ])
    a = np.sum(rises / kappas) / np.sum(1.0 / kappas**2)
    pred = a / kappas
    r2 = 1.0 - np.sum((rises - pred) ** 2) / np.sum((rises - rises.mean()) ** 2)
    assert 1.5 <= a <= 3.0
    assert r2 > 0.99


def test_fall_time_scales_inversely_with_gamma():
    gammas = np.array([0.5, 1.0, 2.0, 4.0])
    falls = []
    for g in gammas:
        traj = _markov_delta_traj(gamma=g, t_arr=0.5, dt=5e-4, t_max=4.0 + 10.0 / g)
        falls.append(transduction_metrics(traj, kappa=100.0, gamma=g).fall_90_10)
    falls = np.array(falls)
    b = np.sum(falls * (1.0 / gammas)) / np.sum(1.0 / gammas**2)
    assert abs(b - LN9) / LN9 < 0.05


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_gaussian_optimum_location_and_value():
    atom = AtomParams()
    tau_f_grid = np.logspace(-2, 1, 13)
    kappa_grid = np.array([1.0, 2.0, 10.0, 100.0])
    sweep = sweep_pmax(atom, "gaussian", tau_f_grid, kappa_grid)
    tf_star, kap_star, p_star = sweep.argmax
    assert 0.5 <= tf_star <= 2.0
    assert p_star > 0.96
    assert sweep.p_max[0].max() > 0.96
    # kappa = gamma row beats the weak-coupling row for the Gaussian pulse
    assert sweep.p_max[0].max() > sweep.p_max[3].max()


def test_sweep_rising_exp_strong_coupling_depresses():
    atom = AtomParams()
    tau_f_grid = np.array([1.0])
    kappa_grid = np.array([1.0, 10.0])
    sweep = sweep_pmax(atom, "rising_exp", tau_f_grid, kappa_grid)
    assert sweep.p_max[0, 0] < sweep.p_max[1, 0]


def test_sweep_records_cell_errors_and_continues():
    # at kappa = 1e5 the RK4 step 0.1/kappa puts the 23-long cell over the sample budget
    atom = AtomParams()
    sweep = sweep_pmax(atom, "gaussian", np.array([1.0]), np.array([1.0, 1e5]),
                       solver="ode_rk4")
    assert sweep.status[0][0] == "ok"
    assert sweep.status[1][0].startswith("error: 2.3e+07 samples exceed the budget")
    assert np.isnan(sweep.p_max[1, 0])
    assert np.isfinite(sweep.p_max[0, 0])


def test_sweep_refuses_a_delta_pulse_before_any_cell(monkeypatch):
    cells = []
    monkeypatch.setattr(analysis, "cell_grid", lambda *args, **kw: cells.append(args))
    with pytest.raises(ParameterError) as exc:
        sweep_pmax(AtomParams(), "delta", np.array([0.5, 1.0]), np.array([1.0, 10.0]))
    assert exc.value.field == "shape"
    assert cells == []


def test_sweep_input_validation():
    atom = AtomParams()
    with pytest.raises(ValueError, match="nonempty"):
        sweep_pmax(atom, "gaussian", np.array([]), np.array([1.0]))
    with pytest.raises(ValueError, match="ascending"):
        sweep_pmax(atom, "gaussian", np.array([2.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="solver"):
        sweep_pmax(atom, "gaussian", np.array([1.0]), np.array([1.0]), solver="magic")


def test_argmax_tiebreak_prefers_small_tau_then_kappa():
    tau = np.array([0.5, 1.0])
    kap = np.array([2.0, 3.0])
    flat = np.ones((2, 2))
    assert _argmax_with_tiebreak(tau, kap, flat) == (0.5, 2.0, 1.0)
    single = np.array([[0.7]])
    assert _argmax_with_tiebreak(np.array([1.5]), np.array([4.0]), single) == (1.5, 4.0, 0.7)


def test_sweep_single_cell():
    atom = AtomParams()
    sweep = sweep_pmax(atom, "gaussian", np.array([1.0]), np.array([1.0]))
    tf, kp, p = sweep.argmax
    assert (tf, kp) == (1.0, 1.0)
    assert p > 0.95


def _half_rate_spectrum(kind):
    """A spectrum of each kind whose gamma_p = 0.5 is not AtomParams()' gamma_p = 1."""
    if kind == "tabulated":
        d = np.linspace(-200.0, 200.0, 4001)
        return InteractionSpectrum.tabulated(d, (1.0 / (2 * np.pi)) / ((d / 5.0) ** 2 + 1.0),
                                             gamma_p=0.5)
    if kind == "flat":
        return InteractionSpectrum.flat(gamma_p=0.5)
    return InteractionSpectrum.lorentzian(1.0, gamma_p=0.5)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("kind", ["lorentzian", "flat", "tabulated"])
def test_solve_refuses_spectrum_rates_that_are_not_the_atom(kind, solver):
    # each solver but volterra reads the atom's rates, so a mismatch would run silently
    grid = TimeGrid.from_span(0.0, 8.0, 1e-2)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    with pytest.raises(ParameterError, match="rates disagree") as err:
        solve(AtomParams(), _half_rate_spectrum(kind), pulse, grid, solver)
    assert err.value.field == "gamma_p"


def test_markov_is_reached_by_the_flat_spectrum_not_by_name():
    # a named markov solver would ignore a Lorentzian spectrum's kappa, and a sweep's cells
    grid = TimeGrid.from_span(0.0, 8.0, 1e-2)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    assert "markov" not in SOLVERS
    assert solve(AtomParams(), InteractionSpectrum.flat(), pulse, grid).solver_id == "markov"
    for spectrum in (InteractionSpectrum.flat(), InteractionSpectrum.lorentzian(5.0)):
        with pytest.raises(ParameterError) as err:
            solve(AtomParams(), spectrum, pulse, grid, "markov")
        assert err.value.field == "solver"
    with pytest.raises(ParameterError) as err:
        sweep_pmax(AtomParams(), "gaussian", np.array([1.0]), np.array([1.0]), solver="markov")
    assert err.value.field == "solver"


def test_linear_response_refuses_spectrum_rates_that_are_not_the_atom():
    grid = TimeGrid.from_span(0.0, 8.0, 1e-2)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    with pytest.raises(ParameterError, match="rates disagree"):
        linear_response(AtomParams(), pulse, grid, _half_rate_spectrum("flat"))
    spectrum = InteractionSpectrum.flat(gamma_p=1.0, gamma=2.0)
    with pytest.raises(ParameterError, match="rates disagree") as err:
        linear_response(AtomParams(), pulse, grid, spectrum)
    assert err.value.field == "gamma"


def test_derived_sweep_rk4_step_resolves_the_stiffest_rate(monkeypatch):
    steps = []

    def spy(atom, spectrum, pulse, grid, solver):
        steps.append((spectrum.kappa, grid.dt))
        return solve(atom, spectrum, pulse, grid, solver)

    monkeypatch.setattr(analysis, "solve", spy)
    sweep = sweep_pmax(AtomParams(), "gaussian", [1.0], [1.0, 50.0, 100.0], solver="ode_rk4")
    assert [row[0] for row in sweep.status] == ["ok"] * 3
    assert [kappa for kappa, _ in steps] == [1.0, 50.0, 100.0]
    for kappa, dt in steps:
        check_ode_step(1.0, kappa, dt)


def _refine_on_times(t, y, i):
    """Parabolic peak refinement read off the sample times array t."""
    if i == 0 or i == len(y) - 1 or min(y[i - 1], y[i + 1]) < 0.5 * y[i]:
        return t[i], y[i]
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= 0.0:
        return t[i], y[i]
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    return t[i] + shift * (t[1] - t[0]), y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift


@pytest.mark.parametrize("c0", [0j, 0.3 + 0.2j], ids=["c0_zero", "c0_set"])
@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
def test_sweep_cell_is_the_refined_peak_of_its_solve(shape, c0):
    # kappa = 0.5 has a complex pole pair, 10 real poles; each cell's (p_max, t_peak) is the
    # peak of solve(...).p refined on its times array, bit for bit. The matched atom runs
    # first and a mode fraction of 0.5 then sweeps the same kappas: the spectra and branches
    # memoised per kappa row are keyed on the rates too
    for mode_fraction in (1.0, 0.5):
        atom = AtomParams(gamma_p=mode_fraction, c0=c0)
        taus, kappas = [0.3, 1.0], [0.5, 10.0]
        sweep = sweep_pmax(atom, shape, taus, kappas)
        for i, kappa in enumerate(kappas):
            for j, tau_f in enumerate(taus):
                grid, t_a = analysis.cell_grid(shape, tau_f, kappa, atom.gamma)
                traj = solve(atom, InteractionSpectrum.lorentzian(kappa, gamma_p=atom.gamma_p),
                             PulseSpec(shape, tau_f=tau_f, t_a=t_a), grid)
                tp, pm = _refine_on_times(traj.grid.times, traj.p, int(np.argmax(traj.p)))
                assert (sweep.p_max[i, j], sweep.t_peak[i, j]) == (pm, tp)
                assert analysis._refine_peak(traj.grid, traj.p, int(np.argmax(traj.p))) == (tp, pm)


@pytest.mark.parametrize("kappa", [np.nan, 0.0, -1.0])
def test_memoised_kappa_constants_refuse_a_bad_kappa_on_every_call(kappa):
    # the memoised spectrum, branches and pulse window keep their range checks: a refused
    # kappa (or tau_f) raises each time it is asked for, and a sweep row of it fails every cell
    grid = TimeGrid.from_span(0.0, 8.0, 1e-2)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    for _ in range(2):
        for call, field in ((lambda: InteractionSpectrum.lorentzian(kappa), "kappa"),
                            (lambda: branch_params(1.0, kappa), "kappa"),
                            (lambda: solve_closed_form_lorentzian(AtomParams(), kappa, pulse,
                                                                  grid), "kappa"),
                            (lambda: analysis.pulse_window("gaussian", 1.0, kappa, 1.0), "kappa"),
                            (lambda: analysis.pulse_window("gaussian", kappa, 10.0, 1.0), "tau_f")):
            with pytest.raises(ParameterError) as err:
                call()
            assert err.value.field == field
    if np.isnan(kappa):
        return  # a NaN axis is refused as unsorted before any cell
    sweep = sweep_pmax(AtomParams(), "gaussian", [1.0, 2.0], [kappa, 1.0])
    assert all(status.startswith("error: kappa must lie in") for status in sweep.status[0])
    assert sweep.status[1] == ["ok", "ok"]


def test_sweep_cell_reads_its_window_once(monkeypatch):
    # cell_grid and _cell_peak share one memoised window per cell; a fresh cache counts the
    # evaluations of the _WINDOWS table
    reads = []

    class Counting(dict):
        def __getitem__(self, shape):
            reads.append(shape)
            return super().__getitem__(shape)

    monkeypatch.setattr(analysis, "_WINDOWS", Counting(analysis._WINDOWS))
    analysis.pulse_window.cache_clear()
    sweep = sweep_pmax(AtomParams(), "gaussian", [0.5, 1.0], [1.0, 10.0])
    assert sweep.samples_solved < sweep.samples_grid  # every cell took its prefix
    assert reads == ["gaussian"] * 4


def test_sweep_with_no_successful_cell_is_refused():
    with pytest.raises(ParameterError) as err:
        sweep_pmax(AtomParams(), "gaussian", [0.5, 1.0], [-1.0, 0.0])
    assert err.value.field == "sweep"


def test_sweep_records_a_failed_banded_solve_as_an_error_cell(monkeypatch):
    # real poles (kappa = 10) run the float64 dtbtrs, a complex pair (kappa = 0.5) ztbtrs:
    # a dtbtrs that reports failure fails the real-pole cells alone
    monkeypatch.setattr(dynamics, "dtbtrs", lambda band, b, **kw: (b, -2))
    sweep = sweep_pmax(AtomParams(), "gaussian", [1.0], [0.5, 10.0])
    assert sweep.status == [["ok"], ["error: dtbtrs failed: info -2"]]
    assert np.isfinite(sweep.p_max[0, 0]) and np.isnan(sweep.p_max[1, 0])


def _full_grid_cell(atom, shape, tau_f, kappa):
    """The cell's grid, pulse, spectrum and its (t_peak, p_max) from the whole grid, or the
    error the whole grid's solve raises."""
    grid, t_a = analysis.cell_grid(shape, tau_f, kappa, atom.gamma, t_d=atom.t_d)
    pulse = PulseSpec(shape, tau_f=tau_f, t_a=t_a)
    spectrum = InteractionSpectrum.lorentzian(kappa, gamma_p=atom.gamma_p)
    try:
        traj = solve(atom, spectrum, pulse, grid)
    except ValueError as exc:
        return grid, pulse, spectrum, None, str(exc)
    return grid, pulse, spectrum, traj, analysis._refine_peak(grid, traj.p, int(np.argmax(traj.p)))


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0 ** x)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(shape=st.sampled_from(NORMALIZABLE_SHAPES), tau_f=_log_uniform(0.01, 10.0),
       kappa=st.one_of(_log_uniform(0.1, 100.0), st.floats(2.0 - 1e-6, 2.0 + 1e-6)),
       c0_abs=st.floats(0.0, 1.0), c0_arg=st.floats(0.0, 2.0 * np.pi),
       t_d=st.floats(0.0, 0.5), mode_fraction=st.floats(0.01, 1.0))
@example(shape="gaussian", tau_f=0.1, kappa=10.0, c0_abs=1.0, c0_arg=1.5 * np.pi, t_d=0.0,
         mode_fraction=1.0)  # c0 = -1j adds to the pulse's amplitude: P > 1 + 1e-6
@example(shape="gaussian", tau_f=10.0 ** 0.75, kappa=10.0 ** 0.25, c0_abs=1.0, c0_arg=0.0,
         t_d=0.0, mode_fraction=1.0)  # a prefix below 16384 samples of a grid above it
def test_stopped_sweep_cell_is_the_full_grid_peak(shape, tau_f, kappa, c0_abs, c0_arg, t_d,
                                                   mode_fraction):
    # a closed-form cell that stops at its prefix reports the whole grid's refined peak and
    # status, bit for bit; the prefix is the whole grid's first samples, and its tail_bound
    # holds |C| down at every later sample
    atom = AtomParams(gamma_p=mode_fraction, t_d=t_d, c0=c0_abs * np.exp(1j * c0_arg))
    grid, pulse, spectrum, full, expected = _full_grid_cell(atom, shape, tau_f, kappa)
    if full is None:  # the guard fails the cell, with the whole grid's message (a sweep of
        with pytest.raises(ValueError) as err:  # this one failed cell would refuse itself)
            analysis._cell_peak(atom, spectrum, pulse, grid, "closed_form")
        assert str(err.value) == expected
        return
    sweep = sweep_pmax(atom, shape, [tau_f], [kappa])
    assert sweep.status == [["ok"]]
    assert (sweep.t_peak[0, 0], sweep.p_max[0, 0]) == expected
    m = sweep.samples_solved - sweep.cells_full_grid * grid.n  # the prefix, 0 at the double pole
    if m:
        prefix = solve(atom, spectrum, pulse, replace(grid, n=m))
        assert np.array_equal(prefix.p, full.p[:m])
        assert np.abs(full.c[m - 1:]).max() <= prefix.tail_bound


def _prefix_n(grid, t_a, tau_f, kappa, t_d=0.0):
    """Samples of a Gaussian cell's certified prefix: up to the first sample at or past
    t_d + t_a + 3 tau_f + 3/min(kappa, 2 gamma) + 1/gamma, gamma = 1."""
    end = t_d + t_a + (3.0 * tau_f + (1.0 + 3.0 / min(kappa, 2.0)))
    return int(np.ceil(end / grid.dt)) + 1


@pytest.mark.parametrize("kappa", [2.0 * (1.0 + 1e-7)], ids=["loose_bound_by_double_pole"])
def test_uncertified_sweep_cell_solves_its_whole_grid(kappa):
    # branch weights |s_j| ~ 1e3 near the double pole loosen the tail bound past sqrt(p_max):
    # the prefix is solved, then the whole grid
    atom = AtomParams()
    grid, t_a = analysis.cell_grid("gaussian", 1.0, kappa, atom.gamma)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=t_a)
    spectrum = InteractionSpectrum.lorentzian(kappa)
    full = solve(atom, spectrum, pulse, grid)
    expected = analysis._refine_peak(grid, full.p, int(np.argmax(full.p)))
    m = _prefix_n(grid, t_a, 1.0, kappa)
    prefix = solve(atom, spectrum, pulse, replace(grid, n=m))
    i = int(np.argmax(prefix.p))
    assert i < m - 1 and prefix.tail_bound >= np.sqrt(prefix.p[i])
    assert analysis._cell_peak(atom, spectrum, pulse, grid, "closed_form") == (*expected,
                                                                                m + grid.n)
    sweep = sweep_pmax(atom, "gaussian", [1.0], [kappa])  # counts the prefix and the grid
    assert (sweep.samples_solved, sweep.samples_grid, sweep.cells_full_grid) == (
        m + grid.n, grid.n, 1)
    assert (sweep.t_peak[0, 0], sweep.p_max[0, 0]) == expected


@pytest.mark.parametrize("t_d, certified", [(9.0, True), (14.0, False)],
                         ids=["prefix_past_the_delay", "prefix_past_the_grid"])
def test_cell_prefix_ends_after_the_atom_delay(t_d, certified):
    # on a grid that spans no delay, the prefix still ends t_d after the arrival and keeps
    # the delayed peak; where that end lies past the grid, the cell solves its grid once
    atom = AtomParams(t_d=t_d)
    grid, t_a = analysis.cell_grid("gaussian", 1.0, 10.0, atom.gamma)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=t_a)
    spectrum = InteractionSpectrum.lorentzian(10.0)
    full = solve(atom, spectrum, pulse, grid)
    expected = analysis._refine_peak(grid, full.p, int(np.argmax(full.p)))
    assert expected[0] > t_a + t_d
    m = _prefix_n(grid, t_a, 1.0, 10.0, t_d)
    assert (m < grid.n) == certified
    assert analysis._cell_peak(atom, spectrum, pulse, grid, "closed_form") == (
        *expected, m if certified else grid.n)


def test_sweep_cells_span_the_atom_delay():
    # a delay moves each cell's response later by t_d, and its grid spans the delay: every
    # cell keeps its peak and stops at its certified prefix
    taus, kappas = [0.3, 1.0, 3.0], [1.0, 4.5, 20.0]
    base = sweep_pmax(AtomParams(), "gaussian", taus, kappas)
    late = sweep_pmax(AtomParams(t_d=30.0), "gaussian", taus, kappas)
    assert np.abs(late.p_max - base.p_max).max() <= 1e-6
    assert np.abs(late.t_peak - base.t_peak - 30.0).max() <= 1e-6
    assert late.cells_full_grid == base.cells_full_grid == 0


def test_sweep_counts_the_samples_it_solves():
    # closed-form cells stop at their certified prefix, the double pole and every RK4 cell
    # solve the whole grid
    kappas = [1.0, 2.0, 10.0]
    cells = [analysis.cell_grid("gaussian", 1.0, k, 1.0) for k in kappas]
    prefixes = [_prefix_n(grid, t_a, 1.0, k) for (grid, t_a), k in zip(cells, kappas)]
    grids = [grid.n for grid, _ in cells]
    sweep = sweep_pmax(AtomParams(), "gaussian", [1.0], kappas)
    assert (sweep.samples_solved, sweep.samples_grid, sweep.cells_full_grid) == (
        prefixes[0] + grids[1] + prefixes[2], sum(grids), 1)
    rk4 = sweep_pmax(AtomParams(), "gaussian", [1.0], [1.0, 10.0], solver="ode_rk4")
    assert rk4.samples_solved == rk4.samples_grid and rk4.cells_full_grid == 2


@pytest.mark.parametrize("t0, dt", [(0.0, 1e-3), (0.3, 1e-3), (-7.1, 3e-3), (1e4, 1e-4)])
def test_refine_peak_on_the_grid_is_the_times_array_form(t0, dt):
    # the step (t0 + dt) - t0 and the time t0 + dt*i are those the times array holds
    y = np.exp(-((np.arange(101) - 40.3) / 9.0) ** 2)
    grid = TimeGrid(t0, dt, y.size)
    for i in (0, 39, 40, 41, 100):
        assert analysis._refine_peak(grid, y, i) == _refine_on_times(grid.times, y, i)
