"""Transduction metrics (rise/fall, jitter window) and spectral-matching sweeps.

The absorption event is time-stamped only up to the width of the excitation
probability density, so the metrics here quantify that width: 10-90%
threshold crossings of P relative to its peak, converted with ln 9 when
compared to the analytic e-folding bound 1/kappa + 1/gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    AtomParams,
    Trajectory,
    check_rates_agree,
    max_ode_step,
    solve_closed_form_lorentzian,
    solve_markov,
    solve_ode_reduction,
    solve_volterra,
)
from .grids import MIN_SCALE, ParameterError, TimeGrid, check_range
from .pulses import DECAYING_EXP, DELTA, GAUSSIAN, NORMALIZABLE_SHAPES, RISING_EXP, PulseSpec
from .spectra import FLAT, TABULATED, InteractionSpectrum

_LN9 = float(np.log(9.0))


@dataclass(frozen=True)
class TransductionMetrics:
    """Peak and threshold-crossing widths of one absorption trajectory.

    `window` is the measured e-folding estimate (rise + fall)/ln 9;
    `analytic_bound` is the weak-coupling limit 1/kappa + 1/gamma reported
    alongside it, not asserted equal. Crossings that never happen inside
    the grid are NaN. `ambiguous` flags a secondary peak above 0.8*p_max.
    """

    p_max: float
    t_peak: float
    rise_10_90: float
    fall_90_10: float
    window: float
    analytic_bound: float
    density: np.ndarray
    ambiguous: bool


@dataclass(frozen=True)
class SweepResult:
    """max_t P over a (tau_f, kappa) grid, indexed [kappa, tau_f]; argmax = (tau_f*, kappa*, p*)."""

    tau_f_grid: np.ndarray
    kappa_grid: np.ndarray
    p_max: np.ndarray
    t_peak: np.ndarray
    status: list
    argmax: tuple


def probability_density(traj: Trajectory) -> np.ndarray:
    """Excitation probability density: P normalized to unit time integral."""
    w = np.full(len(traj.p), traj.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    total = float(np.sum(w * traj.p))
    if total <= 0.0:
        raise ValueError("no absorption event: trajectory is identically zero")
    return traj.p / total


def _cross_up(t, y, level, start=0):
    """First upward crossing of `level` at or after index start, interpolated."""
    idx = np.nonzero(y[start:] >= level)[0]
    if idx.size == 0:
        return np.nan, None
    i = start + int(idx[0])
    if i == 0 or y[i - 1] >= level:
        return t[i], i
    frac = (level - y[i - 1]) / (y[i] - y[i - 1])
    return t[i - 1] + frac * (t[i] - t[i - 1]), i


def _cross_down(t, y, level, start):
    idx = np.nonzero(y[start:] <= level)[0]
    if idx.size == 0:
        return np.nan, None
    i = start + int(idx[0])
    if i == start or y[i - 1] <= level:
        return t[i], i
    frac = (y[i - 1] - level) / (y[i - 1] - y[i])
    return t[i - 1] + frac * (t[i] - t[i - 1]), i


def _refine_peak(t0, dt, y, i):
    """Parabolic sub-sample refinement of the maximum y[i] sampled at t0 + i*dt.

    Skipped at grid edges and across jumps (a neighbor below half the peak
    cannot be on the same parabola, e.g. a delta-pulse arrival). The sample
    time and step are those of `Trajectory.times`: t0 + dt*i, and
    (t0 + dt) - t0 between its first two samples.
    """
    t = t0 + dt * i
    if i == 0 or i == len(y) - 1:
        return t, y[i]
    if min(y[i - 1], y[i + 1]) < 0.5 * y[i]:
        return t, y[i]
    denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
    if denom >= 0.0:
        return t, y[i]
    shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
    return t + shift * ((t0 + dt) - t0), y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift


def _local_maxima(y: np.ndarray, height: float) -> np.ndarray:
    """Indices of the local maxima of y that reach height, in ascending order.

    A maximum is a rise followed, after any run of equal samples, by a fall;
    a flat top counts once, at (left + right) // 2 of its run. The first and
    last samples are never maxima. These are the peaks of
    scipy.signal.find_peaks(y, height=height).
    """
    up = y[1:] > y[:-1]
    down = y[1:] < y[:-1]
    steps = np.flatnonzero(~(y[1:] == y[:-1]))  # every change, NaN steps included
    top = np.flatnonzero(up[steps[:-1]] & down[steps[1:]])
    peaks = (steps[top] + 1 + steps[top + 1]) // 2
    return peaks[y[peaks] >= height]


def transduction_metrics(traj: Trajectory, kappa: float, gamma: float) -> TransductionMetrics:
    """Rise/fall widths and jitter-window estimate of one trajectory.

    Thresholds are 10% and 90% of the (parabolically refined) peak; the
    rise interval is the first upward 10->90 crossing before the peak, the
    fall the first 90->10 after it.
    """
    t = traj.times
    P = traj.p
    if P.max() <= 0.0:
        raise ValueError("no absorption event: trajectory is identically zero")
    i_max = int(np.argmax(P))
    t_peak, p_max = _refine_peak(traj.t0, traj.dt, P, i_max)
    t10, i10 = _cross_up(t, P, 0.1 * p_max)
    t90, _ = _cross_up(t, P, 0.9 * p_max, start=i10 if i10 is not None else 0)
    rise = t90 - t10
    f90, j90 = _cross_down(t, P, 0.9 * p_max, start=i_max)
    if j90 is not None:
        f10, _ = _cross_down(t, P, 0.1 * p_max, start=j90)
    else:
        f10 = np.nan
    fall = f10 - f90
    peaks = _local_maxima(P, 0.8 * p_max)
    ambiguous = bool(np.any(peaks != i_max))
    return TransductionMetrics(
        p_max=float(p_max),
        t_peak=float(t_peak),
        rise_10_90=float(rise),
        fall_90_10=float(fall),
        window=float((rise + fall) / _LN9),
        analytic_bound=1.0 / kappa + 1.0 / gamma,
        density=probability_density(traj),
        ambiguous=ambiguous,
    )


_SOLVERS = {
    "closed_form": solve_closed_form_lorentzian,
    "ode_rk4": solve_ode_reduction,
    "volterra": solve_volterra,
    "markov": solve_markov,
}
SOLVERS = tuple(_SOLVERS)


def solve(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec | None,
          grid: TimeGrid, solver: str = "closed_form") -> Trajectory:
    """C(t) for any spectrum: the one place a spectrum and solver name pick a solver.

    A flat spectrum has no memory and goes to `solve_markov`, a tabulated
    one has only its sampled kernel and goes to `solve_volterra`, and a
    Lorentzian one goes to the named solver. The spectrum's decay rates
    must be the atom's, which all but `solve_volterra` read.
    """
    if solver not in _SOLVERS:
        raise ParameterError("solver", f"unknown solver tag {solver!r}")
    check_rates_agree(atom, spectrum)
    name = {FLAT: "markov", TABULATED: "volterra"}.get(spectrum.kind, solver)
    args = {"markov": (), "volterra": (spectrum,)}.get(name, (spectrum.kappa,))
    return _SOLVERS[name](atom, *args, pulse, grid)


def cell_span(shape: str, tau_f: float, kappa: float, gamma: float) -> tuple[float, float]:
    """Lead (grid start to arrival t_a) and trail (t_a to grid end) of a pulse: its support
    plus ring-down, 1/gamma and 12/gamma for a delta, whose tau_f goes unchecked."""
    check_range("kappa", kappa, MIN_SCALE)
    if shape == DELTA:
        return 1.0 / gamma, 12.0 / gamma
    check_range("tau_f", tau_f, MIN_SCALE)
    trail_decay = 8.0 / gamma + 4.0 / min(kappa, 2.0 * gamma)
    if shape == GAUSSIAN:
        return 7.0 * tau_f, 6.0 * tau_f + trail_decay
    if shape == DECAYING_EXP:
        return 1.0 / gamma, 14.0 * tau_f + trail_decay
    if shape == RISING_EXP:
        return 16.0 * tau_f, trail_decay
    raise ParameterError("shape", f"unknown pulse shape {shape!r}")


def cell_grid(shape: str, tau_f: float, kappa: float, gamma: float,
              dt: float | None = None) -> tuple[TimeGrid, float]:
    """Per-cell time grid over the `cell_span`, and the pulse arrival t_a = lead."""
    lead, trail = cell_span(shape, tau_f, kappa, gamma)
    if dt is None:
        dt = min(4e-3 / gamma, tau_f / 10.0)
    return TimeGrid.from_span(0.0, lead + trail, dt), lead


def sweep_pmax(atom: AtomParams, shape: str, tau_f_grid, kappa_grid,
               solver: str = "closed_form") -> SweepResult:
    """max_t P over the (tau_f, kappa) grid for one normalizable pulse shape.

    Cells are independent; a failing cell is recorded as NaN with its error
    message in `status` and the sweep continues. Each cell takes the
    `cell_grid` step, capped at `max_ode_step` for the RK4 solver; a cell
    grid over the sample budget fails its cell. The argmax tie-break is
    toward smaller tau_f, then smaller kappa.
    """
    tau_f_grid = np.asarray(tau_f_grid, dtype=float)
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    if shape not in NORMALIZABLE_SHAPES:
        raise ParameterError("shape", f"a sweep needs a normalizable pulse, got {shape!r}")
    if tau_f_grid.size == 0 or kappa_grid.size == 0:
        raise ParameterError("sweep", "sweep grids must be nonempty")
    if not (np.all(np.diff(tau_f_grid) > 0) and np.all(np.diff(kappa_grid) > 0)):
        raise ParameterError("sweep", "sweep grids must be sorted ascending")
    if solver not in _SOLVERS:
        raise ParameterError("solver", f"unknown solver tag {solver!r}")
    nk, nt = kappa_grid.size, tau_f_grid.size
    p_max = np.full((nk, nt), np.nan)
    t_peak = np.full((nk, nt), np.nan)
    status = [["ok"] * nt for _ in range(nk)]
    for i, kappa in enumerate(kappa_grid):
        for j, tau_f in enumerate(tau_f_grid):
            try:
                grid, t_a = cell_grid(shape, tau_f, kappa, atom.gamma)
                if solver == "ode_rk4":
                    # the RK4 step must also resolve the stiffest rate
                    stiff_dt = min(grid.dt, max_ode_step(atom.gamma, kappa))
                    grid, t_a = cell_grid(shape, tau_f, kappa, atom.gamma, stiff_dt)
                pulse = PulseSpec(shape=shape, tau_f=tau_f, t_a=t_a)
                spectrum = InteractionSpectrum.lorentzian(kappa, gamma_p=atom.gamma_p,
                                                          gamma=atom.gamma)
                traj = solve(atom, spectrum, pulse, grid, solver)
                tp, pm = _refine_peak(traj.t0, traj.dt, traj.p, int(np.argmax(traj.p)))
                p_max[i, j] = pm
                t_peak[i, j] = tp
            except (ValueError, MemoryError) as exc:
                status[i][j] = f"error: {exc}"
    argmax = _argmax_with_tiebreak(tau_f_grid, kappa_grid, p_max)
    return SweepResult(tau_f_grid=tau_f_grid, kappa_grid=kappa_grid,
                       p_max=p_max, t_peak=t_peak, status=status, argmax=argmax)


def _argmax_with_tiebreak(tau_f_grid, kappa_grid, p_max):
    if np.all(np.isnan(p_max)):
        raise ParameterError("sweep", "sweep produced no successful cells")
    best = np.nanmax(p_max)
    # ties broken toward smaller tau_f, then smaller kappa
    cand = np.argwhere(np.isclose(p_max, best, rtol=0.0, atol=0.0))
    order = sorted((tau_f_grid[j], kappa_grid[i]) for i, j in cand)
    tf_star, kap_star = order[0]
    return float(tf_star), float(kap_star), float(best)

