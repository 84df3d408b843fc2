"""Transduction metrics (rise/fall, jitter window) and spectral-matching sweeps.

The absorption event is time-stamped only up to the width of the excitation
probability P(t), so the metrics here quantify that width: 10-90%
threshold crossings of P relative to its peak, converted with ln 9 when
compared to the analytic e-folding bound 1/kappa + 1/gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    AtomParams,
    Trajectory,
    branch_params,
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
# The ring-down of `cell_span`'s trail, in 1/gamma, and how much of it a certified
# prefix of a sweep cell keeps; the relative margin under sqrt(p_max) the tail bound
# must clear, which covers the rounding of the recursions it bounds.
_RING_DOWN = 8.0
_RING_DOWN_KEPT = 1.0
_TAIL_MARGIN = 1e-9


@dataclass(frozen=True)
class TransductionMetrics:
    """Peak and threshold-crossing widths of one absorption trajectory.

    `window` is the measured e-folding estimate (rise + fall)/ln 9;
    `analytic_bound` is the weak-coupling limit 1/kappa + 1/gamma reported
    alongside it, not asserted equal. Crossings that never happen inside
    the grid are NaN. `ambiguous` flags a secondary peak above 0.8*p_max.
    Every field is a Python float or bool, ready for a JSON record.
    """

    p_max: float
    t_peak: float
    rise_10_90: float
    fall_90_10: float
    window: float
    analytic_bound: float
    ambiguous: bool


@dataclass(frozen=True)
class SweepResult:
    """max_t P over a (tau_f, kappa) grid, indexed [kappa, tau_f]; argmax = (tau_f*, kappa*, p*).

    Over the ok cells, `samples_solved` counts the samples the solvers ran, `samples_grid`
    those of the cell grids, and `cells_full_grid` the cells that solved their whole grid.
    """

    tau_f_grid: np.ndarray
    kappa_grid: np.ndarray
    p_max: np.ndarray
    t_peak: np.ndarray
    status: list
    argmax: tuple
    samples_solved: int
    samples_grid: int
    cells_full_grid: int


def _crossing(t, y, level, start, rising):
    """First crossing of level at or after index start, going up if rising, else down.

    The crossing is the first sample i that reaches level, its time interpolated linearly
    from sample i - 1 unless i is the first sample or y[i - 1] is already past level.
    Returns (time, i), or (nan, None) when y never reaches level or start is None (no
    earlier crossing to start from).
    """
    if start is None:
        return np.nan, None
    sign = 1.0 if rising else -1.0  # a downward crossing is an upward one of -y
    idx = np.flatnonzero(sign * y[start:] >= sign * level)
    if idx.size == 0:
        return np.nan, None
    i = start + int(idx[0])
    if i == 0 or sign * y[i - 1] >= sign * level:
        return t[i], i
    frac = (level - y[i - 1]) / (y[i] - y[i - 1])
    return t[i - 1] + frac * (t[i] - t[i - 1]), i


def _refine_peak(grid: TimeGrid, y, i):
    """Parabolic sub-sample refinement of the maximum y[i] sampled on the grid.

    Skipped at grid edges and across jumps (a neighbor below half the peak
    cannot be on the same parabola, e.g. a delta-pulse arrival). The sample
    time and step are those of `TimeGrid.times`: t0 + dt*i, and
    (t0 + dt) - t0 between its first two samples.
    """
    t0, dt = grid.t0, grid.dt
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
    t = traj.grid.times
    P = traj.p
    if P.max() <= 0.0:
        raise ValueError("no absorption event: trajectory is identically zero")
    i_max = int(np.argmax(P))
    t_peak, p_max = _refine_peak(traj.grid, P, i_max)
    t10, i10 = _crossing(t, P, 0.1 * p_max, 0, rising=True)
    t90, _ = _crossing(t, P, 0.9 * p_max, i10, rising=True)
    f90, j90 = _crossing(t, P, 0.9 * p_max, i_max, rising=False)
    f10, _ = _crossing(t, P, 0.1 * p_max, j90, rising=False)
    rise, fall = t90 - t10, f10 - f90
    peaks = _local_maxima(P, 0.8 * p_max)
    ambiguous = bool(np.any(peaks != i_max))
    return TransductionMetrics(
        p_max=float(p_max),
        t_peak=float(t_peak),
        rise_10_90=float(rise),
        fall_90_10=float(fall),
        window=float((rise + fall) / _LN9),
        analytic_bound=float(1.0 / kappa + 1.0 / gamma),
        ambiguous=ambiguous,
    )


_SOLVERS = {
    "closed_form": solve_closed_form_lorentzian,
    "ode_rk4": solve_ode_reduction,
    "volterra": solve_volterra,
    "markov": solve_markov,  # the flat spectrum's solver, not a name to select
}
SOLVERS = tuple(name for name in _SOLVERS if name != "markov")


def solve(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec | None,
          grid: TimeGrid, solver: str = "closed_form") -> Trajectory:
    """C(t) for any spectrum: the one place a spectrum and solver name pick a solver.

    A flat spectrum has no memory and goes to `solve_markov`, a tabulated
    one has only its sampled kernel and goes to `solve_volterra`, and a
    Lorentzian one goes to the named solver, one of SOLVERS. The spectrum's
    decay rates must be the atom's, which all but `solve_volterra` read.
    """
    if solver not in SOLVERS:
        raise ParameterError("solver", f"unknown solver tag {solver!r}")
    check_rates_agree(atom, spectrum)
    name = {FLAT: "markov", TABULATED: "volterra"}.get(spectrum.kind, solver)
    args = {"markov": (), "volterra": (spectrum,)}.get(name, (spectrum.kappa,))
    return _SOLVERS[name](atom, *args, pulse, grid)


def cell_span(shape: str, tau_f: float, kappa: float, gamma: float) -> tuple[float, float]:
    """Lead (grid start to arrival t_a) and trail (t_a to grid end) of a pulse: its support
    plus ring-down, 1/gamma and 12/gamma for a delta, whose tau_f goes unchecked. kappa
    enters only as min(kappa, 2 gamma), so a flat spectrum passes kappa = inf."""
    if kappa != np.inf:
        check_range("kappa", kappa, MIN_SCALE)
    if shape == DELTA:
        return 1.0 / gamma, 12.0 / gamma
    check_range("tau_f", tau_f, MIN_SCALE)
    trail_decay = _RING_DOWN / gamma + 4.0 / min(kappa, 2.0 * gamma)
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


def _cell_peak(atom: AtomParams, spectrum: InteractionSpectrum, pulse: PulseSpec,
               grid: TimeGrid, solver: str) -> tuple[float, float, int]:
    """(t_peak, p_max, samples solved) of one sweep cell on its grid.

    The closed form away from the double pole first solves the prefix that ends
    _RING_DOWN_KEPT after the pulse and cavity terms of `cell_span`. It keeps the
    prefix peak when that peak is below the prefix's last sample, the prefix passes
    the P <= 1 guard, and the trajectory's `tail_bound` puts every later sample of
    the whole grid below sqrt(p_max) (1 - _TAIL_MARGIN). The drive, the recursions
    and P are causal and elementwise, so the prefix is the whole grid's first
    samples bit for bit, and the peak is the whole grid's. Otherwise, and on the
    RK4 and Volterra routes, the cell solves its whole grid.
    """
    solved = 0
    if solver == "closed_form" and not branch_params(atom.gamma, spectrum.kappa).degenerate:
        solved = grid.n - int((_RING_DOWN - _RING_DOWN_KEPT) / (atom.gamma * grid.dt))
        try:
            traj = solve(atom, spectrum, pulse, replace(grid, n=solved))
        except ValueError:  # the guard: the whole grid gives the cell its status
            pass
        else:
            i = int(np.argmax(traj.p))
            if i < solved - 1 and traj.tail_bound < np.sqrt(traj.p[i]) * (1.0 - _TAIL_MARGIN):
                return (*_refine_peak(traj.grid, traj.p, i), solved)
    traj = solve(atom, spectrum, pulse, grid, solver)
    return (*_refine_peak(grid, traj.p, int(np.argmax(traj.p))), solved + grid.n)


def sweep_pmax(atom: AtomParams, shape: str, tau_f_grid, kappa_grid,
               solver: str = "closed_form") -> SweepResult:
    """max_t P over the (tau_f, kappa) grid for one normalizable pulse shape.

    Cells are independent; a failing cell is recorded as NaN with its error
    message in `status` and the sweep continues. Each cell takes the
    `cell_grid` step, capped at `max_ode_step` for the RK4 solver; a cell
    grid over the sample budget fails its cell. A closed-form cell stops at a
    certified prefix of its grid, before the ring-down (`_cell_peak`); RK4,
    Volterra and the double pole kappa = 2 gamma solve the whole grid. The
    argmax tie-break is toward smaller tau_f, then smaller kappa.
    """
    tau_f_grid = np.asarray(tau_f_grid, dtype=float)
    kappa_grid = np.asarray(kappa_grid, dtype=float)
    if shape not in NORMALIZABLE_SHAPES:
        raise ParameterError("shape", f"a sweep needs a normalizable pulse, got {shape!r}")
    if tau_f_grid.size == 0 or kappa_grid.size == 0:
        raise ParameterError("sweep", "sweep grids must be nonempty")
    if not (np.all(np.diff(tau_f_grid) > 0) and np.all(np.diff(kappa_grid) > 0)):
        raise ParameterError("sweep", "sweep grids must be sorted ascending")
    if solver not in SOLVERS:
        raise ParameterError("solver", f"unknown solver tag {solver!r}")
    nk, nt = kappa_grid.size, tau_f_grid.size
    p_max = np.full((nk, nt), np.nan)
    t_peak = np.full((nk, nt), np.nan)
    status = [["ok"] * nt for _ in range(nk)]
    solved = samples = full = 0
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
                t_peak[i, j], p_max[i, j], n = _cell_peak(atom, spectrum, pulse, grid, solver)
                solved, samples, full = solved + n, samples + grid.n, full + (n >= grid.n)
            except (ValueError, MemoryError) as exc:
                status[i][j] = f"error: {exc}"
    argmax = _argmax_with_tiebreak(tau_f_grid, kappa_grid, p_max)
    return SweepResult(tau_f_grid=tau_f_grid, kappa_grid=kappa_grid,
                       p_max=p_max, t_peak=t_peak, status=status, argmax=argmax,
                       samples_solved=solved, samples_grid=samples, cells_full_grid=full)


def _argmax_with_tiebreak(tau_f_grid, kappa_grid, p_max):
    if np.all(np.isnan(p_max)):
        raise ParameterError("sweep", "sweep produced no successful cells")
    # the first maximum in row-major [tau_f, kappa] order: both axes ascend, so ties are
    # broken toward smaller tau_f, then smaller kappa
    j, i = np.unravel_index(np.nanargmax(p_max.T), p_max.T.shape)
    return float(tau_f_grid[j]), float(kappa_grid[i]), float(p_max[i, j])
