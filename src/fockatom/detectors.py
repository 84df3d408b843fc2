"""Linear (harmonic-oscillator) vs nonlinear (two-level atom) detector outputs.

The linear detector's mean amplitude obeys the same memory-kernel equation
as the atomic excitation amplitude, so it reaches its solver through
`analysis.solve`, like every other run: a Fock pulse (`PulseSpec`) gives
y = |f|^2 and a coherent pulse (`CoherentPulseSpec`) y = n_bar |f|^2, which
is why the linear detector cannot tell the two apart. The Fock-pulse atom
in the Markov regime is that same trace under its own label. The
coherently driven atom instead saturates: it follows the resonant optical
Bloch equations with Rabi amplitude Omega(t) = 2 sqrt(gamma_p * n_bar) u(t),
stepped by the solvers' RK4 tableau (`dynamics._rk4_step`), and its peak
excitation for n_bar = 1 falls well below the Fock-pulse atom's. Every
trace carries the grid it was computed on, and Omega is 2 sqrt(n_bar) times
the flat (Markov) drive at the RK4 half steps (`dynamics._drive_on_grid`),
the drive the RK4 solver samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import solve
from .dynamics import _PROB_TOL, AtomParams, _affine_march, _drive_on_grid, _rk4_step
from .grids import ParameterError, TimeGrid
from .pulses import DELTA, CoherentPulseSpec, PulseSpec
from .spectra import InteractionSpectrum

LINEAR_OSCILLATOR = "linear_oscillator"
ATOM_BLOCH = "atom_bloch"
ATOM_FOCK = "atom_fock"

FOCK = "fock"
COHERENT = "coherent"


@dataclass(frozen=True)
class DetectorTrace:
    """Mean detector excitation y(t) on the grid it was computed on.

    Atom traces are probabilities (y <= 1); the linear oscillator's mean
    occupation has no unit cap and scales linearly with n_bar.
    """

    grid: TimeGrid
    y: np.ndarray
    detector: str
    statistics: str
    n_bar: float


def linear_response(atom: AtomParams, pulse: PulseSpec | CoherentPulseSpec, grid: TimeGrid,
                    spectrum: InteractionSpectrum) -> DetectorTrace:
    """Harmonic-oscillator detector: mean excitation of the resonant mode.

    The Langevin mean amplitude f solves the same kernel equation as the
    atomic C(t); vacuum noise contributes nothing at zero temperature. A
    `PulseSpec` is a Fock pulse, n_bar = 1, and must be normalizable; a
    `CoherentPulseSpec` is a coherent pulse, y = n_bar |f|^2 with f the
    response to its base. The spectrum picks the solver as in
    `analysis.solve`, a Lorentzian one taking the closed form, and must
    carry the atom's rates.
    """
    if isinstance(pulse, CoherentPulseSpec):
        base, statistics, nb = pulse.base, COHERENT, pulse.n_bar
    elif pulse.shape == DELTA:
        raise ParameterError("shape", "delta pulse is unnormalizable: no Fock-state response")
    else:
        base, statistics, nb = pulse, FOCK, 1.0
    traj = solve(atom, spectrum, base, grid)
    return DetectorTrace(grid=traj.grid, y=nb * traj.p, detector=LINEAR_OSCILLATOR,
                         statistics=statistics, n_bar=nb)


def fock_atom_response(atom: AtomParams, pulse: PulseSpec, grid: TimeGrid) -> DetectorTrace:
    """Two-level atom driven by a Fock pulse in the Markov regime: y = P(t).

    In the single-excitation sector the atom's P is the linear detector's
    Fock trace on the atom's flat spectrum, so this is that trace relabelled.
    """
    flat = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
    return replace(linear_response(atom, pulse, grid, flat), detector=ATOM_FOCK)


def bloch_trajectories(atom: AtomParams, pulse: CoherentPulseSpec,
                       grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Populations and coherences (rho_ee, rho_ge) of the driven atom.

    Resonant optical Bloch equations in the rotating frame,

        rho_ee' = -gamma rho_ee + Im(conj(Omega) rho_ge)
        rho_ge' = -(gamma/2) rho_ge - (i/2) Omega (2 rho_ee - 1)

    with Omega = 2 sqrt(gamma_p n_bar) u(tau) = 2 sqrt(n_bar) D_flat, D_flat the
    atom's flat (Markov) drive sampled by `dynamics._drive_on_grid` at the RK4
    half steps, tau_k = ((t0 - t_d) - t_a) + k dt/2 on the pulse clock. The sign of the
    coherence drive is fixed by the weak-drive limit, where rho_ee must
    approach n_bar |f|^2 of the linear response. A carrier is refused, so
    Omega is real and Re rho_ge stays exactly 0: the state is
    y = (rho_ee, Im rho_ge). Fixed-step RK4 on the grid makes each step an
    affine map y_{i+1} = M_i y_i + c_i, read off the step (`_rk4_step`)
    applied to the unit states (M_i) and, with the drive's constant term, to
    the zero state (c_i), for all steps at once on the arrays of Omega at t_i,
    t_i + dt/2 and t_i + dt. The march from y_0 = 0 is one banded triangular
    solve (`dynamics._affine_march`). A population leaving [0, 1] is refused
    as a step that does not resolve the Rabi frequency.
    """
    if pulse.base.delta0 != 0.0:
        raise ParameterError("delta0", "non-resonant carrier is unsupported for the Bloch detector")
    g = float(atom.gamma)
    flat = InteractionSpectrum.flat(gamma_p=atom.gamma_p, gamma=atom.gamma)
    drive = _drive_on_grid(atom, flat, pulse.base, grid, half_step=True)[0]
    omega = 2.0 * np.sqrt(pulse.n_bar) * drive
    o0, om, o1 = omega[:-1:2], omega[1::2], omega[2::2]
    dt = float(grid.dt)
    unit = np.eye(3)[:, :, None]
    s = unit[2]

    def rhs(y, o):  # d(rho_ee, Im rho_ge)/dt, the drive's constant term scaled by s
        a, b = y
        return -g * a + o * b, -0.5 * g * b - o * a + s * (0.5 * o)

    # states: the unit states without the constant term (columns of M), the zero state with it
    G = np.array(_rk4_step(rhs, dt, tuple(unit[:2]), o0, om, o1))
    y = _affine_march(G[:, :2], G[:, 2], (0.0, 0.0), grid.n)
    pop = y[0]
    if not np.all((pop >= -_PROB_TOL) & (pop <= 1.0 + _PROB_TOL)):
        top = pop.max()  # NaN if any is
        left = f"left [0, 1] (max {top:.6g})" if np.isfinite(top) else "is not finite"
        raise ParameterError("dt", f"Bloch population {left}: "
                                   f"dt={dt:g} does not resolve the Rabi frequency")
    coh = np.zeros(grid.n, dtype=complex)
    coh.imag = y[1]
    return pop, coh


def bloch_response(atom: AtomParams, pulse: CoherentPulseSpec, grid: TimeGrid) -> DetectorTrace:
    """Coherently driven atom: y = rho_ee from the resonant Bloch equations."""
    pop, _ = bloch_trajectories(atom, pulse, grid)
    return DetectorTrace(grid=grid, y=pop, detector=ATOM_BLOCH,
                         statistics=COHERENT, n_bar=pulse.n_bar)
