"""Linear (harmonic-oscillator) vs nonlinear (two-level atom) detector outputs.

The linear detector's mean amplitude obeys the same memory-kernel equation
as the atomic excitation amplitude, so those solvers are reused verbatim:
a Fock pulse gives y = |f|^2 and a coherent pulse y = n_bar |f|^2, which is
why the linear detector cannot tell the two apart. The coherently driven
atom instead saturates: it follows the resonant optical Bloch equations with
Rabi amplitude Omega(t) = 2 sqrt(gamma_p * n_bar) u(t), and its peak
excitation for n_bar = 1 falls well below the Fock-pulse atom's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import solve
from .dynamics import _PROB_TOL, AtomParams, _affine_march, solve_markov
from .grids import ParameterError, TimeGrid
from .pulses import DELTA, CoherentPulseSpec, PulseSpec, envelope
from .spectra import InteractionSpectrum

LINEAR_OSCILLATOR = "linear_oscillator"
ATOM_BLOCH = "atom_bloch"
ATOM_FOCK = "atom_fock"

FOCK = "fock"
COHERENT = "coherent"


@dataclass(frozen=True)
class DetectorTrace:
    """Mean detector excitation y(t) on a uniform grid.

    Atom traces are probabilities (y <= 1); the linear oscillator's mean
    occupation has no unit cap and scales linearly with n_bar.
    """

    t0: float
    dt: float
    y: np.ndarray
    detector: str
    statistics: str
    n_bar: float

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.y))


def linear_response(atom: AtomParams, pulse: PulseSpec, statistics: str,
                    grid: TimeGrid, spectrum: InteractionSpectrum,
                    n_bar: float = 1.0) -> DetectorTrace:
    """Harmonic-oscillator detector: mean excitation of the resonant mode.

    The Langevin mean amplitude f solves the same kernel equation as the
    atomic C(t); vacuum noise contributes nothing at zero temperature.
    statistics is "fock" (unit-norm pulse required) or "coherent" (scales
    with n_bar). The spectrum picks the solver as in `analysis.solve`, a
    Lorentzian one taking the closed form, and must carry the atom's rates.
    """
    if statistics not in (FOCK, COHERENT):
        raise ValueError(f"unknown statistics {statistics!r}")
    if pulse.shape == DELTA and statistics == FOCK:
        raise ParameterError("shape", "delta pulse is unnormalizable: no Fock-state response")
    traj = solve(atom, spectrum, pulse, grid)
    nb = 1.0 if statistics == FOCK else n_bar
    return DetectorTrace(t0=grid.t0, dt=grid.dt, y=nb * traj.p, detector=LINEAR_OSCILLATOR,
                         statistics=statistics, n_bar=nb)


def fock_atom_response(atom: AtomParams, pulse: PulseSpec, grid: TimeGrid) -> DetectorTrace:
    """Two-level atom driven by a Fock pulse in the Markov regime: y = P(t)."""
    traj = solve_markov(atom, pulse, grid)
    return DetectorTrace(t0=grid.t0, dt=grid.dt, y=traj.p, detector=ATOM_FOCK,
                         statistics=FOCK, n_bar=1.0)


def bloch_trajectories(atom: AtomParams, pulse: CoherentPulseSpec,
                       grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Populations and coherences (rho_ee, rho_ge) of the driven atom.

    Resonant optical Bloch equations in the rotating frame,

        rho_ee' = -gamma rho_ee + Im(conj(Omega) rho_ge)
        rho_ge' = -(gamma/2) rho_ge - (i/2) Omega (2 rho_ee - 1)

    with Omega(t) = 2 sqrt(gamma_p n_bar) u(t - t_a - t_d). The sign of the
    coherence drive is fixed by the weak-drive limit, where rho_ee must
    approach n_bar |f|^2 of the linear response. A carrier is refused, so
    Omega is real and Re rho_ge stays exactly 0: the state is
    y = (rho_ee, Im rho_ge). Fixed-step RK4 on the grid makes each step an
    affine map y_{i+1} = M_i y_i + c_i, read off the step itself applied to
    the unit states (M_i) and, with the drive's constant term, to the zero
    state (c_i), for all steps at once on the arrays of Omega at t_i,
    t_i + dt/2 and t_i + dt. The march from y_0 = 0 is one banded triangular
    solve (`dynamics._affine_march`). A population leaving [0, 1] is refused
    as a step that does not resolve the Rabi frequency.
    """
    if pulse.base.delta0 != 0.0:
        raise ParameterError("delta0", "non-resonant carrier is unsupported for the Bloch detector")
    g = float(atom.gamma)
    amp = 2.0 * np.sqrt(atom.gamma_p * pulse.n_bar)
    omega = amp * np.asarray(envelope(pulse.base, grid.half_step_times() - atom.t_d)).real
    o0, om, o1 = omega[:-1:2], omega[1::2], omega[2::2]
    dt = float(grid.dt)

    def f(a, b, o, s):  # d(rho_ee, Im rho_ge)/dt, the drive's constant term scaled by s
        return -g * a + o * b, -0.5 * g * b - o * a + s * (0.5 * o)

    def step(a, b, s):
        k1 = f(a, b, o0, s)
        k2 = f(a + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1], om, s)
        k3 = f(a + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1], om, s)
        k4 = f(a + dt * k3[0], b + dt * k3[1], o1, s)
        return (a + dt / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]),
                b + dt / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]))

    # states: the unit states without the constant term (columns of M), the zero state with it
    G = np.array(step(*np.eye(3)[:, :, None]))
    y = _affine_march(G[:, :2], G[:, 2], (0.0, 0.0), grid.n)
    pop = y[0]
    if not np.all((pop >= -_PROB_TOL) & (pop <= 1.0 + _PROB_TOL)):
        raise ParameterError("dt", f"Bloch population left [0, 1] (max {pop.max():.6g}): "
                                   f"dt={dt:g} does not resolve the Rabi frequency")
    coh = np.zeros(grid.n, dtype=complex)
    coh.imag = y[1]
    return pop, coh


def bloch_response(atom: AtomParams, pulse: CoherentPulseSpec, grid: TimeGrid) -> DetectorTrace:
    """Coherently driven atom: y = rho_ee from the resonant Bloch equations."""
    pop, _ = bloch_trajectories(atom, pulse, grid)
    return DetectorTrace(t0=grid.t0, dt=grid.dt, y=pop, detector=ATOM_BLOCH,
                         statistics=COHERENT, n_bar=pulse.n_bar)
