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
from .dynamics import _PROB_TOL, AtomParams, solve_markov
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
    approach n_bar |f|^2 of the linear response. Fixed-step RK4 on the grid;
    a population leaving [0, 1] is refused as a step that does not resolve
    the Rabi frequency.
    """
    if pulse.base.delta0 != 0.0:
        raise ParameterError("delta0", "non-resonant carrier is unsupported for the Bloch detector")
    g = float(atom.gamma)
    amp = 2.0 * np.sqrt(atom.gamma_p * pulse.n_bar)
    th = grid.half_step_times()
    omega = (amp * np.asarray(envelope(pulse.base, th - atom.t_d))).tolist()
    dt = float(grid.dt)

    def f(re_, rg_, o):
        dre = -g * re_ + (o.conjugate() * rg_).imag
        drg = -0.5 * g * rg_ - 0.5j * o * (2.0 * re_ - 1.0)
        return dre, drg

    # stepped on Python scalars: per-step numpy scalar arithmetic costs more
    ree = 0.0
    rge = 0.0 + 0j
    pop = [ree]
    coh = [rge]
    for i in range(grid.n - 1):
        o0, om, o1 = omega[2 * i], omega[2 * i + 1], omega[2 * i + 2]
        k1 = f(ree, rge, o0)
        k2 = f(ree + 0.5 * dt * k1[0], rge + 0.5 * dt * k1[1], om)
        k3 = f(ree + 0.5 * dt * k2[0], rge + 0.5 * dt * k2[1], om)
        k4 = f(ree + dt * k3[0], rge + dt * k3[1], o1)
        ree += dt / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        rge += dt / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        pop.append(ree)
        coh.append(rge)
    pop = np.array(pop)
    if not np.all((pop >= -_PROB_TOL) & (pop <= 1.0 + _PROB_TOL)):
        raise ParameterError("dt", f"Bloch population left [0, 1] (max {pop.max():.6g}): "
                                   f"dt={dt:g} does not resolve the Rabi frequency")
    return pop, np.array(coh, dtype=complex)


def bloch_response(atom: AtomParams, pulse: CoherentPulseSpec, grid: TimeGrid) -> DetectorTrace:
    """Coherently driven atom: y = rho_ee from the resonant Bloch equations."""
    pop, _ = bloch_trajectories(atom, pulse, grid)
    return DetectorTrace(t0=grid.t0, dt=grid.dt, y=pop, detector=ATOM_BLOCH,
                         statistics=COHERENT, n_bar=pulse.n_bar)
