"""Linear vs nonlinear detector contrasts for Fock and coherent pulses."""

import numpy as np
import pytest

from fockatom import (
    AtomParams,
    CoherentPulseSpec,
    InteractionSpectrum,
    PulseSpec,
    TimeGrid,
    bloch_response,
    envelope,
    fock_atom_response,
    linear_response,
)
from fockatom.detectors import bloch_trajectories
from fockatom.grids import ParameterError


def _setup(tau_f=1.0, dt=1e-3):
    atom = AtomParams()
    grid = TimeGrid.from_span(0.0, 16.0, dt)
    pulse = PulseSpec("gaussian", tau_f=tau_f, t_a=7.0)
    return atom, grid, pulse


def test_linear_detector_cannot_distinguish_fock_from_coherent():
    atom, grid, pulse = _setup()
    flat = InteractionSpectrum.flat()
    fock = linear_response(atom, pulse, grid, flat)
    coh = linear_response(atom, CoherentPulseSpec(pulse, n_bar=1.0), grid, flat)
    assert np.abs(fock.y - coh.y).max() < 1e-12


def test_linear_vacuum_input_gives_nothing():
    atom, grid, pulse = _setup()
    flat = InteractionSpectrum.flat()
    trace = linear_response(atom, CoherentPulseSpec(pulse, n_bar=0.0), grid, flat)
    assert np.abs(trace.y).max() == 0.0


def test_linear_fock_peak_equals_markov_atom_peak():
    atom, grid, pulse = _setup()
    flat = InteractionSpectrum.flat()
    fock = linear_response(atom, pulse, grid, flat)
    atom_trace = fock_atom_response(atom, pulse, grid)
    assert np.array_equal(fock.y, atom_trace.y)
    # tau_f = 1/gamma Markov peak (the tau_f-optimized value is ~0.801)
    assert fock.y.max() == pytest.approx(0.770249, abs=1e-4)


def test_linear_scaling_in_n_bar_exact():
    atom, grid, pulse = _setup()
    flat = InteractionSpectrum.flat()
    y1 = linear_response(atom, CoherentPulseSpec(pulse, n_bar=0.25), grid, flat).y
    y2 = linear_response(atom, CoherentPulseSpec(pulse, n_bar=0.5), grid, flat).y
    assert np.array_equal(2.0 * y1, y2)


@pytest.mark.parametrize("n_bar", [-5.0, np.nan, np.inf])
def test_linear_coherent_refuses_a_mean_photon_number_out_of_range(n_bar):
    atom, grid, pulse = _setup()
    with pytest.raises(ParameterError) as err:
        linear_response(atom, CoherentPulseSpec(pulse, n_bar=n_bar), grid,
                        InteractionSpectrum.flat())
    assert err.value.field == "n_bar"


def test_linear_rejects_delta_fock():
    atom, grid, _ = _setup()
    with pytest.raises(ValueError, match="unnormalizable"):
        linear_response(atom, PulseSpec("delta"), grid, InteractionSpectrum.flat())


def test_linear_nonmarkov_matches_markov_at_large_kappa():
    atom, grid, pulse = _setup()
    lor = InteractionSpectrum.lorentzian(1000.0)
    flat = InteractionSpectrum.flat()
    a = linear_response(atom, pulse, grid, lor)
    b = linear_response(atom, pulse, grid, flat)
    assert np.abs(a.y - b.y).max() < 1e-2


def test_bloch_undriven_atom_stays_dark():
    atom, grid, pulse = _setup()
    trace = bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=0.0), grid)
    assert np.abs(trace.y).max() == 0.0


@pytest.mark.parametrize("gamma_p, t_d, t0", [(1.0, 0.0, 0.0), (0.7, 0.13, 3.25)])
def test_bloch_weak_drive_matches_linear_response(gamma_p, t_d, t0):
    # the shared flat drive carries the atom's gamma_p and delay on a grid from any t0
    atom = AtomParams(gamma_p=gamma_p, t_d=t_d)
    grid = TimeGrid.from_span(t0, t0 + 16.0, 1e-3)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=t0 + 7.0)
    n_bar = 1e-4
    bloch = bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=n_bar), grid)
    flat = InteractionSpectrum.flat(gamma_p=gamma_p)
    linear = linear_response(atom, pulse, grid, flat)
    rel = np.abs(bloch.y / n_bar - linear.y).max() / linear.y.max()
    assert rel < 0.01


def test_bloch_single_photon_coherent_is_much_lower():
    atom, grid, pulse = _setup()
    bloch = bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=1.0), grid)
    fock = fock_atom_response(atom, pulse, grid)
    assert fock.y.max() - bloch.y.max() > 0.1


def test_bloch_positivity_and_coherence_bound():
    atom, grid, pulse = _setup()
    pop, coh = bloch_trajectories(atom, CoherentPulseSpec(base=pulse, n_bar=1.0), grid)
    assert pop.min() >= -1e-12
    assert pop.max() <= 1.0 + 1e-12
    assert np.all(np.abs(coh) ** 2 <= pop * (1.0 - pop) + 1e-9)


def bloch_step_loop(atom, pulse, grid):
    """Oracle: the Bloch RK4 march on numpy scalars, its right-hand side rebuilt each step."""
    g = atom.gamma
    amp = 2.0 * np.sqrt(atom.gamma_p * pulse.n_bar)
    th = grid.t0 + 0.5 * grid.dt * np.arange(2 * grid.n - 1)  # the samples and midpoints
    omega = amp * np.asarray(envelope(pulse.base, th - atom.t_d))
    dt = grid.dt
    ree = 0.0
    rge = 0.0 + 0j
    pop = np.zeros(grid.n)
    coh = np.zeros(grid.n, dtype=complex)
    for i in range(grid.n - 1):
        o0 = omega[2 * i]
        om = omega[2 * i + 1]
        o1 = omega[2 * i + 2]

        def f(re_, rg_, o):
            dre = -g * re_ + (np.conj(o) * rg_).imag
            drg = -0.5 * g * rg_ - 0.5j * o * (2.0 * re_ - 1.0)
            return dre, drg

        k1 = f(ree, rge, o0)
        k2 = f(ree + 0.5 * dt * k1[0], rge + 0.5 * dt * k1[1], om)
        k3 = f(ree + 0.5 * dt * k2[0], rge + 0.5 * dt * k2[1], om)
        k4 = f(ree + dt * k3[0], rge + dt * k3[1], o1)
        ree += dt / 6.0 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        rge += dt / 6.0 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        pop[i + 1] = ree
        coh[i + 1] = rge
    return pop, coh


@pytest.mark.parametrize("n_bar", [0.1, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("shape", ["gaussian", "decaying_exp", "rising_exp"])
def test_bloch_matches_step_loop_oracle(shape, n_bar):
    # the same RK4 steps, marched as affine maps by one banded solve: rounding apart (~4e-15)
    atom = AtomParams(gamma_p=0.7, t_d=0.1)
    grid = TimeGrid.from_span(0.0, 6.0, 2e-3)
    pulse = CoherentPulseSpec(base=PulseSpec(shape, tau_f=0.5, t_a=2.0), n_bar=n_bar)
    pop, coh = bloch_trajectories(atom, pulse, grid)
    want_pop, want_coh = bloch_step_loop(atom, pulse, grid)
    assert pop.dtype == want_pop.dtype and coh.dtype == want_coh.dtype
    assert np.abs(pop - want_pop).max() <= 1e-13
    assert np.abs(coh - want_coh).max() <= 1e-13


def test_bloch_rejects_detuned_carrier():
    atom, grid, _ = _setup()
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=7.0, delta0=0.5)
    with pytest.raises(ValueError, match="non-resonant"):
        bloch_response(atom, CoherentPulseSpec(base=pulse, n_bar=1.0), grid)


def test_trace_metadata():
    atom, grid, pulse = _setup()
    trace = linear_response(atom, CoherentPulseSpec(pulse, n_bar=2.0), grid,
                            InteractionSpectrum.flat())
    assert trace.detector == "linear_oscillator"
    assert trace.statistics == "coherent"
    assert trace.n_bar == 2.0
    assert trace.grid == grid
    assert len(trace.grid.times) == len(trace.y)
