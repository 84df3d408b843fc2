"""Pulse family: closed-form spot values, normalization, Parseval, scaling."""

import numpy as np
import pytest
from scipy.integrate import quad

from fockatom import CoherentPulseSpec, PulseSpec, envelope, spectral_amplitude
from fockatom.pulses import NORMALIZABLE_SHAPES, envelope_tail


def _spectral_norm(spec, half_width, n, n_bar=1.0):
    """Trapezoid integral of n_bar |xi|^2 on n points of [-half_width, half_width]."""
    d = np.linspace(-half_width, half_width, n)
    return np.trapezoid(n_bar * np.abs(spectral_amplitude(spec, d)) ** 2, d)


def test_gaussian_spectral_peak_value():
    # (2/pi)^(1/4) at zero detuning
    spec = PulseSpec("gaussian", tau_f=1.0)
    assert spectral_amplitude(spec, 0.0) == pytest.approx((2.0 / np.pi) ** 0.25, abs=1e-12)
    assert abs(spectral_amplitude(spec, 0.0) - 0.89324) < 1e-5


def test_decaying_exp_spectral_peak_value():
    spec = PulseSpec("decaying_exp", tau_f=1.0)
    assert spectral_amplitude(spec, 0.0) == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)
    assert abs(spectral_amplitude(spec, 0.0) - 0.79788) < 1e-5


def test_delta_spectrum_is_constant():
    spec = PulseSpec("delta", xi0=0.1)
    for d in (-300.0, 0.0, 17.3):
        assert spectral_amplitude(spec, d) == 0.1


def test_carrier_detuning_shifts_spectrum():
    spec = PulseSpec("gaussian", tau_f=2.0, delta0=3.0)
    ref = PulseSpec("gaussian", tau_f=2.0)
    assert spectral_amplitude(spec, 3.5) == pytest.approx(spectral_amplitude(ref, 0.5))


def test_gaussian_envelope_peak_value():
    spec = PulseSpec("gaussian", tau_f=1.0, t_a=4.0)
    assert envelope(spec, 4.0) == pytest.approx((1.0 / (2.0 * np.pi)) ** 0.25, abs=1e-12)
    assert abs(envelope(spec, 4.0) - 0.63161) < 1e-5


def test_exponential_envelopes_are_causal():
    dec = PulseSpec("decaying_exp", tau_f=1.0, t_a=2.0)
    ris = PulseSpec("rising_exp", tau_f=1.0, t_a=2.0)
    assert envelope(dec, 1.9) == 0.0
    assert envelope(ris, 2.1) == 0.0
    assert abs(envelope(dec, 2.1)) > 0.0
    assert abs(envelope(ris, 1.9)) > 0.0


def test_delta_envelope_rejected():
    with pytest.raises(ValueError, match="square-integrable"):
        envelope(PulseSpec("delta"), 0.0)


def test_normalization_gaussian_tight():
    spec = PulseSpec("gaussian", tau_f=1.0)
    assert abs(_spectral_norm(spec, 50.0, 20001) - 1.0) < 1e-8


def test_normalization_decaying_exp_lorentzian_tails():
    # |xi|^2 tails fall off like a Lorentzian, so the residual is the exact
    # tail mass 1/(pi W): 6.4e-4 at W = 500, and below 1e-4 only for W > 3200
    spec = PulseSpec("decaying_exp", tau_f=1.0)
    res = abs(_spectral_norm(spec, 500.0, 200001) - 1.0)
    assert res == pytest.approx(1.0 / (np.pi * 500.0), rel=0.01)
    assert abs(_spectral_norm(spec, 4000.0, 1600001) - 1.0) < 1e-4


@pytest.mark.parametrize("shape", NORMALIZABLE_SHAPES)
def test_parseval_consistency(shape):
    # frequency-domain and time-domain norms agree below 1e-5; the exponential
    # shapes need a wide window (spectral tail mass is 1/(pi W)) and a time
    # integral that starts exactly at the envelope jump
    from scipy.integrate import quad

    spec = PulseSpec(shape, tau_f=1.0)
    if shape == "gaussian":
        freq_norm = _spectral_norm(spec, 50.0, 400001)
        lo, hi = -10.0, 10.0
    else:
        freq_norm = _spectral_norm(spec, 64000.0, 860001)
        lo, hi = (0.0, 80.0) if shape == "decaying_exp" else (-80.0, 0.0)
    time_norm, _ = quad(lambda s: abs(envelope(spec, s)) ** 2, lo, hi, limit=300)
    assert abs(freq_norm - time_norm) < 1e-5


def _fwhm(x, y):
    half = y.max() / 2.0
    above = np.nonzero(y >= half)[0]
    i0, i1 = above[0], above[-1]
    lo = np.interp(half, [y[i0 - 1], y[i0]], [x[i0 - 1], x[i0]])
    hi = np.interp(half, [y[i1 + 1], y[i1]], [x[i1 + 1], x[i1]])
    return hi - lo


@pytest.mark.parametrize("shape", NORMALIZABLE_SHAPES)
def test_spectral_width_reciprocity(shape):
    # doubling tau_f halves the FWHM of |xi|^2 within 2%
    widths = []
    for tf in (1.0, 2.0):
        d = np.linspace(-40.0 / tf, 40.0 / tf, 200001)
        widths.append(_fwhm(d, np.abs(spectral_amplitude(PulseSpec(shape, tau_f=tf), d)) ** 2))
    assert abs(widths[0] / widths[1] - 2.0) < 0.04


@pytest.mark.parametrize("shape", NORMALIZABLE_SHAPES)
def test_envelope_unit_norm(shape):
    from scipy.integrate import quad

    spec = PulseSpec(shape, tau_f=1.0, t_a=0.0)
    lo, hi = {"gaussian": (-12.0, 12.0), "decaying_exp": (0.0, 40.0),
              "rising_exp": (-40.0, 0.0)}[shape]
    norm, _ = quad(lambda s: abs(envelope(spec, s)) ** 2, lo, hi, limit=200)
    assert abs(norm - 1.0) < 1e-6


def test_coherent_norm_equals_n_bar():
    coh = CoherentPulseSpec(base=PulseSpec("gaussian", tau_f=1.0), n_bar=2.5)
    total = _spectral_norm(coh.base, 50.0, 40001, coh.n_bar)
    assert abs(total - 2.5) < 1e-6
    # exponential base: residual is n_bar times the spectral tail mass 1/(pi W)
    coh2 = CoherentPulseSpec(base=PulseSpec("decaying_exp", tau_f=1.0), n_bar=2.5)
    total2 = _spectral_norm(coh2.base, 2000.0, 400001, coh2.n_bar)
    assert abs(total2 - 2.5) == pytest.approx(2.5 / (np.pi * 2000.0), rel=0.02)


def test_coherent_rejects_delta_base():
    with pytest.raises(ValueError, match="normalizable"):
        CoherentPulseSpec(base=PulseSpec("delta"), n_bar=1.0)


def test_pulse_spec_validation():
    with pytest.raises(ValueError, match="unknown pulse shape"):
        PulseSpec("square")
    with pytest.raises(ValueError, match="tau_f"):
        PulseSpec("gaussian", tau_f=-1.0)
    with pytest.raises(ValueError, match="photon number"):
        CoherentPulseSpec(base=PulseSpec("gaussian"), n_bar=-0.5)


@pytest.mark.parametrize("tau_f", [0.01, 1.0, 10.0])
@pytest.mark.parametrize("shape", NORMALIZABLE_SHAPES)
def test_envelope_tail_bounds_the_envelope_mass_after_tau(shape, tau_f):
    # U(tau) = int_tau^inf |u| in closed form, against quadrature of |envelope| up to 80 tau_f
    # (past which |u| < 1e-17 of its peak); a carrier leaves |u| alone
    spec = PulseSpec(shape, tau_f=tau_f, delta0=3.0 / tau_f, t_a=0.7)
    for tau in tau_f * np.array([-8.0, -1.5, -0.2, 0.0, 0.3, 2.0, 9.0]):
        end = 80.0 * tau_f
        mass, _ = quad(lambda s: abs(envelope(spec, spec.t_a + s)), tau, end,
                       points=[0.0] if tau < 0.0 else None, epsabs=0.0, epsrel=1e-12, limit=200)
        bound = envelope_tail(spec, tau)
        assert mass <= bound * (1.0 + 1e-10)
        assert bound <= mass * (1.0 + 1e-10) + 1e-300


def test_envelope_tail_of_a_delta_is_its_mass_until_it_arrives():
    # the Dirac mass sqrt(2 pi) |xi0| lies ahead of pulse time tau up to and at tau = 0
    spec = PulseSpec("delta", xi0=-0.3)
    mass = np.sqrt(2.0 * np.pi) * 0.3
    assert [envelope_tail(spec, tau) for tau in (-1.0, 0.0, 1e-12)] == [mass, mass, 0.0]
