"""Spectra, kernels and driving terms against independent oracles.

The driving-term oracle is the time-domain convolution of the envelope with
the cavity ring-in response, D(tau) = -1j sqrt(gamma_p) kappa
int u(s) exp(-kappa (tau - s)) ds, integrated adaptively: a route sharing
nothing with either the closed-form filter `exp_filter` or the detuning-grid
quadrature.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from fockatom import (
    InteractionSpectrum,
    PulseSpec,
    coupling_amplitude,
    driving_term,
    envelope,
    memory_kernel,
    total_spectrum,
)
from fockatom.spectra import driving_term_uniform


def test_lorentzian_coupling_at_resonance():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    g0 = coupling_amplitude(spec, 0.0)
    assert g0 == pytest.approx(-1j * np.sqrt(1.0 / (2.0 * np.pi)), abs=1e-12)
    assert abs(g0 + 1j * 0.39894) < 1e-5


def test_lorentzian_half_width():
    spec = InteractionSpectrum.lorentzian(10.0)
    g0 = abs(coupling_amplitude(spec, 0.0)) ** 2
    gk = abs(coupling_amplitude(spec, 10.0)) ** 2
    assert gk == pytest.approx(0.5 * g0, rel=1e-12)


def test_flat_coupling_constant():
    spec = InteractionSpectrum.flat(gamma_p=1.0)
    for d in (-40.0, 0.0, 3.0):
        assert coupling_amplitude(spec, d) == pytest.approx(0.3989422804014327, abs=1e-10)


def test_tabulated_coupling_fraction_and_range():
    d = np.linspace(-10, 10, 201)
    g2 = np.full_like(d, 1.0 / (2 * np.pi))
    spec = InteractionSpectrum.tabulated(d, g2, gamma_p=0.5, gamma=1.0)
    # uniform pulse fraction gamma_p/gamma under the square root
    assert coupling_amplitude(spec, 0.0) == pytest.approx(
        np.sqrt(0.5 / (2 * np.pi)), abs=1e-12)
    with pytest.raises(ValueError, match="outside tabulated grid"):
        coupling_amplitude(spec, 11.0)


def test_lorentzian_kernel_values():
    kern = memory_kernel(InteractionSpectrum.lorentzian(10.0, gamma=1.0))
    assert kern(0.0) == pytest.approx(5.0, abs=1e-12)
    assert kern(0.1) == pytest.approx(5.0 * np.exp(-1.0), abs=1e-12)
    assert abs(kern(0.1) - 1.83940) < 1e-5
    # real spectrum: G(-t) = conj(G(t))
    assert kern(-0.3) == pytest.approx(np.conj(kern(0.3)), abs=1e-14)


def test_flat_kernel_is_markov_marker():
    kern = memory_kernel(InteractionSpectrum.flat(gamma=1.0))
    assert kern.is_markov
    assert kern.markov_weight == pytest.approx(1.0)
    with pytest.raises(ValueError, match="Markov"):
        kern(0.0)


def test_kernel_spectrum_duality():
    # numeric FT of |g_tot|^2 reproduces (gamma kappa/2) e^{-kappa t} within 1e-4
    gamma, kappa = 1.0, 1.0
    spec = InteractionSpectrum.lorentzian(kappa, gamma=gamma)
    d = np.linspace(-6000.0, 6000.0, 600001)
    w = np.full(d.size, d[1] - d[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    vals = w * total_spectrum(spec, d)
    for t in np.linspace(0.0, 5.0 / kappa, 7):
        num = np.sum(vals * np.exp(-1j * d * t))
        ana = 0.5 * gamma * kappa * np.exp(-kappa * t)
        assert abs(num - ana) < 1e-4


def test_lorentzian_area_rule():
    gamma, kappa = 1.0, 1.0
    spec = InteractionSpectrum.lorentzian(kappa, gamma=gamma)
    d = np.linspace(-6000.0, 6000.0, 600001)
    area = np.trapezoid(total_spectrum(spec, d), d)
    assert abs(area - 0.5 * gamma * kappa) < 1e-4


def test_tabulated_kernel_matches_analytic():
    gamma, kappa = 1.0, 10.0
    d = np.linspace(-2000.0, 2000.0, 80001)
    g2 = (gamma / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    kern = memory_kernel(InteractionSpectrum.tabulated(d, g2))
    t = np.linspace(0.05, 0.5, 10)
    ana = 0.5 * gamma * kappa * np.exp(-kappa * t)
    assert np.abs(kern(t) - ana).max() < 1e-3


# ---------------------------------------------------------------------------
# driving term
# ---------------------------------------------------------------------------

def _drive_oracle(pulse: PulseSpec, gamma_p: float, kappa: float, tau: float) -> complex:
    """Time-domain convolution of the envelope with the cavity ring-in."""
    start = {"gaussian": -10.0 * pulse.tau_f, "decaying_exp": 0.0,
             "rising_exp": -40.0 * pulse.tau_f}[pulse.shape]
    if tau <= start:
        return 0.0
    lo = max(start, tau - 40.0 / kappa)  # the ring-in has decayed by e^-40 before

    def integrand(s, part):
        u = complex(envelope(pulse, s + pulse.t_a))
        return getattr(u, part) * np.exp(-kappa * (tau - s))

    # split at the pulse reference: the rising_exp cut-off is a jump there
    pts = [0.0] if lo < 0.0 < tau else None
    re, _ = quad(integrand, lo, tau, args=("real",), limit=500, points=pts)
    im, _ = quad(integrand, lo, tau, args=("imag",), limit=500, points=pts)
    return -1j * np.sqrt(gamma_p) * kappa * (re + 1j * im)


def test_flat_drive_short_circuits_to_envelope():
    spec = InteractionSpectrum.flat(gamma_p=0.6)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=3.0)
    got = driving_term(spec, pulse, 3.0)
    assert got == pytest.approx(np.sqrt(0.6) * (1.0 / (2 * np.pi)) ** 0.25, abs=1e-12)


def test_decaying_exp_drive_matches_convolution_oracle():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    pulse = PulseSpec("decaying_exp", tau_f=1.0, t_a=0.0)
    for tau in (0.05, 0.5, 2.0, 5.0):
        got = driving_term(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 10.0, tau)
        assert abs(got - want) < 1e-6


def test_rising_exp_drive_matches_convolution_oracle():
    spec = InteractionSpectrum.lorentzian(4.0, gamma_p=1.0)
    pulse = PulseSpec("rising_exp", tau_f=0.8, t_a=0.0)
    for tau in (-2.0, -0.3, 0.0, 0.4, 2.0):
        got = driving_term(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 4.0, tau)
        assert abs(got - want) < 1e-6


def test_gaussian_drive_quadrature_matches_convolution_oracle():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    for tau in (-2.0, 0.0, 0.7, 3.0):
        got = driving_term(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 10.0, tau)
        assert abs(got - want) < 1e-6


def test_detuned_carrier_drives_match_oracle():
    # delta0 != 0 exercises the complex pole shift in every closed form; the
    # last time lies in the far tail Re z < -27 of the Gaussian filter, where
    # erfcx(z) overflows and the reflected form takes over
    for kappa in (0.1, 5.0, 100.0):
        spec = InteractionSpectrum.lorentzian(kappa, gamma_p=1.0)
        for tau_f in (0.01, 0.6, 1.0, 10.0):
            tail = 2.0 * tau_f * (kappa * tau_f + 28.0)
            for delta0 in (0.0, 2.0, -5.0):
                for shape in ("decaying_exp", "rising_exp", "gaussian"):
                    pulse = PulseSpec(shape, tau_f=tau_f, delta0=delta0, t_a=0.0)
                    for tau in (-4.0 / 3.0 * tau_f, 0.5 * tau_f, 2.5 * tau_f, tail):
                        got = driving_term(spec, pulse, tau)
                        want = _drive_oracle(pulse, 1.0, kappa, tau)
                        assert abs(got - want) < 1e-6, (kappa, tau_f, delta0, shape, tau)


def test_degenerate_pole_decaying_exp():
    # kappa = 1/(2 tau_f): the two drive poles coincide; the limit form applies
    spec = InteractionSpectrum.lorentzian(0.5, gamma_p=1.0)
    pulse = PulseSpec("decaying_exp", tau_f=1.0, t_a=0.0)
    for tau in (0.5, 2.0):
        got = driving_term(spec, pulse, tau)
        want = _drive_oracle(pulse, 1.0, 0.5, tau)
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        assert abs(got - want) < 1e-6


def test_delta_drive_closed_form():
    spec = InteractionSpectrum.lorentzian(10.0, gamma_p=1.0)
    pulse = PulseSpec("delta", xi0=0.1, t_a=1.0)
    assert driving_term(spec, pulse, 0.9) == 0.0
    got = driving_term(spec, pulse, 1.2)
    want = -1j * 0.1 * np.sqrt(2 * np.pi) * 10.0 * np.exp(-10.0 * 0.2)
    assert got == pytest.approx(want, rel=1e-12)


def test_delta_drive_rejected_without_closure():
    pulse = PulseSpec("delta", xi0=0.1)
    with pytest.raises(ValueError, match="Markov"):
        driving_term(InteractionSpectrum.flat(), pulse, 0.0)
    d = np.linspace(-10, 10, 101)
    tab = InteractionSpectrum.tabulated(d, np.ones_like(d))
    with pytest.raises(ValueError, match="closed form"):
        driving_term(tab, pulse, 0.0)


def test_drive_vanishes_before_gaussian_pulse():
    spec = InteractionSpectrum.lorentzian(10.0)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    assert abs(driving_term(spec, pulse, -30.0)) < 1e-12


def test_markov_limit_of_lorentzian_drive():
    # kappa = 1000 gamma: |D| at the pulse peak matches the flat closed form to 1e-3
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    lor = InteractionSpectrum.lorentzian(1000.0, gamma_p=1.0)
    flat = InteractionSpectrum.flat(gamma_p=1.0)
    d_lor = abs(driving_term(lor, pulse, 0.0))
    d_flat = abs(driving_term(flat, pulse, 0.0))
    assert abs(d_lor - d_flat) / d_flat < 1e-3


def test_uniform_and_pointwise_drive_agree():
    # chirp-z on the uniform grid against the direct phase sum on the same nodes
    kappa = 10.0
    d = np.linspace(-200.0, 200.0, 4001)
    spec = InteractionSpectrum.tabulated(d, (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0))
    pulse = PulseSpec("gaussian", tau_f=0.5, t_a=2.0)
    n, dt = 201, 0.02
    t = 1.0 + dt * np.arange(n)
    via_czt = driving_term_uniform(spec, pulse, 1.0, dt, n)
    direct = driving_term(spec, pulse, t)
    assert np.abs(via_czt - direct).max() < 1e-7


def test_tabulated_drive_close_to_analytic_magnitude():
    # zero-phase tabulated coupling: same magnitudes, but the analytic
    # coupling phase delays the drive by ~1/kappa, so the magnitude traces
    # differ by ~|dD/dt|/kappa. Check that the gap is at that scale.
    kappa = 50.0
    d = np.linspace(-2500.0, 2500.0, 100001)
    g2 = (1.0 / (2 * np.pi)) / ((d / kappa) ** 2 + 1.0)
    tab = InteractionSpectrum.tabulated(d, g2)
    lor = InteractionSpectrum.lorentzian(kappa)
    pulse = PulseSpec("gaussian", tau_f=1.0, t_a=0.0)
    t = np.linspace(-3.0, 3.0, 13)
    dt_tab = np.abs(driving_term(tab, pulse, t))
    dt_lor = np.abs(driving_term(lor, pulse, t))
    assert np.abs(dt_tab - dt_lor).max() < 1e-2
    # delay-compensated comparison collapses the gap
    dt_lor_shifted = np.abs(driving_term(lor, pulse, t + 1.0 / kappa))
    assert np.abs(dt_tab - dt_lor_shifted).max() < 3e-4


def test_spectrum_validation():
    with pytest.raises(ValueError, match="kappa"):
        InteractionSpectrum.lorentzian(-1.0)
    with pytest.raises(ValueError, match="gamma_p"):
        InteractionSpectrum.lorentzian(1.0, gamma_p=2.0, gamma=1.0)
    with pytest.raises(ValueError, match="non-negative"):
        InteractionSpectrum.tabulated([0.0, 1.0], [-0.1, 0.2])
    with pytest.raises(ValueError, match="increasing"):
        InteractionSpectrum.tabulated([0.0, 0.0], [0.1, 0.2])


def test_from_csv_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("delta,g2\n-1.0,0.1\n0.0,0.2\n1.0,0.1\n")
    spec = InteractionSpectrum.from_csv(path)
    assert total_spectrum(spec, 0.0) == pytest.approx(0.2)
    assert total_spectrum(spec, 0.5) == pytest.approx(0.15)
