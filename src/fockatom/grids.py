"""The uniform time grid every solver runs on, and the parameter range rules.

All rates are in units of the Markov spontaneous decay rate gamma and all
times in 1/gamma. Frequencies are detunings from the atomic transition
(rotating frame), so grids are symmetric windows around zero unless stated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """A refused input; `field` is the parameter's name (its config key) or a config path."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field, self.message = field, message


# Largest magnitude of a model parameter, and smallest of a positive scale (a
# rate, duration or step): the squares, ratios and products of a few such
# numbers that the model forms then stay finite doubles.
MAGNITUDE_LIMIT = 1e50
MIN_SCALE = 1.0 / MAGNITUDE_LIMIT
# Largest time grid, refused by TimeGrid before any sample is allocated; a grid
# within it fits the memory of every solver (solve_volterra needs the most).
MAX_GRID_SAMPLES = 1_000_000


def check_range(name: str, value: float, low: float = -MAGNITUDE_LIMIT) -> None:
    """Refuse value outside [low, MAGNITUDE_LIMIT], NaN included; low=MIN_SCALE for a scale."""
    if not low <= value <= MAGNITUDE_LIMIT:
        raise ParameterError(name, f"{name} must lie in [{low:g}, {MAGNITUDE_LIMIT:g}], "
                                   f"got {value}")


def check_rates(gamma: float, gamma_p: float) -> None:
    """Refuse decay rates outside 0 < gamma_p <= gamma, gamma a scale."""
    check_range("gamma", gamma, MIN_SCALE)
    if not 0.0 < gamma_p <= gamma:
        raise ParameterError("gamma_p", f"need 0 < gamma_p <= gamma, got "
                                        f"gamma_p={gamma_p}, gamma={gamma}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = t0 + k*dt, k = 0..n-1, at most MAX_GRID_SAMPLES long."""

    t0: float
    dt: float
    n: int

    def __post_init__(self):
        check_range("dt", self.dt, MIN_SCALE)
        check_range("t0", self.t0)
        if self.n < 2:
            raise ParameterError("t_max", f"need at least two samples, got n={self.n}")
        if self.n > MAX_GRID_SAMPLES:
            raise ParameterError("dt", f"{self.n:.3g} samples exceed the budget of "
                                       f"{MAX_GRID_SAMPLES}; raise dt or shorten the span")

    @classmethod
    def from_span(cls, t0: float, t_max: float, dt: float) -> "TimeGrid":
        """Grid covering [t0, t_max]; t_max is rounded up to a whole step.

        A span within 1e-12 of a whole number of steps, relative to that
        number, counts as whole: the rounding error of t_max - t0 grows with
        the span, and t0 + span - t0 need not give back the span exactly.
        """
        check_range("dt", dt, MIN_SCALE)
        check_range("t0", t0)
        check_range("t_max", t_max)
        if not t_max > t0:
            raise ParameterError("t_max", f"t_max={t_max} must exceed t0={t0}")
        q = (t_max - t0) / dt
        return cls(t0=t0, dt=dt, n=int(np.ceil(q - 1e-12 * max(q, 1.0))) + 1)

    @property
    def t_max(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def half_step_times(self) -> np.ndarray:
        """All nodes and midpoints: 2n-1 samples at dt/2 spacing (RK4 stages)."""
        return self.t0 + 0.5 * self.dt * np.arange(2 * self.n - 1)
