"""The uniform time grid."""

import math
import tracemalloc

import numpy as np
import pytest

from fockatom import TimeGrid
from fockatom.grids import MAX_GRID_SAMPLES, ParameterError


def test_time_grid_span_covers_endpoint():
    grid = TimeGrid.from_span(0.0, 1.0, 0.3)
    assert grid.t_max >= 1.0
    assert grid.times[0] == 0.0
    assert np.allclose(np.diff(grid.times), 0.3)


def test_time_grid_validation():
    with pytest.raises(ValueError, match="dt"):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError, match="two samples"):
        TimeGrid(0.0, 0.1, 1)
    with pytest.raises(ValueError, match="t_max"):
        TimeGrid.from_span(1.0, 1.0, 0.1)
    # a span that rounds to no whole step: the step is too coarse, whatever t_max was set to
    with pytest.raises(ParameterError, match="exceeds the span") as err:
        TimeGrid.from_span(0.0, 2e-49, 1e-3)
    assert err.value.field == "dt"


@pytest.mark.parametrize("t0, top", [
    (3.0, 3.0), (-7.5, 7.5), (1e6 + 0.3, 1e6 + 0.3), (1e13, 1e13),
    (4.0 - 2000 * math.ulp(4.0), 4.0),  # the samples cross into the next binade
])
def test_time_grid_refuses_sample_times_that_would_repeat(t0, top):
    # top is in the binade of the largest |t_k|: at dt = 4 ulp of it the samples increase,
    # one ulp of dt less is refused on t0
    dt = 4 * math.ulp(top)
    grid = TimeGrid(t0, dt, 1000)
    assert math.ulp(max(abs(t0), abs(grid.t_max))) == math.ulp(top)
    assert np.all(np.diff(grid.times) > 0)
    with pytest.raises(ParameterError, match="distinct samples") as err:
        TimeGrid(t0, float(np.nextafter(dt, 0.0)), 1000)
    assert err.value.field == "t0"


def test_time_grid_sample_budget():
    assert TimeGrid(0.0, 1e-3, MAX_GRID_SAMPLES).n == 1_000_000
    with pytest.raises(ParameterError, match=r"^1e\+06 samples exceed the budget of 1000000") as err:
        TimeGrid(0.0, 1e-3, MAX_GRID_SAMPLES + 1)
    assert err.value.field == "dt"


def test_from_span_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=r"^1e\+43 samples exceed the budget") as err:
            TimeGrid.from_span(0.0, 1e40, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.field == "dt"
    assert peak < 1 << 20
