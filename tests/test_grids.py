"""The uniform time grid."""

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


def test_time_grid_half_steps():
    grid = TimeGrid(1.0, 0.5, 4)
    th = grid.half_step_times()
    assert len(th) == 7
    assert np.allclose(th[::2], grid.times)


def test_time_grid_validation():
    with pytest.raises(ValueError, match="dt"):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError, match="two samples"):
        TimeGrid(0.0, 0.1, 1)
    with pytest.raises(ValueError, match="t_max"):
        TimeGrid.from_span(1.0, 1.0, 0.1)


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
