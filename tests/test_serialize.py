"""Deterministic output files: digests, lossless floats, atomic writes."""

import json

import numpy as np

from fockatom import AtomParams, PulseSpec, SweepResult, TimeGrid, solve_markov
from fockatom.serialize import (
    _CSV_CHUNK,
    _csv_chunks,
    params_digest,
    write_csv,
    write_sweep,
    write_trajectory,
)


def test_params_digest_is_stable_and_order_free():
    a = params_digest({"x": 1.0, "y": [1, 2]})
    b = params_digest({"y": [1, 2], "x": 1.0})
    assert a == b
    assert params_digest({"x": 1.0000001}) != a


def test_csv_floats_round_trip_losslessly(tmp_path):
    rng = np.random.default_rng(3)
    col = rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, size=50)
    path = tmp_path / "vals.csv"
    write_csv(path, ["x"], [col])
    back = np.loadtxt(path, skiprows=1)
    assert np.array_equal(back, col)


def test_csv_bytes_pinned(tmp_path):
    # 17 significant digits, signed zero, a tiny exponent, 2**53+1 (stored as 2**53), non-finite
    path = tmp_path / "pin.csv"
    x = np.array([0.1, -0.0, 1e-300, 1.0 / 3.0, 2**53 + 1, np.nan, np.inf, -np.inf])
    write_csv(path, ["x", "i"], [x, np.arange(len(x))])
    assert path.read_bytes() == (b"x,i\n0.10000000000000001,0\n-0,1\n1e-300,2\n"
                                 b"0.33333333333333331,3\n9007199254740992,4\n"
                                 b"nan,5\ninf,6\n-inf,7\n")
    # a sweep row: failed cells keep NaN and their status, commas turned into ';'
    sweep = SweepResult(tau_f_grid=np.array([0.1, 1.0]), kappa_grid=np.array([2**53 + 1]),
                        p_max=np.array([[np.nan, 1.0 / 3.0]]), t_peak=np.array([[np.nan, -0.0]]),
                        status=[["error: bad cell, dt=0.1, kappa=2", "ok"]], argmax=(1.0, 2.0, 0.5),
                        samples_solved=80, samples_grid=101, cells_full_grid=0)
    write_sweep(tmp_path / "sweep", sweep)
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"tau_f,kappa,p_max,t_peak,status\n"
        b"0.10000000000000001,9007199254740992,nan,nan,error: bad cell; dt=0.1; kappa=2\n"
        b"1,9007199254740992,0.33333333333333331,-0,ok\n")
    meta = json.loads((tmp_path / "sweep.json").read_text())
    assert (meta["samples_solved"], meta["samples_grid"], meta["cells_full_grid"]) == (80, 101, 0)


def test_csv_chunks_match_per_cell_format(tmp_path):
    # rows across chunk boundaries print as the per-cell f-string did
    rng = np.random.default_rng(5)
    n = 2 * _CSV_CHUNK + 1
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n),
            np.arange(n), rng.standard_normal(n)]
    write_csv(tmp_path / "big.csv", ["a", "b", "c"], cols)
    lines = ["a,b,c"] + [",".join(f"{float(col[i]):.17g}" for col in cols) for i in range(n)]
    assert (tmp_path / "big.csv").read_text() == "\n".join(lines) + "\n"


def test_csv_chunks_print_as_str_format():
    # printf-style %.17g and %s give the bytes of "{:.17g}" and "{}"; a text value
    # holding % or {} is printed, not parsed
    x = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-5, 1e-4, 1e16, 1e17, 1e308]
    text = ["100% {} %s {:.17g}"] + [f"row {i}" for i in range(1, len(x))]
    got = "".join(_csv_chunks(["x", "note"], [np.array(x), text]))
    assert got == "x,note\n" + "".join("{:.17g},{}\n".format(v, t) for v, t in zip(x, text))


def test_trajectory_bundle(tmp_path):
    grid = TimeGrid.from_span(0.0, 2.0, 1e-2)
    traj = solve_markov(AtomParams(), PulseSpec("gaussian", tau_f=0.3, t_a=1.0), grid)
    base = tmp_path / "traj"
    write_trajectory(base, traj)
    data = np.loadtxt(f"{base}.csv", delimiter=",", skiprows=1)
    assert data.shape == (grid.n, 4)
    assert np.array_equal(data[:, 3], traj.p)
    meta = json.loads((tmp_path / "traj.json").read_text())
    assert meta["solver_id"] == "markov"
    assert meta["grid"]["n"] == grid.n
    assert "created_at" in meta and "code_version" in meta


def test_identical_runs_identical_bytes(tmp_path):
    grid = TimeGrid.from_span(0.0, 2.0, 1e-2)
    pulse = PulseSpec("gaussian", tau_f=0.3, t_a=1.0)
    for name in ("a", "b"):
        write_trajectory(tmp_path / name, solve_markov(AtomParams(), pulse, grid))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_csv_deterministic(tmp_path):
    from fockatom import sweep_pmax
    from fockatom.serialize import write_sweep

    tau = np.array([0.5, 1.0])
    kap = np.array([1.0, 10.0])
    for name in ("s1", "s2"):
        sweep = sweep_pmax(AtomParams(), "gaussian", tau, kap)
        write_sweep(tmp_path / name, sweep)
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
