"""Deterministic serialization: CSV outputs and JSON sidecars.

CSV numeric format is 17 significant digits so doubles round-trip losslessly,
and all writes are atomic (temp file + rename) so concurrent figure runs
never expose partial files. Timestamps live only in JSON sidecars; CSV bytes
are a pure function of the input data.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__ as _code_version


_CSV_CHUNK = 1 << 14  # rows formatted by one printf-style %


def _atomic_write(path, chunks) -> None:
    """Write an iterable of text chunks to a temp file, then rename it to path."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_chunks(header: list[str], columns: list):
    """CSV text in chunks of _CSV_CHUNK rows, one printf-style % per chunk.

    Numeric columns print as "%.17g" (17 significant digits); a list of
    strings prints as "%s", as it is. printf-style "%.17g" is the same
    PyOS_double_to_string conversion as "{:.17g}".format, so the bytes are
    those of str.format, and a value holding % or {} is never parsed.
    """
    yield ",".join(header) + "\n"
    text = [isinstance(col, list) for col in columns]
    row = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    for s in range(0, len(columns[0]), _CSV_CHUNK):
        block = np.column_stack([np.asarray(col[s:s + _CSV_CHUNK], dtype=object if t else float)
                                 for col, t in zip(columns, text)])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def write_csv(path, header: list[str], columns: list) -> None:
    """CSV of equal-length columns: numeric arrays, or lists of strings."""
    _atomic_write(path, _csv_chunks(header, columns))


def write_json(path, payload: dict) -> None:
    doc = dict(payload)
    doc.setdefault("code_version", _code_version)
    doc["created_at"] = datetime.now(timezone.utc).isoformat()
    _atomic_write(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def write_trajectory(path_base, traj, metadata: dict | None = None) -> None:
    """trajectory CSV (t, re_C, im_C, P) plus JSON sidecar at path_base.{csv,json}."""
    write_csv(f"{path_base}.csv", ["t", "re_C", "im_C", "P"],
              [traj.grid.times, traj.c.real, traj.c.imag, traj.p])
    write_json(f"{path_base}.json", {
        "solver_id": traj.solver_id,
        "params": traj.params,
        "grid": asdict(traj.grid),
        **(metadata or {}),
    })


def write_sweep(path_base, sweep, metadata: dict | None = None) -> None:
    """Long-format sweep CSV (tau_f, kappa, p_max, t_peak, status) + summary JSON: the argmax,
    the axes and the sample counts (`SweepResult`'s samples_solved, samples_grid and
    cells_full_grid)."""
    nk, nt = sweep.p_max.shape
    status = [st.replace(",", ";") for row in sweep.status for st in row]
    write_csv(f"{path_base}.csv", ["tau_f", "kappa", "p_max", "t_peak", "status"],
              [np.tile(sweep.tau_f_grid, nk), np.repeat(sweep.kappa_grid, nt),
               sweep.p_max.ravel(), sweep.t_peak.ravel(), status])
    tf_star, kap_star, p_star = sweep.argmax
    write_json(f"{path_base}.json", {
        "argmax": {"tau_f": tf_star, "kappa": kap_star, "p_max": p_star},
        "tau_f_grid": [float(x) for x in sweep.tau_f_grid],
        "kappa_grid": [float(x) for x in sweep.kappa_grid],
        "samples_solved": sweep.samples_solved,
        "samples_grid": sweep.samples_grid,
        "cells_full_grid": sweep.cells_full_grid,
        **(metadata or {}),
    })


def write_detector_trace(path_base, trace, metadata: dict | None = None) -> None:
    """Detector trace CSV (t, y) + JSON metadata (detector, statistics, n_bar)."""
    write_csv(f"{path_base}.csv", ["t", "y"], [trace.grid.times, trace.y])
    write_json(f"{path_base}.json", {"detector": trace.detector, "statistics": trace.statistics,
                                     "n_bar": trace.n_bar, **(metadata or {})})
