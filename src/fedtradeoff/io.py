"""Deterministic file formats.

Every artifact is byte-reproducible from (config, master_seed): canonical JSON
(sorted keys, no whitespace drift), floats serialized with shortest-roundtrip
repr, fixed row order. Wall-clock timings live in a separate sidecar excluded
from the reproducibility contract.

Schemas (versioned):

* ``manifest/v1``   -- manifest.json: schema ids, config echo, master seed.
* ``roundlog/v1``   -- rounds.jsonl: one JSON object per round.
* ``datasets/v1``   -- datasets.csv: client_id, x0..x{p-1}, label.
* ``vector/v1``     -- model_*.csv: one coordinate per line.
* ``results/v1``    -- results.csv: TrialRow fields in declared order.
* ``timings/v1``    -- timings.csv sidecar.
* ``attacklog/v1``  -- attack.jsonl: a head, then each iterate's objective.
* ``trajectory/v1`` -- trajectory.csv: iteration, sample, x0..x{p-1}.
* ``curves/v1``     -- curves.csv: per-axis-value medians for plotting.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, get_type_hints

import numpy as np

from .datagen import ClientDataset
from .errors import ConfigurationError
from .experiment import TrialRow
from .protocol import RoundRecord

SCHEMAS = {
    "manifest": "manifest/v1",
    "roundlog": "roundlog/v1",
    "datasets": "datasets/v1",
    "vector": "vector/v1",
    "results": "results/v1",
    "timings": "timings/v1",
    "attacklog": "attacklog/v1",
    "trajectory": "trajectory/v1",
    "curves": "curves/v1",
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _floats(vec: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(vec, dtype=np.float64)]


def write_manifest(path: str, config_dict: dict, master_seed: int) -> None:
    doc = {
        "schemas": SCHEMAS,
        "config": config_dict,
        "master_seed": master_seed,
    }
    with open(path, "w") as fh:
        fh.write(canonical_json(doc) + "\n")


def read_manifest(path: str) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:          # malformed JSON or not UTF-8
            raise ConfigurationError(f"bad manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not {"config", "master_seed"} <= doc.keys():
        raise ConfigurationError(f"bad manifest {path}: not an object with "
                                 f"'config' and 'master_seed'")
    return doc


def round_record_to_dict(rec: RoundRecord) -> dict:
    return {
        "round": rec.round_index,
        "eta": rec.eta,
        "theta_decoded": _floats(rec.theta_decoded),
        "theta_next_protected": _floats(rec.theta_next_protected)
        if rec.theta_next_protected is not None else None,
        "theta_next_decoded": _floats(rec.theta_next_decoded)
        if rec.theta_next_decoded is not None else None,
        "grads": [_floats(g) for g in rec.grads],
        "wires": [_floats(w) for w in rec.wires],
        "delta_up_grad": rec.delta_up_grad,
        "delta_up_param": rec.delta_up_param,
        "delta_two_grad": rec.delta_two_grad,
        "delta_two_param": rec.delta_two_param,
        "shadow_gap": rec.shadow_gap,
    }


def write_round_log(path: str, records: Iterable[RoundRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(canonical_json(round_record_to_dict(rec)) + "\n")


def read_round_log(path: str) -> list[dict]:
    out = []
    with open(path) as fh:
        try:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        except ValueError as exc:          # malformed JSON or not UTF-8
            raise ConfigurationError(f"bad round log {path}, line {n}: {exc}") from exc
    return out


def write_vector(path: str, vec: np.ndarray) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(vec, dtype=np.float64):
            fh.write(repr(float(v)) + "\n")


def read_vector(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            return np.array([float(line.strip()) for line in fh if line.strip()])
        except ValueError as exc:          # a non-numeric line or not UTF-8
            raise ConfigurationError(f"bad vector file {path}: {exc}") from exc


def write_datasets(path: str, datasets: list[ClientDataset]) -> None:
    if not datasets:
        raise ConfigurationError("no datasets to write")
    p = datasets[0].x.shape[1]
    header = ["client_id"] + [f"x{i}" for i in range(p)] + ["label"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for ds in datasets:
            for xi, yi in zip(ds.x, ds.y):
                cells = [str(ds.client_id)] + [repr(float(v)) for v in xi] + [str(int(yi))]
                fh.write(",".join(cells) + "\n")


def read_datasets(path: str) -> list[ClientDataset]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "client_id" or header[-1] != "label":
            raise ConfigurationError(f"bad datasets header in {path}")
        p = len(header) - 2
        rows: dict[int, list[tuple[list[float], int]]] = {}
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != p + 2:
                raise ConfigurationError(f"bad datasets row in {path}")
            try:
                cid, point = int(cells[0]), ([float(c) for c in cells[1:-1]], int(cells[-1]))
            except ValueError as exc:      # a non-numeric cell
                raise ConfigurationError(f"bad datasets row in {path}: {exc}") from exc
            rows.setdefault(cid, []).append(point)
    out = []
    for cid in sorted(rows):
        xs = np.array([r[0] for r in rows[cid]])
        ys = np.array([r[1] for r in rows[cid]], dtype=np.int64)
        out.append(ClientDataset(client_id=cid, x=xs, y=ys))
    return out


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_results(path: str, rows: list[TrialRow], append: bool = False) -> None:
    exists = os.path.exists(path)
    mode = "a" if append and exists else "w"
    with open(path, mode) as fh:
        if mode == "w":
            fh.write(",".join(TrialRow.FIELDS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row.as_list()) + "\n")


_PARSERS = {int: int, float: float, str: str,
            bool: {"true": True, "false": False}.__getitem__}


def read_results(path: str) -> list[TrialRow]:
    """Rows of ``write_results``; each cell parsed by its field's declared type."""
    hints = get_type_hints(TrialRow)
    parsers = [_PARSERS[hints[name]] for name in TrialRow.FIELDS]
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TrialRow.FIELDS:
            raise ConfigurationError(f"results header mismatch in {path}")
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(parsers):
                raise ConfigurationError(f"results row has {len(cells)} cells, header "
                                         f"{len(parsers)}, in {path}")
            rows.append(TrialRow(*(parse(raw) for parse, raw in zip(parsers, cells))))
    return rows


def write_timings(path: str, entries: list[tuple[str, float, int, float]]) -> None:
    """Sidecar: (sweep_axis, sweep_value, trial_index, wall_time_s)."""
    with open(path, "w") as fh:
        fh.write("sweep_axis,sweep_value,trial_index,wall_time_s\n")
        for axis, value, ti, wt in entries:
            fh.write(f"{axis},{_cell(float(value))},{ti},{_cell(float(wt))}\n")


def write_attack_summary(path: str, trace) -> None:
    """JSON-lines: a head record, then one record per iterate t = 0..iters_run.

    Every iterate is stored, so the head's ``"stride"`` is always 1; it is
    still written so that ``attacklog/v1`` files stay byte-identical.
    """
    objectives = trace.objectives
    with open(path, "w") as fh:
        head = {
            "iters_run": trace.iters_run,
            "stride": 1,
            "truncated": trace.truncated,
            "final_objective": float(objectives[-1]),
        }
        fh.write(canonical_json(head) + "\n")
        for t, _x in trace.iterates:
            fh.write(canonical_json({"iteration": t,
                                     "objective": float(objectives[t])}) + "\n")


def write_trajectory(path: str, trace) -> None:
    """Full stored trajectory as CSV: iteration, sample, x0..x{p-1}."""
    m, p = trace.final_x.shape
    with open(path, "w") as fh:
        fh.write("iteration,sample," + ",".join(f"x{i}" for i in range(p)) + "\n")
        for t, x_t in trace.iterates:
            for i in range(m):
                cells = [str(t), str(i)] + [repr(float(v)) for v in x_t[i]]
                fh.write(",".join(cells) + "\n")


def write_curves(path: str, summary: dict) -> None:
    """Per-axis-value medians for plotting."""
    with open(path, "w") as fh:
        fh.write("axis,value,median_eps_p,median_privacy_rhs\n")
        for v, med, rhs in zip(summary["values"], summary["median_eps_p"],
                               summary["median_privacy_rhs"]):
            fh.write(f"{summary['axis']},{_cell(float(v))},{_cell(float(med))},"
                     f"{_cell(float(rhs))}\n")
