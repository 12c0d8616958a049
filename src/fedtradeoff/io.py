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
import math
import os
from typing import get_type_hints

import numpy as np

from .datagen import ClientDataset
from .errors import ConfigurationError, require_int
from .experiment import TrialRow
from .protocol import RoundRecord, RunResult

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


def write_json(path: str, doc) -> None:
    """``doc`` as one line of canonical JSON."""
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
    require_int(f"master_seed of {path}", doc["master_seed"], 0)
    return doc


# each roundlog/v1 value after "round", keyed by its RoundRecord field: the
# shape of its numbers in the round's K clients and d parameters ("" one number)
_ROUND_SHAPES = dict(eta="", theta_decoded="d", theta_next_protected="d",
                     theta_next_decoded="d", grads="Kd", wires="Kd", delta_up_grad="K",
                     delta_up_param="K", delta_two_grad="", delta_two_param="", shadow_gap="")

# one roundlog/v1 line: canonical_json of a round's object, its keys sorted
# and "round" an integer
_ROUND_KEYS = sorted(["round", *_ROUND_SHAPES])
_ROUND_LINE = "{" + ",".join(f'"{key}":%{"d" if key == "round" else "s"}'
                             for key in _ROUND_KEYS) + "}\n"


def _template(shape: tuple) -> str:
    """A ``%s`` for each number of an array of ``shape``, in JSON's nested lists."""
    return "%s" if not shape else "[" + ",".join([_template(shape[1:])] * shape[0]) + "]"


def _texts(a: np.ndarray, spell=float.__repr__, template=None) -> list[str]:
    """Each ``a[i]`` as text: its floats spelled by ``spell``, each taken once
    from one ``tolist()``, and placed in ``template`` (default: as JSON's
    nested lists) for each row."""
    a = np.asarray(a, dtype=np.float64)
    texts = list(map(spell, a.ravel().tolist()))
    if a.ndim == 1:
        return texts
    n, template = math.prod(a.shape[1:]), template or _template(a.shape[1:])
    return [template % tuple(texts[i:i + n]) for i in range(0, len(texts), n)]


def _json_texts(a: np.ndarray) -> list[str]:
    """``canonical_json`` of each ``a[i]``: shortest-roundtrip ``repr`` floats,
    except json's ``NaN``, ``Infinity`` and ``-Infinity`` where ``a`` holds a
    non-finite value."""
    return _texts(a, float.__repr__ if np.isfinite(a).all() else canonical_json)


def round_record_from_dict(doc) -> RoundRecord:
    """One roundlog/v1 line's object as its ``RoundRecord``;
    ``ConfigurationError`` unless ``doc`` has exactly its keys, an integer
    round >= 0 and numbers of one K and d."""
    if not isinstance(doc, dict) or doc.keys() != {"round", *_ROUND_SHAPES}:
        raise ConfigurationError("not an object with the keys round, " + ", ".join(_ROUND_SHAPES))
    require_int("round", doc["round"], 0)
    fields, sizes = {}, {}
    for key, shape in _ROUND_SHAPES.items():
        try:
            value = np.array(doc[key])
        except ValueError:                 # ragged rows
            value = np.array(None)
        if value.dtype.kind not in "iuf" or value.ndim != len(shape) or any(
                sizes.setdefault(axis, n) != n for axis, n in zip(shape, value.shape)):
            raise ConfigurationError(f"{key} must be numbers of shape ({', '.join(shape)}), "
                                     f"with one K and d throughout")
        value = value.astype(np.float64, copy=False)
        fields[key] = value if "d" in shape else value.tolist()
    return RoundRecord(doc["round"], **fields)


def write_round_log(path: str, result: RunResult) -> None:
    """roundlog/v1 of a run: line t is ``canonical_json`` of ``result.record(t)``
    with its fields as keys and its round index as ``"round"``. Each float is
    spelled once: row t + 1 of ``theta_decoded`` is also round t's
    ``theta_next_decoded``, and its ``theta_next_protected`` where their bits
    are equal."""
    theta = _json_texts(result.theta_decoded)
    decoded = np.asarray(result.theta_decoded[1:], dtype=np.float64)
    wire = np.asarray(result.theta_protected, dtype=np.float64)
    protected = theta[1:]
    # bits, not ==: 0.0 == -0.0 and nan != nan
    differ = np.flatnonzero((wire.view(np.uint64) != decoded.view(np.uint64)).any(axis=1))
    for t, text in zip(differ.tolist(), _json_texts(wire[differ])):
        protected[t] = text
    columns = {key: _json_texts(getattr(result, key)) for key in _ROUND_SHAPES
               if not key.startswith("theta")}
    columns.update(round=range(result.rounds), theta_decoded=theta[:-1],
                   theta_next_decoded=theta[1:], theta_next_protected=protected)
    with open(path, "w") as fh:
        fh.write("".join([_ROUND_LINE % line
                          for line in zip(*(columns[key] for key in _ROUND_KEYS))]))


# accepts the texts json.loads accepts, but builds no floats: each float's
# text becomes True (bool is the cheapest call, and the value is dropped)
_CHECK_JSON = json.JSONDecoder(parse_float=bool).decode


def read_round_log(path: str) -> list[str]:
    """The non-blank lines of a round log, stripped, each checked to be UTF-8
    and JSON; ``json.loads`` of line t is round t's object."""
    out = []
    with open(path, "rb") as fh:           # decoded line by line, so a bad byte has a line
        for n, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    _CHECK_JSON(line)
                    out.append(line)
            except ValueError as exc:      # malformed JSON or not UTF-8
                raise ConfigurationError(f"bad round log {path}, line {n}: {exc}") from exc
    return out


def _csv_texts(a: np.ndarray) -> list[str]:
    """The CSV cells of each row of a 2-D float array, each float's ``repr``."""
    return _texts(a, template=",".join(["%s"] * np.shape(a)[1]))


def write_vector(path: str, vec: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join([text + "\n" for text in _texts(np.ravel(vec))]))


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
            labels = np.asarray(ds.y, dtype=np.int64).tolist()
            fh.write("".join([f"{ds.client_id},{cells},{label}\n"
                              for cells, label in zip(_csv_texts(ds.x), labels)]))


def _csv_rows(lines):
    """The cells of each non-blank line in ``lines``."""
    return (line.split(",") for line in map(str.strip, lines) if line)


def read_datasets(path: str) -> list[ClientDataset]:
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:  # not UTF-8
            raise ConfigurationError(f"bad datasets file {path}: {exc}") from exc
    header = "".join(lines[:1]).strip().split(",")
    if header[0] != "client_id" or header[-1] != "label":
        raise ConfigurationError(f"bad datasets header in {path}")
    p = len(header) - 2
    rows: dict[int, list[tuple[list[float], int]]] = {}
    for cells in _csv_rows(lines[1:]):
        if len(cells) != p + 2:
            raise ConfigurationError(f"bad datasets row in {path}")
        try:
            cid, point = int(cells[0]), ([float(c) for c in cells[1:-1]], int(cells[-1]))
        except ValueError as exc:          # a non-numeric cell
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
    """``rows`` under the ``results/v1`` header, or with ``append`` after those
    of an existing file, which must start with that header."""
    header = ",".join(TrialRow.FIELDS) + "\n"
    mode = "a" if append and os.path.exists(path) else "w"
    if mode == "a":
        with open(path, "rb") as fh:
            if fh.readline() != header.encode():
                raise ConfigurationError(f"results header mismatch in {path}; not appended")
    with open(path, mode) as fh:
        if mode == "w":
            fh.write(header)
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
        for cells in _csv_rows(fh):
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

    Every iterate's objective is written, so the head's ``"stride"`` is always
    1; it is still written so that ``attacklog/v1`` files stay byte-identical.
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
        for t, f in enumerate(objectives):
            fh.write(canonical_json({"iteration": t, "objective": float(f)}) + "\n")


def write_trajectory(path: str, trace) -> None:
    """A trace's kept trajectory (``attack --dump-trajectory``) as CSV:
    iteration, sample, x0..x{p-1}."""
    m, p = trace.final_x.shape
    rows = _csv_texts(np.reshape(trace.trajectory, (-1, p)))
    with open(path, "w") as fh:
        fh.write("iteration,sample," + ",".join(f"x{i}" for i in range(p)) + "\n")
        fh.write("".join([f"{n // m},{n % m},{cells}\n" for n, cells in enumerate(rows)]))


def write_curves(path: str, summary: dict) -> None:
    """Per-axis-value medians for plotting."""
    with open(path, "w") as fh:
        fh.write("axis,value,median_eps_p,median_privacy_rhs\n")
        for v, med, rhs in zip(summary["values"], summary["median_eps_p"],
                               summary["median_privacy_rhs"]):
            fh.write(f"{summary['axis']},{_cell(float(v))},{_cell(float(med))},"
                     f"{_cell(float(rhs))}\n")
