"""Synthetic call-request workloads: seeded, sorted, replayable.

Arrivals are uniform over a fixed window and positions uniform over the
simulation square. One seed drives two independent RNG substreams (arrival
times, positions) so regenerating with the same params is bit-identical,
and arrivals are the same whether or not positions are drawn.
"""

import hashlib
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .topology import NetworkTopology

DEFAULT_ARRIVAL_WINDOW_MS = 2000.0
DEFAULT_DEMAND_MS = 0.4
DEFAULT_SEED = 42

WORKLOAD_HEADER = "id,arrival_ms,x_km,y_km,demand_ms"
INT64 = np.iinfo(np.int64)


@dataclass(frozen=True, eq=False)
class Workload:
    """Calls as columns, one row per call, in the workload file's order:
    id, arrival time, position and handover work. The engines never read a
    position, so x_km and y_km are None unless the calls are to be written
    to a workload file."""

    ids: np.ndarray
    arrival_ms: np.ndarray
    x_km: np.ndarray | None
    y_km: np.ndarray | None
    demand_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def sorted_by_arrival(self) -> "Workload":
        """The same calls by arrival time; calls arriving together keep
        their order."""
        order = np.argsort(self.arrival_ms, kind="stable")
        columns = (getattr(self, f.name) for f in fields(self))
        return Workload(*(None if column is None else column[order] for column in columns))


@dataclass(frozen=True)
class WorkloadParams:
    n_calls: int
    seed: int = DEFAULT_SEED
    arrival_window_ms: float = DEFAULT_ARRIVAL_WINDOW_MS
    demand_ms: float = DEFAULT_DEMAND_MS

    def __post_init__(self) -> None:
        if self.n_calls < 0:
            raise ValueError(f"n_calls = {self.n_calls}, need >= 0")
        if not 0 < self.arrival_window_ms < math.inf:
            raise ValueError(
                f"arrival_window_ms = {self.arrival_window_ms}, need finite and > 0"
            )
        if not 0 < self.demand_ms < math.inf:
            raise ValueError(f"demand_ms = {self.demand_ms}, need finite and > 0")


def generate_workload(
    params: WorkloadParams, topology: NetworkTopology, positions: bool = False
) -> Workload:
    """Draw n_calls requests, sorted by arrival time, ids dense from 0, each
    demanding params.demand_ms (one read-only value for every call).
    Positions are drawn only if asked for; otherwise x_km and y_km are None.

    Pure function of (params, topology): the seed is split into one
    substream per concern, so arrival draws never perturb position draws.
    """
    n = params.n_calls
    # mask to 64 bits so negative seeds stay valid SeedSequence entropy
    arrival_seq, position_seq = np.random.SeedSequence(params.seed % 2**64).spawn(2)
    arrivals = np.random.default_rng(arrival_seq).uniform(
        0.0, params.arrival_window_ms, size=n
    )
    order = np.argsort(arrivals, kind="stable")
    calls = Workload(
        ids=np.arange(n, dtype=np.int64),
        arrival_ms=arrivals[order],
        x_km=None,
        y_km=None,
        demand_ms=np.broadcast_to(params.demand_ms, n),
    )
    if not positions:
        return calls
    xy = np.random.default_rng(position_seq).uniform(0.0, topology.area_km, size=(n, 2))
    return replace(calls, x_km=xy[order, 0], y_km=xy[order, 1])


SUM_CHUNK = 16384  # values accumulated at once: bounds the copy running_sum makes


def running_sum(values, start: float = 0.0) -> float:
    """start + values[0] + values[1] + ..., added left to right as a loop
    adds them, SUM_CHUNK values at a time.

    np.sum adds pairwise and sum() compensates on Python 3.12+, so either
    would round differently and make reports depend on the versions used.
    """
    values = np.asarray(values, dtype=float)
    total = float(start)
    for begin in range(0, len(values), SUM_CHUNK):
        total = float(np.cumsum(np.concatenate(([total], values[begin:begin + SUM_CHUNK])))[-1])
    return total


def average_arrival_range(arrival_ms: np.ndarray) -> float:
    """Arithmetic mean of the arrival timestamps, in ms.

    This is the numerator of the quantum-time formula.
    """
    if not len(arrival_ms):
        raise ValueError("average arrival range undefined on empty workload")
    return running_sum(arrival_ms) / len(arrival_ms)


EXPORT_ROWS = 8192  # rows formatted per write: bounds the text held at once


def format_workload(write, calls: Workload) -> None:
    """Write the calls as columnar text, one call per line, floats in full
    round-trip precision, EXPORT_ROWS lines per write: a workload file that
    import_workload reads back bit-identically."""
    if calls.x_km is None or calls.y_km is None:
        raise ValueError("a workload file holds positions: generate the calls with positions=True")
    write(WORKLOAD_HEADER + "\n")
    columns = [getattr(calls, f.name) for f in fields(calls)]
    for start in range(0, len(calls), EXPORT_ROWS):
        rows = zip(*(column[start:start + EXPORT_ROWS].tolist() for column in columns))
        write("".join(f"{i},{t!r},{x!r},{y!r},{d!r}\n" for i, t, x, y, d in rows))


def import_workload(path: str | Path) -> tuple[Workload, str]:
    """Read a workload file written by format_workload: its calls, in file
    order, and the sha256 of its bytes.

    Rejects, naming the line, a row without five fields, a field that does
    not parse, a call id that is duplicate or outside int64, a non-finite
    arrival time and a demand that is not finite and positive.
    """
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    lines = data.decode().splitlines()
    del data  # freed before parsing: the lines hold the same text
    rows = [line for line in lines if line.strip()]
    if not rows or rows[0].strip() != WORKLOAD_HEADER:
        raise ValueError(f"{path}: missing workload header '{WORKLOAD_HEADER}'")
    columns = _parse_columns(rows[1:])
    if columns is None:
        raise _first_bad_row(path, lines)
    return Workload(*columns), digest


PARSE_ROWS = 8192  # rows split into fields at once: bounds the strings held


def _parse_columns(rows: list[str]) -> tuple[np.ndarray, ...] | None:
    """The five columns of well-formed rows, each field column parsed in one
    pass per block of PARSE_ROWS rows; None if any row breaks a rule that
    _first_bad_row checks."""
    if any(row.count(",") != 4 for row in rows):
        return None
    ids: list[int] = []
    values = [np.zeros(0)]  # so that no rows concatenate to no values
    try:
        for start in range(0, len(rows), PARSE_ROWS):
            fields = ",".join(rows[start:start + PARSE_ROWS]).split(",")
            ids.extend(map(int, fields[0::5]))
            del fields[0::5]
            values.append(np.fromiter(map(float, fields), dtype=float, count=len(fields)))
    except ValueError:
        return None
    arrival_ms, x_km, y_km, demand_ms = np.concatenate(values).reshape(-1, 4).T.copy()
    if ids and not INT64.min <= min(ids) <= max(ids) <= INT64.max:
        return None
    if len(set(ids)) != len(ids) or not (
        np.isfinite(arrival_ms).all() and (np.isfinite(demand_ms) & (demand_ms > 0)).all()
    ):
        return None
    return np.array(ids, dtype=np.int64), arrival_ms, x_km, y_km, demand_ms


def _first_bad_row(path: str | Path, lines: list[str]) -> ValueError:
    """The error for the first row of a workload file that breaks a rule,
    naming its line: row by row, rule by rule."""
    seen = set()
    rows = ((n, line) for n, line in enumerate(lines, start=1) if line.strip())
    next(rows)  # the header
    for lineno, line in rows:
        parts = line.split(",")
        if len(parts) != 5:
            return ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            call_id = int(parts[0])
            arrival_ms, _, _, demand_ms = (float(part) for part in parts[1:])
        except ValueError as exc:
            return ValueError(f"{path}:{lineno}: {exc}")
        if call_id in seen:
            return ValueError(f"{path}:{lineno}: duplicate call id {call_id}")
        if not INT64.min <= call_id <= INT64.max:
            return ValueError(f"{path}:{lineno}: call id {call_id} is outside int64")
        if not math.isfinite(arrival_ms):
            return ValueError(f"{path}:{lineno}: arrival_ms {arrival_ms} is not finite")
        if not math.isfinite(demand_ms) or demand_ms <= 0:
            return ValueError(f"{path}:{lineno}: demand_ms {demand_ms}, need finite and > 0")
        seen.add(call_id)
    raise RuntimeError(f"{path}: rejected, but no row breaks a rule")
