"""Synthetic call-request workloads: seeded, sorted, replayable.

Arrivals are uniform over a fixed window and positions uniform over the
simulation square. One seed drives two independent RNG substreams (arrival
times, positions) so regenerating with the same params is bit-identical,
and arrivals are the same whether or not positions are drawn.
"""

import hashlib
import math
from dataclasses import dataclass, fields
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
    ids = np.arange(n, dtype=np.int64)
    demand_ms = np.broadcast_to(params.demand_ms, n)
    if not positions:
        # in place: uniform draws hold no -0.0 and no NaN, so this gives the
        # values the stable gather below gives
        arrivals.sort()
        return Workload(ids, arrivals, None, None, demand_ms)
    order = np.argsort(arrivals, kind="stable")
    xy = np.random.default_rng(position_seq).uniform(0.0, topology.area_km, size=(n, 2))
    return Workload(ids, arrivals[order], xy[order, 0], xy[order, 1], demand_ms)


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

    Reads the file once, in blocks of whole lines just over READ_BYTES long,
    and parses each block as it arrives. Rejects, naming the line, a row
    without five fields, a field that does not parse, a call id that is
    duplicate or outside int64, an arrival time that is not finite and
    non-negative and a demand that is not finite and positive.
    """
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        columns = _read_columns(fh, digest)
    if columns is None:
        raise _refusal(path)
    return Workload(*columns), digest.hexdigest()


READ_BYTES = 1 << 16  # file bytes per block, to a whole line: bounds the text and strings held


def _text_blocks(fh, digest):
    """The file's text in blocks of whole lines just over READ_BYTES long,
    hashing its bytes as they are read. Every block but the last ends in a
    b"\\n", which no UTF-8 sequence holds and which ends every line break it
    is part of, so each block decodes and splits into lines as it would
    within the whole text."""
    while lines := fh.readlines(READ_BYTES):
        block = b"".join(lines)
        digest.update(block)
        yield block.decode()


def _read_columns(fh, digest) -> tuple[np.ndarray, ...] | None:
    """The file's five columns, block by block; None if the file does not
    decode, has no header or a row breaks a rule that _refusal checks."""
    id_blocks = [np.zeros(0, dtype=np.int64)]  # so that no rows concatenate to no calls
    value_blocks = [np.zeros((4, 0))]
    header = False
    try:
        for text in _text_blocks(fh, digest):
            rows = [line for line in text.splitlines() if line.strip()]
            if rows and not header:
                if rows.pop(0).strip() != WORKLOAD_HEADER:
                    return None
                header = True
            if rows:
                block = _parse_rows(rows)
                if block is None:
                    return None
                id_blocks.append(block[0])
                value_blocks.append(block[1])
    except UnicodeDecodeError:
        return None
    ids = np.concatenate(id_blocks)
    ordered = np.sort(ids)
    if not header or (ordered[1:] == ordered[:-1]).any():
        return None
    return ids, *np.concatenate(value_blocks, axis=1)


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Rows as their id column and their four float columns, each field
    column parsed in one pass; None if a row breaks a rule that _refusal
    checks on one row."""
    if any(row.count(",") != 4 for row in rows):
        return None
    fields = ",".join(rows).split(",")
    try:
        ids = list(map(int, fields[0::5]))
        del fields[0::5]
        values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    except ValueError:
        return None
    values = values.reshape(-1, 4).T
    arrival_ms, demand_ms = values[0], values[3]
    if not (
        INT64.min <= min(ids) <= max(ids) <= INT64.max
        and ((arrival_ms >= 0) & (arrival_ms < np.inf)).all()
        and (np.isfinite(demand_ms) & (demand_ms > 0)).all()
    ):
        return None
    return np.array(ids, dtype=np.int64), values


def _refusal(path: str | Path) -> Exception:
    """The error for a refused workload file, read again in one piece: its
    decode error, a missing header, or the first row that breaks a rule,
    naming its line, found row by row and rule by rule."""
    try:
        lines = Path(path).read_bytes().decode().splitlines()
    except UnicodeDecodeError as exc:
        return exc
    rows = ((n, line) for n, line in enumerate(lines, start=1) if line.strip())
    if next(rows, (0, ""))[1].strip() != WORKLOAD_HEADER:
        return ValueError(f"{path}: missing workload header '{WORKLOAD_HEADER}'")
    seen = set()
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
        if not 0 <= arrival_ms < math.inf:
            return ValueError(f"{path}:{lineno}: arrival_ms {arrival_ms}, need finite and >= 0")
        if not math.isfinite(demand_ms) or demand_ms <= 0:
            return ValueError(f"{path}:{lineno}: demand_ms {demand_ms}, need finite and > 0")
        seen.add(call_id)
    return RuntimeError(f"{path}: rejected, but no row breaks a rule")
