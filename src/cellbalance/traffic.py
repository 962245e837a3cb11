"""Synthetic call-request workloads: seeded, sorted, replayable.

Arrivals are uniform over a fixed window. One seed drives two independent
RNG substreams: arrival times, and the positions that only a workload file
holds, uniform over a square AREA_KM on a side. Regenerating with the same
params is bit-identical, and a file holds the very calls a run generates.
Every Workload, generated, read from a file or built by hand, holds calls
the engines can run: sorted by arrival, with finite, valid values.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_ARRIVAL_WINDOW_MS = 2000.0
DEFAULT_DEMAND_MS = 0.4
DEFAULT_SEED = 42
AREA_KM = 1.0

WORKLOAD_HEADER = "id,arrival_ms,x_km,y_km,demand_ms"
INT64 = np.iinfo(np.int64)


@dataclass(frozen=True, eq=False)
class Workload:
    """Calls as columns, one row per call, in arrival order: id, arrival
    time and handover work, which is all the engines read. Raises ValueError
    unless arrivals are finite, >= 0 and never decrease and demands are
    finite and > 0, so the engines run any Workload as it is."""

    ids: np.ndarray
    arrival_ms: np.ndarray
    demand_ms: np.ndarray

    def __post_init__(self) -> None:
        arrivals, demands = self.arrival_ms, self.demand_ms
        # min and max carry a NaN through, so it breaks both rules
        low, high = arrivals.min(initial=math.inf), arrivals.max(initial=-math.inf)
        if not (0 <= low and high < math.inf):
            raise ValueError(f"arrival_ms from {low} to {high}, need finite and >= 0")
        low, high = demands.min(initial=math.inf), demands.max(initial=-math.inf)
        if not (0 < low and high < math.inf):
            raise ValueError(f"demand_ms from {low} to {high}, need finite and > 0")
        late = np.flatnonzero(arrivals[1:] < arrivals[:-1])
        if late.size:
            prev, cur = late[0], late[0] + 1
            raise ValueError(
                f"calls not sorted by arrival: call {self.ids[cur]} at "
                f"{arrivals[cur]} ms after call {self.ids[prev]} at {arrivals[prev]} ms"
            )

    def __len__(self) -> int:
        return len(self.ids)


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


def generate_workload(params: WorkloadParams) -> Workload:
    """Draw n_calls requests, sorted by arrival time, ids dense from 0, each
    demanding params.demand_ms (one read-only value for every call).

    Pure function of params.
    """
    n = params.n_calls
    arrivals = _substream(params.seed, 0).uniform(0.0, params.arrival_window_ms, size=n)
    # in place: uniform draws hold no -0.0 and no NaN, so this gives the
    # values the stable gather in _file_columns gives
    arrivals.sort()
    return Workload(np.arange(n, dtype=np.int64), arrivals, np.broadcast_to(params.demand_ms, n))


def _substream(seed: int, concern: int):
    """The generator of one concern, 0 arrivals or 1 positions, of the two
    the seed splits into, so that drawing positions never perturbs arrivals."""
    # mask to 64 bits so negative seeds stay valid SeedSequence entropy
    return np.random.default_rng(np.random.SeedSequence(seed % 2**64).spawn(2)[concern])


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


def format_workload(write, params: WorkloadParams) -> None:
    """Write the calls generate_workload(params) draws, each placed in the
    square, as columnar text, one call per line, floats in full round-trip
    precision, EXPORT_ROWS lines per write: a workload file that
    import_workload reads back bit-identically."""
    columns = _file_columns(params)
    write(WORKLOAD_HEADER + "\n")
    for start in range(0, params.n_calls, EXPORT_ROWS):
        rows = zip(*(column[start:start + EXPORT_ROWS].tolist() for column in columns))
        write("".join(f"{i},{t!r},{x!r},{y!r},{d!r}\n" for i, t, x, y, d in rows))


def _file_columns(params: WorkloadParams) -> tuple[np.ndarray, ...]:
    """The workload file's five columns: generate_workload's calls and their
    positions, drawn from their own substream, in stable arrival order. The
    raw draws and their order are freed on return, before any row is
    written."""
    n = params.n_calls
    arrivals = _substream(params.seed, 0).uniform(0.0, params.arrival_window_ms, size=n)
    order = np.argsort(arrivals, kind="stable")
    xy = _substream(params.seed, 1).uniform(0.0, AREA_KM, size=(n, 2))
    ids, demand_ms = np.arange(n, dtype=np.int64), np.broadcast_to(params.demand_ms, n)
    return ids, arrivals[order], xy[order, 0], xy[order, 1], demand_ms


def import_workload(path: str | Path) -> tuple[Workload, str]:
    """Read a workload file written by format_workload: its calls, in
    arrival order with ties in file order, and the sha256 of its bytes.

    Reads the file once, in blocks of whole lines just over READ_BYTES long,
    and parses each block as it arrives, keeping no position. Rejects,
    naming the line, a row without five fields, a field that does not
    parse, a call id that is duplicate or outside int64, and a row whose
    arrival or demand Workload refuses.
    """
    digest = hashlib.sha256()
    try:
        with Path(path).open("rb") as fh:
            ids, arrival_ms, demand_ms = _read_columns(fh, digest)
        order = np.argsort(arrival_ms, kind="stable")
        calls = Workload(ids[order], arrival_ms[order], demand_ms[order])
    except ValueError:
        raise _refusal(path) from None
    return calls, digest.hexdigest()


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


def _read_columns(fh, digest) -> tuple[np.ndarray, ...]:
    """The file's id, arrival and demand columns, block by block. Raises
    ValueError, which _refusal explains, if the file does not decode, has no
    header or a row breaks a file rule."""
    id_blocks = [np.zeros(0, dtype=np.int64)]  # so that no rows concatenate to no calls
    value_blocks = [np.zeros((2, 0))]
    header = False
    for text in _text_blocks(fh, digest):
        rows = [line for line in text.splitlines() if line.strip()]
        if rows and not header:
            header = rows.pop(0).strip() == WORKLOAD_HEADER
            if not header:
                raise ValueError("no header")
        if rows:
            ids, values = _parse_rows(rows)
            id_blocks.append(ids)
            value_blocks.append(values)
    ids = np.concatenate(id_blocks)
    ordered = np.sort(ids)
    if not header or (ordered[1:] == ordered[:-1]).any():
        raise ValueError("no header or a duplicate call id")
    return ids, *np.concatenate(value_blocks, axis=1)


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Rows as their id column and their arrival and demand columns, each
    field column parsed in one pass and both positions parsed, then
    dropped. Raises ValueError if a row has not five fields, a field does
    not parse or an id is outside int64."""
    if any(row.count(",") != 4 for row in rows):
        raise ValueError("a row without five fields")
    fields = ",".join(rows).split(",")
    ids = list(map(int, fields[0::5]))
    del fields[0::5]
    values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    if not INT64.min <= min(ids) <= max(ids) <= INT64.max:
        raise ValueError("a call id outside int64")
    return np.array(ids, dtype=np.int64), values.reshape(-1, 4).T[[0, 3]]


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
