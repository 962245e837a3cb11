"""Synthetic call-request workloads: seeded, sorted, replayable.

Arrivals are uniform over a fixed window. One seed drives two independent
PCG64 streams, drawn by _uniform: arrival times, and the positions that only
a workload file holds, uniform over a square AREA_KM on a side. Regenerating
with the same params is bit-identical; a file holds generate_workload's calls.
Every Workload, generated, read from a file or built by hand, holds calls
the engines can run: sorted by arrival, with finite, valid values.
"""

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .topology import WorkloadParams

AREA_KM = 1.0

WORKLOAD_HEADER = "id,arrival_ms,x_km,y_km,demand_ms"
INT64 = np.iinfo(np.int64)
CHUNK = 4096  # per-call items a loop converts or renders at once: bounds what it holds


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
        arrivals = self.arrival_ms
        _check_values(arrivals, self.demand_ms)
        late = np.flatnonzero(arrivals[1:] < arrivals[:-1])
        if late.size:
            prev, cur = late[0], late[0] + 1
            raise ValueError(
                f"calls not sorted by arrival: call {self.ids[cur]} at "
                f"{arrivals[cur]} ms after call {self.ids[prev]} at {arrivals[prev]} ms"
            )

    def __len__(self) -> int:
        return len(self.ids)


def _check_values(arrival_ms: np.ndarray, demand_ms: np.ndarray) -> None:
    """Raise ValueError unless arrivals are finite and >= 0 and demands are
    finite and > 0, naming a column's one value or else its range: the rule
    of a Workload, a workload file's block and each row of a refused block."""
    for name, values, least, need in (
        ("arrival_ms", arrival_ms, 0.0, "need finite and >= 0"),
        ("demand_ms", demand_ms, math.ulp(0.0), "need finite and > 0"),  # the least float > 0
    ):
        if not len(values):  # min and max need an initial value then, and inf is no int
            continue
        # min and max carry a NaN through, so it breaks both rules
        low, high = values.min(), values.max()
        if not (least <= low and high < math.inf):
            held = low if len(values) == 1 else f"from {low} to {high}"
            raise ValueError(f"{name} {held}, {need}")


def generate_workload(params: WorkloadParams) -> Workload:
    """Draw n_calls requests, sorted by arrival time, ids dense from 0, each
    demanding params.demand_ms as a float (one read-only value for every
    call), so an int demand draws the calls its float does.

    Pure function of params.
    """
    n = params.n_calls
    arrivals = _uniform(params.seed, 0, params.arrival_window_ms, n)
    arrivals.sort()
    demand = np.broadcast_to(float(params.demand_ms), n)
    return Workload(np.arange(n, dtype=np.int64), arrivals, demand)


def _uniform(seed: int, concern: int, high: float, n: int) -> np.ndarray:
    """n floats uniform over [0, high) from one concern, 0 arrivals or 1
    positions, of the two streams the seed splits into, so that drawing
    positions never perturbs arrivals. Each is high times the top 53 bits
    of one of PCG64's raw words as a fraction of 2**53, converted CHUNK
    words at a time. numpy keeps that bit stream across releases (NEP 19),
    not its uniform method, which draws these same floats today."""
    # mask to 64 bits so negative seeds stay valid SeedSequence entropy
    bits = np.random.PCG64(np.random.SeedSequence(seed % 2**64).spawn(2)[concern])
    draws = np.empty(n)
    for begin in range(0, n, CHUNK):
        chunk = draws[begin:begin + CHUNK]
        np.multiply(bits.random_raw(len(chunk)) >> 11, 2**-53, out=chunk)
        chunk *= high
    return draws


def running_sum(values, start: float = 0.0) -> float:
    """start + values[0] + values[1] + ..., added left to right as a loop
    adds them, CHUNK values at a time.

    np.sum adds pairwise and sum() compensates on Python 3.12+, so either
    would round differently and make reports depend on the versions used.
    """
    values = np.asarray(values, dtype=float)
    total = float(start)
    for begin in range(0, len(values), CHUNK):
        total = float(np.cumsum(np.concatenate(([total], values[begin:begin + CHUNK])))[-1])
    return total


def format_workload(write, columns: tuple[np.ndarray, ...]) -> None:
    """Write the five columns workload_columns draws as columnar text, one
    call per line, floats in full round-trip precision, CHUNK lines per
    write: a workload file that import_workload reads back bit-identically."""
    write(WORKLOAD_HEADER + "\n")
    for start in range(0, len(columns[0]), CHUNK):
        rows = zip(*(column[start:start + CHUNK].tolist() for column in columns))
        write("".join(f"{i},{t!r},{x!r},{y!r},{d!r}\n" for i, t, x, y, d in rows))


def workload_columns(params: WorkloadParams) -> tuple[np.ndarray, ...]:
    """The workload file's five columns: generate_workload's calls and their
    positions in the square, drawn from their own stream and put in the
    stable order of the unsorted arrival draw. The raw draws and the order
    are freed on return, before any row is written."""
    calls, n = generate_workload(params), params.n_calls
    order = np.argsort(_uniform(params.seed, 0, params.arrival_window_ms, n), kind="stable")
    x_km, y_km = _uniform(params.seed, 1, AREA_KM, 2 * n).reshape(n, 2)[order].T
    return calls.ids, calls.arrival_ms, x_km, y_km, calls.demand_ms


def import_workload(path: str | Path) -> tuple[Workload, str]:
    """Read a workload file written by format_workload: its calls, in
    arrival order with ties in file order, and the sha256 of its bytes.

    Reads the file once, forward, in blocks of whole lines just over
    READ_BYTES long, and parses each block as it arrives, so a pipe such as
    /dev/stdin reads as a file does. The same pass numbers the lines and
    finds a refused file's fault, and the first of these wins: a decode
    error anywhere, at its byte in the file; a missing header; the first
    row, naming its line, that breaks _parse_rows's rules, repeats an
    earlier call id or breaks _check_values's, Workload's own. Each block
    is checked whole, and a refused one again row by row.
    """
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        ids, arrival_ms, demand_ms = _read_columns(fh, digest, path)
    # gen writes arrival order, so its files skip the sort and its gathered copies
    if (arrival_ms[1:] < arrival_ms[:-1]).any():
        order = np.argsort(arrival_ms, kind="stable")
        ids, arrival_ms, demand_ms = ids[order], arrival_ms[order], demand_ms[order]
    return Workload(ids, arrival_ms, demand_ms), digest.hexdigest()


READ_BYTES = 1 << 16  # file bytes per block, to a whole line: bounds the text and strings held


def _text_blocks(fh, digest):
    """The file's text in blocks of whole lines just over READ_BYTES long,
    hashing its bytes as they are read. Every block but the last ends in a
    b"\\n", which no UTF-8 sequence holds and which ends every line break it
    is part of, so each block decodes and splits into lines as it would
    within the whole text. A block that does not decode raises its error
    with the message the whole text's error has, naming the bad byte and
    its position in the file."""
    offset = 0
    while lines := fh.readlines(READ_BYTES):
        block = b"".join(lines)
        digest.update(block)
        try:
            text = block.decode()
        except UnicodeDecodeError as exc:
            raise _FileDecodeError(offset, *exc.args) from None
        offset += len(block)
        yield text


class _FileDecodeError(UnicodeDecodeError):
    """A block's decode error, `offset` bytes into the file, whose message
    is the one CPython gives the whole file's error: its object is the
    block, not the bytes before it too."""

    def __init__(self, offset: int, *args) -> None:
        super().__init__(*args)
        self.offset = offset

    def __str__(self) -> str:
        start, end = self.offset + self.start, self.offset + self.end
        if self.end == self.start + 1:
            bad = f"byte 0x{self.object[self.start]:02x} in position {start}"
        else:
            bad = f"bytes in position {start}-{end - 1}"
        return f"'{self.encoding}' codec can't decode {bad}: {self.reason}"


def _read_columns(fh, digest, path) -> tuple[np.ndarray, ...]:
    """The file's id, arrival and demand columns, block by block, or
    ValueError naming the fault import_workload names; _first_fault walks
    a refused block. Once a fault is found, the blocks left are only
    decoded and hashed, so that a decode error anywhere still wins."""
    id_blocks = [np.zeros(0, dtype=np.int64)]  # so that no rows concatenate to no calls
    value_blocks = [np.zeros((2, 0))]
    line_blocks = []  # the file line of each data row, block by block
    lineno = 0  # lines before the block, ended as str.splitlines ends them, at \x0b too
    header = None  # whether the first line that is not blank is the header, once read
    fault = None  # (data row, rule it breaks) of the first row a block refuses
    for text in _text_blocks(fh, digest):
        if fault or header is False:
            continue
        lines = text.splitlines()
        rows = [line for line in lines if line.strip()]
        at = (range(lineno + 1, lineno + len(lines) + 1) if len(rows) == len(lines)
              else [n for n, line in enumerate(lines, lineno + 1) if line.strip()])
        lineno += len(lines)
        if rows and header is None:
            header = rows.pop(0).strip() == WORKLOAD_HEADER
            at = at[1:]
        if rows and header:
            line_blocks.append(at)
            try:
                ids, values = _parse_rows(rows)
                _check_values(*values)
            except ValueError:
                row, ids, rule = _first_fault(rows)
                fault = sum(map(len, id_blocks)) + row, rule
                ids = np.array(ids, dtype=np.int64)
            else:
                value_blocks.append(values)
            id_blocks.append(ids)
    if not header:
        raise ValueError(f"{path}: missing workload header '{WORKLOAD_HEADER}'")
    ids = np.concatenate(id_blocks)
    ordered = np.sort(ids)
    if (ordered[1:] == ordered[:-1]).any():
        # a stable sort keeps the copies of an id in file order, so each but
        # the first follows an equal id; the ids stop at the refused row, so
        # a repeat is at or before it, and wins
        order = np.argsort(ids, kind="stable")
        row = order[1:][ids[order[1:]] == ids[order[:-1]]].min()
        fault = row, f"duplicate call id {ids[row]}"
    if fault:
        row, rule = fault
        for at in line_blocks:
            if row < len(at):
                break
            row -= len(at)
        raise ValueError(f"{path}:{at[row]}: {rule}")
    return ids, *np.concatenate(value_blocks, axis=1)


def _parse_rows(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Rows as their id column and their arrival and demand columns, each
    field column parsed in one pass and both positions parsed, then
    dropped. Raises ValueError if a row has not five fields, a field does
    not parse or an id does not fit int64, naming the rule a row breaks,
    so that given one row it names that row's fault."""
    for row in rows:
        if row.count(",") != 4:
            raise ValueError(f"expected 5 fields, got {row.count(',') + 1}")
    fields = ",".join(rows).split(",")
    ids = list(map(int, fields[0::5]))
    del fields[0::5]
    values = np.fromiter(map(float, fields), dtype=float, count=len(fields))
    low, high = min(ids), max(ids)
    if not INT64.min <= low <= high <= INT64.max:
        raise ValueError(f"call id {low if low < INT64.min else high} is outside int64")
    return np.array(ids, dtype=np.int64), values.reshape(-1, 4).T[[0, 3]]


def _first_fault(rows: list[str]) -> tuple[int, list[int], str]:
    """The first of `rows` to break a file rule: its index, the ids up to
    it that the duplicate rule checks, and the rule it breaks: _parse_rows's
    on the row alone, then _check_values's. A row's id joins the ids once
    it parses and fits int64, so a repeat wins over its arrival or demand."""
    ids = []
    for row, line in enumerate(rows):
        try:
            (call_id,), values = _parse_rows([line])
            ids.append(call_id)
            _check_values(*values)
        except ValueError as exc:
            return row, ids, str(exc)
    raise RuntimeError("a block of the workload file was refused, but no row of it breaks a rule")
