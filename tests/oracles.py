"""Independent reference implementations the test suite checks the package
against. Nothing here imports engine internals: the walker reimplements the
admission flow as a literal step-by-step state machine, the Erlang
reference evaluates the blocking formula by exact rational summation, and
the workload reader and report writers work one row or record at a time.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from cellbalance.traffic import WORKLOAD_HEADER, Workload


def erlang_b_direct(erlangs: float, n_channels: int) -> float:
    """Blocking probability by direct summation, exact until the final division.

    P = (A^N / N!) / sum_{i=0..N} A^i / i!, evaluated in Fraction arithmetic.
    """
    a = Fraction(erlangs)
    term = Fraction(1)  # A^i / i! at i = 0
    total = Fraction(1)
    for i in range(1, n_channels + 1):
        term = term * a / i
        total += term
    return float(term / total)


ACCEPTED = "accepted_home"
HANDED = "handed_over"
BLOCKED = "blocked"


def outcome_of(serving_bsc: int) -> tuple[str, int | None]:
    """A report's serving-BSC code as (disposition, serving BSC): -1 is a
    blocked call, which has no serving BSC, 0 the home BSC and any other
    code a neighbor."""
    if serving_bsc == -1:
        return BLOCKED, None
    return (ACCEPTED if serving_bsc == 0 else HANDED), serving_bsc


def report_calls(report):
    """(call id, disposition, serving BSC, execution time, slices) per call,
    read from a report's columns."""
    columns = (report.call_ids, report.serving_bscs, report.execution_times_ms, report.slices)
    for call_id, bsc, time_ms, k in zip(*(column.tolist() for column in columns)):
        yield (call_id, *outcome_of(bsc), time_ms, k)


def report_outcomes(report) -> dict:
    """{call_id: (disposition, serving BSC, slices)} of a report, in the
    form walk_flowchart returns."""
    return {call_id: (disp, bsc, k) for call_id, disp, bsc, _, k in report_calls(report)}


def walk_flowchart(home_free, neighbor_free, calls, quantum):
    """Literal walk of the admission flow, one state transition at a time.

    calls: (call_id, demand_ms) pairs in arrival order.
    Returns ({call_id: (outcome, serving_bsc, slices)}, handover_order):
    serving_bsc is the 1-based neighbor BSC id (home is 0), None when
    blocked, and slices the number of service passes a handed-over call
    consumed (0 otherwise); handover_order lists the handed-over call ids
    in the order their service completed.
    """
    outcome = {}
    handover_order = []
    home = home_free
    neighbors = list(neighbor_free)

    # incoming requests: take a home channel while any remains
    waiting = []
    for call_id, demand in calls:
        if home > 0:
            home -= 1
            outcome[call_id] = (ACCEPTED, 0, 0)
        else:
            waiting.append((call_id, demand))
    if not waiting:
        return outcome, handover_order

    # overloaded: queue the rest and serve quantum by quantum
    queue = list(waiting)
    passes = {call_id: 0 for call_id, _ in waiting}
    rotation = 0
    while queue:
        call_id, remaining = queue.pop(0)
        remaining -= quantum
        passes[call_id] += 1
        if remaining > 0:
            # process not over: rearrange to the end of the queue
            queue.append((call_id, remaining))
            continue
        # process over: ask the neighbors for a channel, rotation order
        chosen = None
        for step in range(len(neighbors)):
            candidate = (rotation + step) % len(neighbors)
            if neighbors[candidate] > 0:
                chosen = candidate
                break
        if chosen is None:
            outcome[call_id] = (BLOCKED, None, 0)
        else:
            neighbors[chosen] -= 1
            rotation = (chosen + 1) % len(neighbors)
            outcome[call_id] = (HANDED, chosen + 1, passes[call_id])
            handover_order.append(call_id)
        # any channel left for the calls still waiting?
        if sum(neighbors) == 0:
            for queued_id, _ in queue:
                outcome[queued_id] = (BLOCKED, None, 0)
            queue.clear()
    return outcome, handover_order


# demand multipliers relative to the quantum; quarter steps stay exact in
# binary floating point, so walker subtraction and engine subtraction agree
DEMAND_MULTIPLIERS = (0.5, 1.0, 1.5, 2.5, 0.25, 3.0, 1.75)


def oracle_instances():
    """Fixed exhaustive generator of small admission instances.

    Covers every topology with 2 or 3 BSCs and 0..4 channels per BSC,
    crossed with call counts 0..12: 1950 instances. Demands cycle through
    quarter-of-quantum multipliers against a quantum of 1.0 ms; arrival
    times are the integers 1..n.
    """
    channel_tuples = []
    for home in range(5):
        for n1 in range(5):
            channel_tuples.append((home, n1))
            for n2 in range(5):
                channel_tuples.append((home, n1, n2))
    quantum = 1.0
    for channels in channel_tuples:
        for n in range(13):
            calls = [
                (i, DEMAND_MULTIPLIERS[i % len(DEMAND_MULTIPLIERS)] * quantum)
                for i in range(n)
            ]
            yield channels, calls, quantum


def slices_to_finish_loop(demand_ms: float, quantum_ms: float) -> int:
    """Round-robin passes to finish a demand, one subtraction per pass, as
    engine.slices_to_finish counted them before it skipped whole runs of
    equal steps; the same ValueError for a pass that leaves the demand
    unchanged."""
    slices = 0
    remaining = demand_ms
    while remaining > 0:
        if remaining - quantum_ms == remaining:
            raise ValueError("the call would never finish")
        remaining -= quantum_ms
        slices += 1
    return slices


# The report writers as they were before `--full` and CSV were streamed from
# the per-call columns: one dict per call, then json.dumps(indent=2), and one
# f-string per call for CSV. The streamed writers must produce the same bytes.


def report_document_oracle(report, params: dict, full: bool) -> dict:
    doc = {
        "system": report.system,
        "params": params,
        "counts": {
            "accepted_home": report.accepted_home,
            "handed_over": report.handed_over,
            "blocked": report.blocked,
        },
        "per_bsc_handled": {str(b): n for b, n in sorted(report.per_bsc_handled.items())},
        "total_execution_time_ms": report.total_execution_time_ms,
        "empirical_blocking": report.empirical_blocking,
    }
    if full:
        doc["records"] = [
            {
                "call_id": call_id,
                "disposition": disposition,
                "serving_bsc": bsc,
                "execution_time_ms": time_ms,
                "slices_used": k,
            }
            for call_id, disposition, bsc, time_ms, k in report_calls(report)
        ]
    return doc


def comparison_document_oracle(comparison, params: dict, full: bool) -> dict:
    return {
        "normal": report_document_oracle(comparison.normal, params, full),
        "load_balanced": report_document_oracle(comparison.load_balanced, params, full),
        "deltas": {
            "blocking_delta_pp": comparison.blocking_delta_pp,
            "execution_time_delta_ms": comparison.execution_time_delta_ms,
        },
    }


def records_csv_oracle(report) -> str:
    lines = ["call_id,disposition,serving_bsc,execution_time_ms,slices_used"]
    for call_id, disposition, bsc, time_ms, k in report_calls(report):
        lines.append(f"{call_id},{disposition},{'' if bsc is None else bsc},{time_ms!r},{k}")
    return "\n".join(lines) + "\n"


def import_workload_oracle(path):
    """A workload file read row by row, as import_workload read it before
    it parsed whole columns, naming the file line of the first bad row."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines or lines[0][1].strip() != WORKLOAD_HEADER:
        raise ValueError(f"{path}: missing workload header '{WORKLOAD_HEADER}'")
    ids, values, seen = [], [], set()
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        try:
            call_id = int(parts[0])
            row = tuple(float(part) for part in parts[1:])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        arrival_ms, _, _, demand_ms = row
        if call_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate call id {call_id}")
        if not -(2**63) <= call_id < 2**63:
            raise ValueError(f"{path}:{lineno}: call id {call_id} is outside int64")
        if not 0 <= arrival_ms < math.inf:
            raise ValueError(f"{path}:{lineno}: arrival_ms {arrival_ms}, need finite and >= 0")
        if not math.isfinite(demand_ms) or demand_ms <= 0:
            raise ValueError(f"{path}:{lineno}: demand_ms {demand_ms}, need finite and > 0")
        seen.add(call_id)
        ids.append(call_id)
        values.append(row)
    columns = np.array(values, dtype=float).reshape(-1, 4).T.copy()
    return Workload(np.array(ids, dtype=np.int64), *columns)
