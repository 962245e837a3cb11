"""The documents a run writes: the JSON report and comparison, the
per-call record CSV, the comparison CSV and the console block. The
`--full` JSON and the record CSV are rendered from a report's columns a
chunk at a time, as they are written."""

import json

import numpy as np

from .engine import NO_BSC, NORMAL, ComparisonReport, LbParams, SimulationReport, disposition
from .topology import CELLS_PER_BSC, HOME_BSC
from .traffic import AREA_KM, CHUNK


def report_params(lb_params: LbParams, report: SimulationReport, source: dict) -> dict:
    """The run's parameters: n_calls counts the calls simulated, and
    `source` says where they came from, which a replayed workload file sets,
    not the config."""
    return {
        "bsc_channels": list(report.bsc_channels),
        "cells_per_bsc": CELLS_PER_BSC,
        "area_km": AREA_KM,
        "n_calls": len(report.call_ids),
        **source,
        "context_switch_ms": lb_params.context_switch_ms,
        "waiting_ms": lb_params.waiting_ms,
        "quantum_ms": report.quantum_ms,
    }


def report_document(report: SimulationReport, params: dict, full: bool = False) -> dict:
    """The report's summary. With `full`, its last key, "records", holds the
    report itself, which write_json renders as the per-call records."""
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
        doc["records"] = report
    return doc


def comparison_document(comparison: ComparisonReport, params: dict, full: bool) -> dict:
    return {
        "normal": report_document(comparison.normal, params, full),
        "load_balanced": report_document(comparison.load_balanced, params, full),
        "deltas": {
            "blocking_delta_pp": comparison.blocking_delta_pp,
            "execution_time_delta_ms": comparison.execution_time_delta_ms,
        },
    }


RECORDS_MARKER = "\0records"  # json.dumps's stand-in for a report: no document holds it


def write_json(write, doc: dict) -> None:
    """Write json.dumps(doc, indent=2) and a newline. A SimulationReport in
    `doc` stands for its per-call records array, rendered from the report's
    columns where json.dumps put its marker, indented as the line that holds
    the marker."""
    reports = []

    def marked(value) -> str:
        if not isinstance(value, SimulationReport):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        reports.append(value)
        return RECORDS_MARKER

    *pieces, last = json.dumps(doc, indent=2, default=marked).split(json.dumps(RECORDS_MARKER))
    for piece, report in zip(pieces, reports):
        write(piece)
        line = piece[piece.rfind("\n") + 1:]
        _write_json_records(write, report, "\n" + " " * (len(line) - len(line.lstrip(" "))))
    write(last + "\n")


def _record_chunks(report: SimulationReport, outcome, record: str, separator: str):
    """The per-call records, CHUNK calls at a time, each chunk one string:
    `record` % (call id, outcome, execution time, slices) for each call,
    joined by `separator`. A call's outcome is its disposition and serving
    BSC fields, `outcome(disposition, serving BSC or None)`, rendered once
    per serving BSC; its time is the float's repr."""
    outcomes = {
        bsc: outcome(disposition(bsc), None if bsc == NO_BSC else bsc)
        for bsc in range(NO_BSC, len(report.bsc_channels))
    }
    for start in range(0, len(report.call_ids), CHUNK):
        part = slice(start, start + CHUNK)
        yield separator.join(map(record.__mod__, zip(
            report.call_ids[part].tolist(),
            map(outcomes.__getitem__, report.serving_bscs[part].tolist()),
            _rendered_times(report.execution_times_ms[part]),
            report.slices[part].tolist(),
        )))


def _rendered_times(times: np.ndarray) -> list:
    """The times for a %s field: when fewer than half are distinct, each
    distinct one's repr, rendered once; else the floats, whose str is their
    repr. Distinct by bit pattern, since np.unique on floats merges -0.0
    with 0.0."""
    bits, inverse = np.unique(times.view(np.int64), return_inverse=True)
    if 2 * len(bits) >= len(times):
        return times.tolist()
    rendered = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(rendered.__getitem__, inverse.tolist()))


def _write_json_records(write, report: SimulationReport, pad: str) -> None:
    def outcome(disposition: str, bsc: int | None) -> str:
        return f'"{disposition}",{pad}    "serving_bsc": {"null" if bsc is None else bsc}'

    # a float's str is its repr, as json writes a finite one
    record = (
        f'{pad}  {{{pad}    "call_id": %d,{pad}    "disposition": %s,'
        f'{pad}    "execution_time_ms": %s,{pad}    "slices_used": %d{pad}  }}'
    )
    opening = "["
    for chunk in _record_chunks(report, outcome, record, ","):
        write(opening)  # on its own: prepended, it would copy the chunk's text
        write(chunk)
        opening = ","
    write("[]" if opening == "[" else pad + "]")


def write_records_csv(write, report: SimulationReport) -> None:
    def outcome(disposition: str, bsc: int | None) -> str:
        return f"{disposition},{'' if bsc is None else bsc}"

    write("call_id,disposition,serving_bsc,execution_time_ms,slices_used\n")
    for chunk in _record_chunks(report, outcome, "%d,%s,%s,%d\n", ""):
        write(chunk)


def comparison_csv(comparison: ComparisonReport) -> str:
    lines = ["system,accepted_home,handed_over,blocked,total_execution_time_ms,empirical_blocking"]
    for report in (comparison.normal, comparison.load_balanced):
        lines.append(
            f"{report.system},{report.accepted_home},{report.handed_over},{report.blocked},"
            f"{report.total_execution_time_ms!r},{report.empirical_blocking!r}"
        )
    return "\n".join(lines) + "\n"


def console_block(report: SimulationReport) -> str:
    """Human-readable run summary: home pool, overload notice, tallies."""
    total = len(report.call_ids)
    overflow = total - report.accepted_home
    pools = report.bsc_channels
    neighbors = range(HOME_BSC + 1, len(pools))
    lines = [
        f"system have {CELLS_PER_BSC} cell per BSC",
        f"channel free BSC1 = {pools[HOME_BSC]}",
        f"number of call request = {total}",
    ]
    if overflow > 0:
        lines.append("BSC1 overloaded")
    if report.system == NORMAL:
        lines.append(f"Number of Blocked calls = {report.blocked}")
    else:
        lines.append(f"Number of Handover calls = {report.handed_over}")
        for bsc in neighbors:
            lines.append(f"channel free BSC{bsc + 1} = {pools[bsc]}")
        for bsc in neighbors:
            lines.append(f"BSC{bsc + 1} Handeled = {report.per_bsc_handled[bsc]}")
        if report.blocked > 0:
            lines.append(f"Number of Blocked calls = {report.blocked}")
    return "\n".join(lines)
