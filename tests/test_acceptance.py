"""Acceptance gate: nine go/no-go checks over the whole package.

Each check prints one `[acceptance] criterion N (...): PASS|FAIL` line;
run with `pytest tests/test_acceptance.py -v -s` to see them live, or
execute this file directly for a plain-script report.
"""

import random
import sys

from helpers import same_workload, workload_of
from oracles import erlang_b_direct, oracle_instances, report_outcomes, walk_flowchart

from cellbalance.engine import (
    LbParams,
    compute_quantum,
    simulate_load_balanced,
    simulate_normal,
    slice_execution_time,
)
from cellbalance.teletraffic import OfferedLoad, blocking_sweep, erlang_b
from cellbalance.topology import NetworkTopology
from cellbalance.traffic import WorkloadParams, generate_workload

DEFAULT_TOPO = NetworkTopology()


def check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status}")
    assert ok, f"criterion {num} ({label}): {detail}"


def default_run(n=900, seed=42):
    calls = generate_workload(WorkloadParams(n_calls=n, seed=seed))
    return calls, simulate_load_balanced(DEFAULT_TOPO, calls)


def test_criterion_1_handover_count_exact():
    _, report = default_run()
    check(
        1,
        "900 calls vs 313 home channels yield exactly 587 handovers",
        report.handed_over == 587 and report.blocked == 0,
        f"handed_over={report.handed_over}, blocked={report.blocked}",
    )


def test_criterion_2_quantum_arithmetic():
    q = compute_quantum(251.1959, 517.9749)
    check(
        2,
        "reference quantum division rounds to 0.4850",
        abs(round(q, 4) - 0.4850) <= 5e-5,
        f"quantum={q!r}",
    )


def test_criterion_3_slice_cost_exact():
    cost = slice_execution_time(0.4850, 0.1)
    check(3, "slice cost 0.4850 + 0.1 = 0.5850 exactly", cost == 0.5850, f"cost={cost!r}")


def test_criterion_4_execution_time_ordering_100_seeds():
    worst_ratio = float("inf")
    ok = True
    for seed in range(100):
        calls = generate_workload(WorkloadParams(n_calls=900, seed=seed))
        ns = simulate_normal(DEFAULT_TOPO, calls)
        lb = simulate_load_balanced(DEFAULT_TOPO, calls)
        if not lb.total_execution_time_ms < ns.total_execution_time_ms:
            ok = False
            break
        ratio = ns.total_execution_time_ms / lb.total_execution_time_ms
        worst_ratio = min(worst_ratio, ratio)
    ok = ok and worst_ratio > 3.0
    check(
        4,
        "LB beats NS total execution time on all 100 seeds, ratio > 3x",
        ok,
        f"worst NS/LB ratio={worst_ratio:.3f}",
    )


def test_criterion_5_blocking_dominance_sweep():
    points = blocking_sweep(DEFAULT_TOPO, list(range(0, 1300, 100)), seed=42)
    dominated = all(p.lb_blocking <= p.ns_blocking for p in points)
    ns_monotone = all(
        a.ns_blocking <= b.ns_blocking for a, b in zip(points, points[1:])
    )
    lb_monotone = all(
        a.lb_blocking <= b.lb_blocking for a, b in zip(points, points[1:])
    )
    gap_pp = (points[-1].ns_blocking - points[-1].lb_blocking) * 100.0
    check(
        5,
        "sweep 0:1200:100 dominance, monotone curves, >= 18pp gap at 1200",
        dominated and ns_monotone and lb_monotone and gap_pp >= 18.0,
        f"dominated={dominated}, ns_monotone={ns_monotone}, "
        f"lb_monotone={lb_monotone}, gap={gap_pp:.2f}pp",
    )


def test_criterion_6_erlang_recurrence_vs_direct_sum():
    worst = 0.0
    for a in (0.1, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0):
        for n in range(0, 171, 10):
            delta = abs(erlang_b(OfferedLoad(a), n) - erlang_b_direct(a, n))
            worst = max(worst, delta)
    spot = erlang_b(OfferedLoad(2.0), 2)
    check(
        6,
        "Erlang B recurrence matches direct summation to 1e-12, spot 0.4 exact",
        worst <= 1e-12 and spot == 0.4,
        f"worst |delta|={worst:.3e}, spot={spot!r}",
    )


def test_criterion_7_flowchart_walker_oracle():
    checked = 0
    mismatches = 0
    for channels, calls, quantum in oracle_instances():
        topology = NetworkTopology(bsc_channels=channels)
        requests = workload_of([cid + 1 for cid, _ in calls], [d for _, d in calls])
        report = simulate_load_balanced(
            topology, requests, LbParams(quantum_override_ms=quantum)
        )
        expected, _ = walk_flowchart(channels[0], channels[1:], calls, quantum)
        checked += 1
        if report_outcomes(report) != expected:
            mismatches += 1
    check(
        7,
        "engine matches the literal flowchart walker on every small instance",
        checked >= 500 and mismatches == 0,
        f"instances={checked}, mismatches={mismatches}",
    )


def report_bytes(report) -> tuple:
    """The report's scalar fields as its repr shows them, and each column's
    dtype and bytes: equal only if a repeated run is byte-identical, so
    -0.0 differs from 0.0."""
    columns = (report.call_ids, report.serving_bscs, report.execution_times_ms, report.slices)
    return repr(report), *((column.dtype, column.tobytes()) for column in columns)


def test_criterion_8_conservation_and_determinism():
    rng = random.Random(20260819)
    instances = 0
    ok = True
    detail = ""
    for _ in range(1000):
        n_bscs = rng.randint(2, 4)
        channels = tuple(rng.randint(0, 8) for _ in range(n_bscs))
        topology = NetworkTopology(bsc_channels=channels)
        params = WorkloadParams(
            n_calls=rng.randint(0, 60),
            seed=rng.getrandbits(63),
            arrival_window_ms=rng.choice([100.0, 500.0, 2000.0]),
            demand_ms=rng.choice([0.4, 1.0, 2.5]),
        )
        calls = generate_workload(params)
        again = generate_workload(params)
        if not same_workload(calls, again):
            ok, detail = False, "workload regeneration diverged"
            break
        ns1 = simulate_normal(topology, calls)
        ns2 = simulate_normal(topology, calls)
        lb1 = simulate_load_balanced(topology, calls)
        lb2 = simulate_load_balanced(topology, calls)
        if report_bytes(ns1) != report_bytes(ns2) or report_bytes(lb1) != report_bytes(lb2):
            ok, detail = False, "repeated run not byte-identical"
            break
        for report in (ns1, lb1):
            counted = report.accepted_home + report.handed_over + report.blocked
            if counted != params.n_calls:
                ok, detail = False, f"conservation broke: {counted} != {params.n_calls}"
                break
            if report.accepted_home > channels[0]:
                ok, detail = False, "home capacity exceeded"
                break
            if any(report.per_bsc_handled[b] > channels[b] for b in range(n_bscs)):
                ok, detail = False, "neighbor capacity exceeded"
                break
        if not ok:
            break
        instances += 1
    check(
        8,
        "1000 random instances conserve calls and repeat byte-identically",
        ok and instances == 1000,
        detail or f"instances={instances}",
    )


def test_criterion_9_round_robin_fairness():
    _, report = default_run()
    handled = [report.per_bsc_handled[1], report.per_bsc_handled[2]]
    spread = max(handled) - min(handled)
    check(
        9,
        "587 handovers split 294/293 across the two neighbors",
        spread <= 1 and sorted(handled) == [293, 294],
        f"handled={handled}",
    )


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"  -> {exc}", file=sys.stderr)
    sys.exit(1 if failures else 0)
