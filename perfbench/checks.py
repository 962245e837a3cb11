"""Output checks for the benchmark's CLI commands.

    python3 perfbench/checks.py '{"kind": "compare", "path": ..., ...}'

Each check reads one command's output and returns the invariant errors it
found (these hold on any seed) and an extract of the fields that are pinned
for the default seed in pinned.json. Only the named fields are read, so keys
added to the documents later (a run manifest, counters) do not fail a check,
and console stdout is never compared. Run as a script, it prints
{"errors": [...], "extract": {...}} for the check named by "kind".
"""

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

COUNT_KEYS = ("accepted_home", "handed_over", "blocked")
RECORD_KEYS = ("call_id", "disposition", "serving_bsc", "execution_time_ms", "slices_used")
WORKLOAD_HEADER = "id,arrival_ms,x_km,y_km,demand_ms"
SWEEP_HEADER = "n_calls,ns_blocking,lb_blocking"
ERLANG_OUTPUT = "0.500000\n"  # Erlang B of 1 erlang offered to 1 channel


def expected_counts(n: int, pools: list[int]) -> dict[str, tuple[int, int, int]]:
    """(accepted_home, handed_over, blocked) per system on n calls.

    Home admission takes the first min(n, home pool) calls; every overflow call
    finishes its finite demand, so the load-balanced system hands over as many
    as the neighbor pools hold and blocks the rest.
    """
    home = min(n, pools[0])
    handed = min(n - home, sum(pools[1:]))
    return {
        "normal": (home, 0, n - home),
        "load_balanced": (home, handed, n - home - handed),
    }


def records_sha256(records: list[dict]) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(tuple(record[k] for k in RECORD_KEYS)).encode())
    return digest.hexdigest()


def check_compare(path: str, n: int, pools: list[int], full: bool) -> tuple[list[str], dict]:
    doc = json.loads(Path(path).read_text())
    errors, extract = [], {}
    expected = expected_counts(n, pools)
    for system in ("normal", "load_balanced"):
        report = doc[system]
        counts = tuple(report["counts"][k] for k in COUNT_KEYS)
        handled = [report["per_bsc_handled"][str(b)] for b in range(len(pools))]
        if sum(counts) != n:
            errors.append(f"{system}: accepted_home + handed_over + blocked = {sum(counts)}, n = {n}")
        if counts != expected[system]:
            errors.append(f"{system}: counts {counts}, expected {expected[system]}")
        for bsc, (used, pool) in enumerate(zip(handled, pools)):
            if used > pool:
                errors.append(f"{system}: BSC{bsc + 1} handled {used} calls, pool is {pool}")
        if sum(handled) != counts[0] + counts[1]:
            errors.append(f"{system}: per_bsc_handled sums to {sum(handled)}")
        extract[system] = {
            "counts": dict(zip(COUNT_KEYS, counts)),
            "per_bsc_handled": report["per_bsc_handled"],
            "total_execution_time_ms": report["total_execution_time_ms"],
            "empirical_blocking": report["empirical_blocking"],
            "quantum_ms": report["params"]["quantum_ms"],
        }
        if full:
            records = report["records"]
            dispositions = Counter(r["disposition"] for r in records)
            served = Counter(r["serving_bsc"] for r in records if r["serving_bsc"] is not None)
            if [dispositions[k] for k in COUNT_KEYS] != list(counts):
                errors.append(f"{system}: record dispositions {dict(dispositions)} != counts")
            if [served[b] for b in range(len(pools))] != handled:
                errors.append(f"{system}: record serving BSCs {dict(served)} != per_bsc_handled")
            extract[system]["records_sha256"] = records_sha256(records)
    if doc["load_balanced"]["empirical_blocking"] > doc["normal"]["empirical_blocking"]:
        errors.append("load-balanced blocking exceeds normal blocking")
    return errors, extract


def check_gen(path: str, n: int) -> tuple[list[str], dict]:
    data = Path(path).read_bytes()
    lines = data.decode().splitlines()
    errors = []
    if not lines or lines[0] != WORKLOAD_HEADER:
        errors.append("workload file lacks its header")
    if len(lines) != n + 1:
        errors.append(f"workload file has {len(lines) - 1} calls, expected {n}")
    return errors, {"sha256": hashlib.sha256(data).hexdigest()}


def check_sweep(path: str, levels: list[int], pools: list[int]) -> tuple[list[str], dict]:
    data = Path(path).read_bytes()
    lines = data.decode().splitlines()
    errors = []
    if not lines or lines[0] != SWEEP_HEADER:
        errors.append("sweep CSV lacks its header")
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != levels:
        errors.append(f"sweep CSV levels differ from the {len(levels)} requested")
    for (level, ns, lb), n in zip(rows, levels):
        counts = expected_counts(n, pools)
        want = [f"{(counts[s][2] / n if n else 0.0):.6f}" for s in ("normal", "load_balanced")]
        if float(lb) > float(ns):
            errors.append(f"level {level}: load-balanced blocking {lb} > normal {ns}")
        if [ns, lb] != want:
            errors.append(f"level {level}: blocking {ns},{lb}, expected {','.join(want)}")
    return errors, {"sha256": hashlib.sha256(data).hexdigest()}


def check_erlang(path: str) -> tuple[list[str], dict]:
    stdout = Path(path).read_text()
    errors = [] if stdout == ERLANG_OUTPUT else [f"erlang printed {stdout!r}"]
    return errors, {}


CHECKS = {"compare": check_compare, "gen": check_gen, "sweep": check_sweep, "erlang": check_erlang}


def main(spec: dict) -> dict:
    kind = spec.pop("kind")
    try:
        errors, extract = CHECKS[kind](**spec)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        errors, extract = [f"unreadable output: {exc!r}"], None
    return {"errors": errors, "extract": extract}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
