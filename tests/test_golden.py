"""Golden bytes: the sha256 of what each seed-42 CLI command prints and writes.

A refactor that claims byte-identical output must pass this unchanged; a
deliberate change to an output format updates the digests, with a reason.
Print the digests of the running code with

    PYTHONPATH=src python tests/test_golden.py

The workload stream comes from numpy's Generator, which numpy does not
promise to keep across releases (NEP 19), so the digests are stored with
the numpy version they were recorded under.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from cellbalance.cli import EXIT_OK, main

NUMPY_VERSION = "2.4.6"

WORKLOAD = "<gen file>"  # replaced by the path of the `gen` command's output
COMMANDS = {
    "run lb": ["run", "lb"],
    "run normal csv": ["run", "normal", "--format", "csv"],
    "compare": ["compare"],
    "compare full": ["compare", "--full"],
    "sweep": ["sweep", "0:1200:100"],
    "gen": ["gen", "--calls", "900"],
    "replay": ["run", "lb", "--full", "--workload", WORKLOAD],
}

# name: (sha256 of stdout, sha256 of the --output file)
DIGESTS = {
    "run lb": (
        "7d648ee10d9bef8e46f0a203b64724a82bbcc25f9c0d6cd07cd6fe6724e11e23",
        "6316c1e6d6e786f6a7982e288eab7e05238217e5de7480c2ab5c98b060cb486f",
    ),
    "run normal csv": (
        "428011961db6ae04e0b45a79336474008005eaa54dcbe6c16781368bd38b66dd",
        "a9ce65c3ab936f405bdbf404be2ee7638d8361afff8ccaba9dd0262c11583d72",
    ),
    "compare": (
        "f122af0410b7ee409884cf0a0d4c65e46eb1ca140f09133de77ad1c03a8e353b",
        "4e2ac48e89b7eeb94a09a41f1aee26352094666f3b351db4ecd6faa830616278",
    ),
    "compare full": (
        "f122af0410b7ee409884cf0a0d4c65e46eb1ca140f09133de77ad1c03a8e353b",
        "72a7dc44cb37aca51e20b3cdd97244c8d5f9c1eecafe85b547e8b75923027938",
    ),
    "sweep": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "96288fc169a565f90216ed828b746634875479b2f222574e2860f90587e1a0d8",
    ),
    "gen": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6d991b31f0bdd094f086b97ac54c27e7df3c2221a16ad77567a4765c001e56c5",
    ),
    # a replay reports the workload file's sha256 in place of the config's
    # seed, arrival_window_ms and demand_ms, which the file does not hold
    "replay": (
        "7d648ee10d9bef8e46f0a203b64724a82bbcc25f9c0d6cd07cd6fe6724e11e23",
        "eff724256b57ef0ff1ffd43a15b5c451c532ce28097dac01e32611311d2b4222",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], output: Path) -> str:
    """Run one command at seed 42 writing to `output`; returns its stdout."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv + ["--seed", "42", "--output", str(output)])
    assert code == EXIT_OK, f"{' '.join(argv)} exited {code}"
    return stdout.getvalue()


def digests(name: str, workdir: Path) -> tuple[str, str]:
    workload = workdir / "workload.csv"
    if WORKLOAD in COMMANDS[name]:
        run(COMMANDS["gen"], workload)
    argv = [str(workload) if arg == WORKLOAD else arg for arg in COMMANDS[name]]
    output = workdir / "output"
    stdout = run(argv, output)
    return sha256(stdout.encode()), sha256(output.read_bytes())


@pytest.mark.parametrize("name", COMMANDS)
def test_golden_bytes(name, tmp_path):
    assert digests(name, tmp_path) == DIGESTS[name], (
        f"`{name}` output changed; digests stored under numpy {NUMPY_VERSION}, "
        f"running numpy {np.__version__}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for name in COMMANDS:
            print(f"    {name!r}: {digests(name, Path(workdir))},", file=sys.stderr)
