"""Golden digests: every shipped scenario under every command, byte for byte.

Each `scenarios/*.json` file runs through `simulate --svg`, `shoot`, `sweep`
and `verify` in-process.  The exit code and the sha256 of every artifact
written must equal those in `golden_digests.json`; a command that rejects the
scenario must exit 2 and write nothing.  A change that moves these bytes on
purpose regenerates the file and says which entries moved and why:

    PYTHONPATH=src python tests/test_golden.py

The digests pin this platform's floating point (its libm's sin and cos); the
run-to-run identity tests in `test_cli.py` hold on any platform.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from drypend import cli

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(HERE, os.pardir, "scenarios")
DIGESTS = os.path.join(HERE, "golden_digests.json")
COMMANDS = (("simulate", "--svg"), ("shoot",), ("sweep",), ("verify",))


def _cases():
    names = sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json"))
    return [(name, command) for name in names for command in COMMANDS]


def _key(name, command):
    return " ".join((name, *command))


def run(name, command) -> dict:
    """Exit code and artifact digests of one command on one scenario file."""
    with tempfile.TemporaryDirectory() as out:
        argv = [command[0], os.path.join(SCENARIOS, name), "--out", out, *command[1:]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        artifacts = {}
        for artifact in sorted(os.listdir(out)):
            with open(os.path.join(out, artifact), "rb") as fh:
                artifacts[artifact] = hashlib.sha256(fh.read()).hexdigest()
    return {"rc": rc, "artifacts": artifacts}


@pytest.fixture(scope="module")
def golden():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_shipped_scenario_and_command_is_pinned(golden):
    assert sorted(golden) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("name, command", _cases(), ids=[_key(*c) for c in _cases()])
def test_artifacts_match_the_golden_digests(golden, name, command):
    got = run(name, command)
    assert got == golden[_key(name, command)]
    if got["rc"] == 2:
        assert got["artifacts"] == {}


if __name__ == "__main__":
    table = {_key(*case): run(*case) for case in _cases()}
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
