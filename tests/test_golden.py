"""Golden digests: every shipped scenario under every command, byte for byte.

Each `scenarios/*.json` file, and each `golden_inputs/*.json` file (inputs
that pin what no shipped scenario reaches: a table law's knot landing and a
poly law's path), runs through `simulate --svg`, `shoot`, `sweep` and
`verify` in-process.  The exit code and the sha256 of every artifact
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
INPUTS = (SCENARIOS, os.path.join(HERE, "golden_inputs"))
DIGESTS = os.path.join(HERE, "golden_digests.json")
COMMANDS = (("simulate", "--svg"), ("shoot",), ("sweep",), ("verify",))


def _cases():
    paths = {f: os.path.join(d, f) for d in INPUTS for f in os.listdir(d) if f.endswith(".json")}
    return [(paths[name], command) for name in sorted(paths) for command in COMMANDS]


def _key(path, command):
    return " ".join((os.path.basename(path), *command))


def run(path, command) -> dict:
    """Exit code and artifact digests of one command on one scenario file."""
    with tempfile.TemporaryDirectory() as out:
        argv = [command[0], path, "--out", out, *command[1:]]
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


@pytest.mark.parametrize("path, command", _cases(), ids=[_key(*c) for c in _cases()])
def test_artifacts_match_the_golden_digests(golden, path, command):
    got = run(path, command)
    assert got == golden[_key(path, command)]
    if got["rc"] == 2:
        assert got["artifacts"] == {}


if __name__ == "__main__":
    table = {_key(*case): run(*case) for case in _cases()}
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
