"""List the benchmark ops whose outputs differ between two drypend trees.

    python3 tools/compare_outputs.py [--events] PARENT_TREE CHANGE_TREE

A tree is the root of a drypend checkout.  For each tree, one child
interpreter imports drypend from the tree's `src/` and the op lists from its
`perfbench/workloads.py`, then runs every op of one round of each of seeds 0-15 of
the three benchmark workloads in-process, as `perfbench/run.py` does: one
`drypend.cli.main([...])` call on the scenario written to a fresh
directory.  An op's outputs are its exit code (or the exception it raised)
and the sha256 of each of its artifacts.  The script prints each op whose
outputs differ between the trees, with the artifacts that differ (written
by one tree only, or with other bytes), and a summary line, and exits with
status 1 if any differs.  Seeds 0-15 cover each of the 16 designs of
the generated ops once: 1,680 ops.  With --events, each op whose
`events.json` differs also gets a line saying whether its event kinds and
their order are the same in both trees and, if so, the largest shift of an
event time, or else the first event at which they part; the summary then
gives the largest shift over all those ops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("simulate-stickslip", "shoot-bisect", "verify-checks")


def _digests(out_dir: str) -> dict:
    """{artifact name: sha256 of its bytes}, {} without an output directory."""
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _events(out_dir: str) -> list | None:
    """[[kind, t], ...] of the op's `events.json`, None without one."""
    path = os.path.join(out_dir, "events.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return [[e["kind"], e["t"]] for e in json.load(fh)["events"]]


def _event_shift(events_a: list | None, events_b: list | None) -> float | None:
    """The largest |t| shift between two event lists with the same kinds in
    the same order, else None."""
    if events_a is None or events_b is None:
        return None
    if [k for k, _ in events_a] != [k for k, _ in events_b]:
        return None
    return max((abs(a[1] - b[1]) for a, b in zip(events_a, events_b)), default=0.0)


def _first_difference(events_a: list | None, events_b: list | None) -> str:
    """The first event at which two lists differ in kind, or in time by more
    than 1e-6 s, for a line of the report."""
    if events_a is None or events_b is None:
        return "events.json written by one tree only"
    pairs = enumerate(zip(events_a, events_b))
    i = next(
        (i for i, (a, b) in pairs if a[0] != b[0] or abs(a[1] - b[1]) > 1e-6),
        min(len(events_a), len(events_b)),
    )

    def at(events):
        return f"{events[i][0]} at t = {events[i][1]!r}" if i < len(events) else "the end"

    return (
        f"{len(events_a)} -> {len(events_b)} events, first differing at event {i}: "
        f"{at(events_a)} -> {at(events_b)}"
    )


def _run_tree(tree: str) -> int:
    """Child mode: print one JSON line [key, exit code, digests, events] per op."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import workloads
    from drypend import cli

    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(16):
            for workload in WORKLOADS:
                for i, op in enumerate(workloads.round_ops(workload, seed)):
                    work = tempfile.mkdtemp(dir=tmp)
                    scen_path = os.path.join(work, "scenario.json")
                    out_dir = os.path.join(work, "out")
                    with open(scen_path, "w") as fh:
                        json.dump(op.scenario, fh)
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        try:
                            rc = cli.main([op.command, scen_path, "--out", out_dir, *op.flags])
                        except Exception as exc:  # a traceback is an output too
                            rc = f"{type(exc).__name__}: {exc}"
                    key = f"{workload} seed {seed} op {i} ({op.command} {op.name})"
                    print(json.dumps([key, rc, _digests(out_dir), _events(out_dir)]), flush=True)
                    shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the first drypend tree")
    parser.add_argument("change", help="root of the second drypend tree")
    parser.add_argument(
        "--events",
        action="store_true",
        help="compare the event kinds, their order and their times of each differing events.json",
    )
    args = parser.parse_args(argv)

    # both trees at once, one child interpreter each
    children = [
        subprocess.Popen(
            [sys.executable, __file__, "--worker", os.path.abspath(tree)],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},  # no caches left in the trees
        )
        for tree in (args.parent, args.change)
    ]
    results = []
    for child in children:
        out, _ = child.communicate()
        if child.returncode != 0:
            print(f"compare_outputs: a child run exited {child.returncode}", file=sys.stderr)
            return 2
        results.append([json.loads(line) for line in out.splitlines()])
    parent, change = results
    differ = 0
    shifts, reordered = [], 0
    for (key, rc_a, digests_a, events_a), (key_b, rc_b, digests_b, events_b) in zip(parent, change):
        if key != key_b:
            print(f"compare_outputs: the trees list other ops: {key} / {key_b}", file=sys.stderr)
            return 2
        names = sorted(n for n in {*digests_a, *digests_b} if digests_a.get(n) != digests_b.get(n))
        if rc_a != rc_b or names:
            differ += 1
            print(f"{key}: exit {rc_a} -> {rc_b}, artifacts differing: {', '.join(names) or 'none'}")
            if args.events and "events.json" in names:
                shift = _event_shift(events_a, events_b)
                if shift is None:
                    reordered += 1
                    print(f"  events: kinds or order differ: {_first_difference(events_a, events_b)}")
                else:
                    shifts.append(shift)
                    print(f"  events: same kinds and order, largest time shift {shift:.3g}")
    if len(parent) != len(change):
        print("compare_outputs: the trees ran different numbers of ops", file=sys.stderr)
        return 2
    print(f"{differ} of {len(parent)} ops differ")
    if args.events:
        print(
            f"events.json differs on {len(shifts) + reordered} ops: {reordered} with other kinds or "
            f"order, {len(shifts)} with the same, largest time shift {max(shifts, default=0.0):.3g}"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # a child: --worker TREE
        sys.exit(_run_tree(sys.argv[2]))
    sys.exit(main())
