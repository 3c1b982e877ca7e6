"""List the benchmark ops whose outputs differ between two drypend trees.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

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
the generated ops once: 1,680 ops.
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


def _run_tree(tree: str) -> int:
    """Child mode: print one JSON line [key, exit code, digests] per op."""
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
                    print(json.dumps([key, rc, _digests(out_dir)]), flush=True)
                    shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the first drypend tree")
    parser.add_argument("change", help="root of the second drypend tree")
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
    for (key, rc_a, digests_a), (key_b, rc_b, digests_b) in zip(parent, change):
        if key != key_b:
            print(f"compare_outputs: the trees list other ops: {key} / {key_b}", file=sys.stderr)
            return 2
        names = sorted(n for n in {*digests_a, *digests_b} if digests_a.get(n) != digests_b.get(n))
        if rc_a != rc_b or names:
            differ += 1
            print(f"{key}: exit {rc_a} -> {rc_b}, artifacts differing: {', '.join(names) or 'none'}")
    if len(parent) != len(change):
        print("compare_outputs: the trees ran different numbers of ops", file=sys.stderr)
        return 2
    print(f"{differ} of {len(parent)} ops differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:  # a child: --worker TREE
        sys.exit(_run_tree(sys.argv[2]))
    sys.exit(main())
