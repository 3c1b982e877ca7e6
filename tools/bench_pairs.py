"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT_REV FIRST_SEED OUT_JSON

The parent tree is `git archive PARENT_REV`; the change tree is the working
tree of this checkout, its tracked and untracked files that git does not
ignore.  Both are unpacked into a fresh temporary directory.  For each
workload of `BENCHMARK.json`, 10 pairs run on seeds FIRST_SEED to
FIRST_SEED + 9, each pair one `perfbench/run.py --trace 0` run from each
tree, every run in a new interpreter; the side that runs first alternates
from pair to pair.  Pick seeds that were not used while developing the
change.  OUT_JSON gets each run's end-to-end metrics and outcome and, per
metric, the quartiles of each side (statistics.quantiles, inclusive
method), the pairs in which the change is lower or higher, the change of the
median in percent, the parent's interquartile range and whether the change
is resolved: on the same side of the parent in at least 9 of the 10 pairs,
with medians that differ by more than that range.  Entries that say what
the change is and what it claims are left to the author of the file.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
# the pairs that must lie on one side for a difference to count as resolved
RESOLVING_PAIRS = 9


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def _parent_tree(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest)


def _change_tree(dest: str) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is left out
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one run's output: correct, attempted, failed, metrics."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _summary(parent: list[float], change: list[float]) -> dict:
    p, c = _quartiles(parent), _quartiles(change)
    iqr = p["q3"] - p["q1"]
    lower = sum(b < a for a, b in zip(parent, change))
    higher = sum(b > a for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_lower_in_pairs": lower,
        "change_higher_in_pairs": higher,
        "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"],
        "parent_iqr": iqr,
        "resolved": abs(c["median"] - p["median"]) > iqr and max(lower, higher) >= RESOLVING_PAIRS,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev, first_seed, out_path = argv[0], int(argv[1]), argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = list(range(first_seed, first_seed + PAIRS))
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "pairs": (
            f"{PAIRS} per workload, seeds {seeds[0]}-{seeds[-1]}, each side run from its own tree: "
            f"git archive of {rev} for the parent, this checkout's working tree for the change; "
            "the side that runs first alternates from pair to pair"
        ),
        "statistics": (
            "q1, median and q3 over the runs of a side (statistics.quantiles, inclusive method); "
            "resolved means the change is on the same side of the parent in at least "
            f"{RESOLVING_PAIRS} of the {PAIRS} pairs and the medians differ by more than the "
            "parent's interquartile range"
        ),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        _parent_tree(rev, trees["parent"])
        _change_tree(trees["change"])
        for workload in (w["name"] for w in bench["workloads"]):
            entry = {"seeds": seeds, "first": {}, "runs": {"parent": {}, "change": {}}}
            entry["outcome"] = {"parent": {}, "change": {}}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                entry["first"][str(seed)] = order[0]
                for side in order:
                    result = _run(trees[side], workload, seed, seconds)
                    entry["runs"][side][str(seed)] = {
                        name: m["value"] for name, m in result["metrics"].items()
                    }
                    entry["outcome"][side][str(seed)] = {
                        key: result[key] for key in ("correct", "failed", "attempted")
                    }
                    print(f"{workload} seed {seed} {side}: {result['metrics']['op_ms']['value']:.2f} ms",
                          file=sys.stderr)
            entry["metrics"] = {}
            for metric in bench["end_to_end"]:
                name = metric["name"]
                values = {side: [entry["runs"][side][str(s)][name] for s in seeds] for side in trees}
                entry["metrics"][name] = {"unit": metric["unit"], **_summary(values["parent"], values["change"])}
            report["workloads"][workload] = entry
            with open(out_path, "w") as fh:  # after each workload, so a cut run keeps what it has
                json.dump(report, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
