"""Run and check every generated op of every design of a workload.

    python3 perfbench/screen.py <workload>

Prints the (design, op index) pairs whose op fails or fails its checks, over
the DESIGNS designs a seed can pick and the RESERVE designs that replace
excluded ops.  The result is the workload's EXCLUDED set in workloads.py.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from drypend import cli  # noqa: E402
from run import Runner  # noqa: E402


def main() -> int:
    workload = sys.argv[1]
    failing = []
    tmp = tempfile.mkdtemp(dir=HERE, prefix="tmp-screen-")
    try:
        for design in [*range(workloads.DESIGNS), *workloads.RESERVE]:
            for i, op in enumerate(workloads.GENERATED[workload](design)):
                runner = Runner([op], cli, checks, tmp)
                with contextlib.redirect_stderr(io.StringIO()):
                    runner.run_round(check=True)
                if runner.failed or runner.errors:
                    failing.append((design, i))
                    print(f"design {design} op {i}: failed {runner.failed}, {runner.errors}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(sorted(failing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
