"""Write the stages of `drypend.integrator._slip` out from `branch_field`.

    python3 tools/gen_stages.py [--check]

`_slip` evaluates the slipping field inline at each DOP853 stage, with no
call to a field closure.  This script writes those stages between the
`# BEGIN <block>, written by tools/gen_stages.py` and `# END <block>`
comments of src/drypend/integrator.py:

- "stages 1-11": stage i's q sum x and p sum kq{i} over the nonzero
  `_A{i}_{j}` that `integrator` names, in the order of the tableau, with the
  weights wa{i}_{j} = h * _A{i}_{j}; then a = accel(t + hc{i}), with
  hc{i} = _C{i} * h, and kp{i}, the dp/dt of `model.branch_field` at
  (x, kq{i}), in its frictionless form where friction is None;
- "stage 12": the same at the step's end (t1, q1, p1), whose dq/dt is p1;
  its frictional form also keeps the normal force N, the argument of the
  friction term, as n, and sets n_end = n > 0.0.

Each dp/dt is `branch_field`'s own source with q, p and accel(t) renamed,
read with `ast`, so the stages compute what `branch_field` computes, with
the same bits.  The script checks that N is `model.normal_force`'s
expression.  With --check it writes nothing and exits 1, printing a diff,
if a block is not what it would write.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
INTEGRATOR = os.path.join(SRC, "drypend", "integrator.py")
MODEL = os.path.join(SRC, "drypend", "model.py")
WIDTH = 100


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


class _Rename(ast.NodeTransformer):
    """q, p and accel(t) of a field body to the stage's names."""

    def __init__(self, names: dict):
        self.names = names

    def visit_Call(self, node):
        if ast.dump(node) == ast.dump(ast.parse("accel(t)", mode="eval").body):
            return ast.Name("a", ast.Load())
        return self.generic_visit(node)

    def visit_Name(self, node):
        return ast.Name(self.names.get(node.id, node.id), node.ctx)


def _renamed(source: str, names: dict) -> str:
    """The statement `source` with q, p and accel(t) renamed, its text kept;
    the renaming is checked against the same on its syntax tree."""
    out = re.sub(r"\baccel\(t\)", "a", source)
    out = re.sub(r"\b[qp]\b", lambda m: names[m.group()], out)
    expected = _Rename(names).visit(ast.parse(source))
    _require(ast.dump(ast.parse(out)) == ast.dump(expected), f"renaming {source!r} gave {out!r}")
    return out


def field_forms(model_source: str):
    """(frictionless, frictional, magnitude, N): the (statements, dp/dt) of
    each form of `branch_field`'s f(t, q, p) as source, but a = accel(t),
    which each stage computes first; the frictional one's abs(N), and N."""
    tree = ast.parse(model_source)
    seg = lambda node: ast.get_source_segment(model_source, node)  # noqa: E731
    forms = {}
    for node in ast.walk(_function(tree, "branch_field")):
        if not (isinstance(node, ast.FunctionDef) and node.name == "f"):
            continue
        *body, ret = node.body
        dq, dp = ret.value.elts
        _require(isinstance(dq, ast.Name) and dq.id == "p", "dq/dt must be p")
        frictional = any(isinstance(n, ast.Name) and n.id == "friction" for n in ast.walk(node))
        forms[frictional] = [seg(s) for s in body if seg(s) != "a = accel(t)"], dp
    smooth, (rough, dp) = forms[False], forms[True]
    (magnitude,) = [n for n in ast.walk(dp) if isinstance(n, ast.Call) and seg(n.func) == "abs"]
    (normal,) = magnitude.args
    # N with a, s and c written out is normal_force's N(t, q, p)
    calls = {"a": "accel(t)", "s": "sin(q)", "c": "cos(q)"}
    written = ast.parse(re.sub(r"\b[asc]\b", lambda m: calls[m.group()], seg(normal)))
    (inner,) = [n for n in _function(tree, "normal_force").body if isinstance(n, ast.FunctionDef)]
    same = ast.dump(written.body[0].value) == ast.dump(inner.body[-1].value)
    _require(same, "the friction term's N is not normal_force's")
    return (smooth[0], seg(smooth[1])), (rough, seg(dp)), seg(magnitude), seg(normal)


def _sum(lhs: str, first: str, terms: list[str], indent: str) -> list[str]:
    """`lhs = first + terms...`, in parentheses over lines if too wide."""
    line = f"{indent}{lhs} = {' + '.join([first, *terms])}"
    if len(line) <= WIDTH:
        return [line]
    rows = [f"{indent}{lhs} = ({first}"]
    for term in terms:
        if len(rows[-1]) + 4 + len(term) > WIDTH:
            rows.append(" " * (len(indent) + len(lhs) + 4) + f"+ {term}")
        else:
            rows[-1] += f" + {term}"
    return rows[:-1] + [rows[-1] + ")"]


def _stage(forms, names: dict, time: str, kp: str, indent: str, keep_normal: bool) -> list[str]:
    """One stage: a at `time`, then its dp/dt `kp` in the form that
    friction selects; with `keep_normal`, the frictional form's N as n."""
    (smooth, smooth_dp), (rough, rough_dp), magnitude, normal = forms
    tail = [f"{kp} = {rough_dp}"]
    if keep_normal:
        tail = [f"n = {normal}", f"{kp} = {rough_dp.replace(magnitude, 'abs(n)')}", "n_end = n > 0.0"]
    return [
        f"{indent}a = accel({time})",
        f"{indent}if friction is None:",
        *(f"{indent}    {_renamed(s, names)}" for s in [*smooth, f"{kp} = {smooth_dp}"]),
        f"{indent}else:",
        *(f"{indent}    {_renamed(s, names)}" for s in [*rough, *tail]),
    ]


def blocks(tableau: dict, model_source: str, indent: str) -> dict:
    """{block name: its lines}, from the tableau's names and the model."""
    forms = field_forms(model_source)
    stages = []
    for i in range(1, 12):
        js = [j for j in range(i) if f"_A{i}_{j}" in tableau]
        _require(f"_C{i}" in tableau and js, f"stage {i} has no node or no weights")
        stages += _sum("x", "q", [f"wa{i}_{j} * kq{j}" for j in js], indent)
        stages += _sum(f"kq{i}", "p", [f"wa{i}_{j} * kp{j}" for j in js], indent)
        stages += _stage(forms, {"q": "x", "p": f"kq{i}"}, f"t + hc{i}", f"kp{i}", indent, False)
    last = _stage(forms, {"q": "q1", "p": "p1"}, "t1", "kp12", indent, True)
    return {"stages 1-11": stages, "stage 12": last}


def regenerate(source: str, tableau: dict, model_source: str) -> str:
    """`source`, the text of integrator.py, with each block rewritten."""
    lines = source.split("\n")
    for name in ("stages 1-11", "stage 12"):
        begin = next(
            k for k, line in enumerate(lines)
            if line.strip().startswith(f"# BEGIN {name}, written by tools/gen_stages.py")
        )
        end = next(k for k in range(begin, len(lines)) if lines[k].strip() == f"# END {name}")
        indent = lines[begin][: len(lines[begin]) - len(lines[begin].lstrip())]
        lines[begin + 1 : end] = blocks(tableau, model_source, indent)[name]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--check", action="store_true", help="diff the blocks, write nothing")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    from drypend import integrator

    tableau = {
        name: value for name, value in vars(integrator).items()
        if re.fullmatch(r"_(C\d+|A\d+_\d+)", name) and value != 0.0
    }
    with open(INTEGRATOR) as fh:
        source = fh.read()
    with open(MODEL) as fh:
        wanted = regenerate(source, tableau, fh.read())
    if args.check:
        diff = list(difflib.unified_diff(
            source.splitlines(True), wanted.splitlines(True), os.path.relpath(INTEGRATOR, ROOT),
            "generated",
        ))
        sys.stdout.writelines(diff)
        return 1 if diff else 0
    with open(INTEGRATOR, "w") as fh:
        fh.write(wanted)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
