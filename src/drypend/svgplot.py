"""Minimal SVG phase portraits: polyline paths and axes, nothing else."""

from __future__ import annotations

import math

from .integrator import Trajectory
from .model import SLIPPING

_W, _H = 640, 480
_MARGIN = 56
_COLORS = {SLIPPING: "#1f77b4", "stuck": "#d62728"}


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(round(v, 12))
        v += step
    return out


def phase_portrait_svg(traj: Trajectory, title: str = "") -> str:
    """q on the horizontal axis, p on the vertical, colored by mode."""
    _, qs, ps, modes = zip(*traj.samples)
    q_lo, q_hi = min(qs), max(qs)
    p_lo, p_hi = min(ps), max(ps)
    if q_hi - q_lo < 1e-9:
        q_lo, q_hi = q_lo - 0.5, q_hi + 0.5
    if p_hi - p_lo < 1e-9:
        p_lo, p_hi = p_lo - 0.5, p_hi + 0.5

    def sx(q):
        return _MARGIN + (q - q_lo) / (q_hi - q_lo) * (_W - 2 * _MARGIN)

    def sy(p):
        return _H - _MARGIN - (p - p_lo) / (p_hi - p_lo) * (_H - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>',
    ]
    for tv in _ticks(q_lo, q_hi):
        x = sx(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MARGIN}" x2="{x:.2f}" y2="{_H - _MARGIN + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MARGIN + 18}" font-size="11" text-anchor="middle">{tv:g}</text>'
        )
    for tv in _ticks(p_lo, p_hi):
        y = sy(tv)
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{y:.2f}" x2="{_MARGIN}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end">{tv:g}</text>'
        )
    parts.append(
        f'<text x="{_W / 2}" y="{_H - 12}" font-size="13" text-anchor="middle">q (rad)</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2})">p (rad/s)</text>'
    )
    if title:
        # escaped by hand: xml.sax.saxutils imports urllib.request and ssl
        title = str(title).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{_W / 2}" y="24" font-size="14" text-anchor="middle">{title}</text>')

    # one polyline per contiguous run of a single mode
    run_mode = modes[0]
    run: list[str] = [f"{sx(qs[0]):.3f},{sy(ps[0]):.3f}"]
    for i in range(1, len(qs)):
        run.append(f"{sx(qs[i]):.3f},{sy(ps[i]):.3f}")
        if modes[i] != run_mode or i == len(qs) - 1:
            color = _COLORS.get(run_mode, "black")
            parts.append(
                f'<polyline points="{" ".join(run)}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
            run = [f"{sx(qs[i]):.3f},{sy(ps[i]):.3f}"]
            run_mode = modes[i]
    parts.append("</svg>")
    return "\n".join(parts)
