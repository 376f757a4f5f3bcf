"""Hand-rolled SVG output of the ratio-plane figure (no plotting dependency).

Draws the boundary hyperbola with its asymptotes, the vector line and
segment AB when available, the special points Q / R_L1 / R_L2, the economy's
ratio point, and optional vertical threshold ticks. Also emits a CSV of all
plotted coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import boundary_u
from .tolerances import ZERO_TOL


@dataclass
class Viewport:
    s_min: float = -4.0
    s_max: float = 4.0
    u_min: float = -4.0
    u_max: float = 4.0
    width: int = 640
    height: int = 640

    def to_px(self, s: float, u: float) -> tuple:
        x = (s - self.s_min) / (self.s_max - self.s_min) * self.width
        y = (self.u_max - u) / (self.u_max - self.u_min) * self.height
        return x, y

    def clamp(self, s, u):
        return (min(max(s, self.s_min), self.s_max),
                min(max(u, self.u_min), self.u_max))


@dataclass
class Figure:
    viewport: Viewport = field(default_factory=Viewport)
    elements: list = field(default_factory=list)
    coords: list = field(default_factory=list)  # rows: (series, s, u)

    def _polyline(self, pts, stroke, dash=None, series=None):
        px = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                      (self.viewport.to_px(s, u) for s, u in pts))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline fill="none" stroke="{stroke}"{dash_attr} points="{px}"/>')
        if series:
            self.coords.extend((series, s, u) for s, u in pts)

    def add_boundary(self, theta_L_over_K: float):
        vp, n = self.viewport, 400  # n + 1 samples per branch
        for lo, hi in ((vp.s_min, -1.0 - 1e-6), (-1.0 + 1e-6, vp.s_max)):
            s = lo + (hi - lo) * np.arange(n + 1) / n
            s = s[abs(s + 1.0) >= ZERO_TOL]  # off the asymptote
            with np.errstate(over="ignore"):  # a U' that overflows is off the figure
                u = boundary_u(s, theta_L_over_K)
            keep = (vp.u_min <= u) & (u <= vp.u_max)
            if keep.sum() >= 2:
                self._polyline(list(zip(s[keep].tolist(), u[keep].tolist())),
                               "#1f77b4", series="boundary")
        # asymptotes
        self._polyline([(-1.0, vp.u_min), (-1.0, vp.u_max)], "#999999",
                       dash="6,4", series="asymptote")
        self._polyline([(vp.s_min, -theta_L_over_K), (vp.s_max, -theta_L_over_K)],
                       "#999999", dash="6,4", series="asymptote")
        # axes
        self._polyline([(vp.s_min, 0.0), (vp.s_max, 0.0)], "#444444")
        self._polyline([(0.0, vp.u_min), (0.0, vp.u_max)], "#444444")

    def add_line(self, a1: float, b1: float):
        vp = self.viewport
        pts = [(s, -a1 * s + b1) for s in (vp.s_min, vp.s_max)]
        self._polyline(pts, "#2ca02c", dash="2,3", series="vector-line")

    def add_segment(self, pa, pb):
        self._polyline([(pa.s, pa.u), (pb.s, pb.u)], "#d62728", series="segment")
        self.add_point(pa.s, pa.u, "A", "#d62728")
        self.add_point(pb.s, pb.u, "B", "#d62728")

    def add_point(self, s: float, u: float, label: str, color: str = "#000000"):
        x, y = self.viewport.to_px(*self.viewport.clamp(s, u))
        self.elements.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>')
        self.elements.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12">{label}</text>')
        self.coords.append((f"point-{label}", s, u))

    def add_threshold(self, s: float, label: str):
        vp = self.viewport
        self._polyline([(s, vp.u_min), (s, vp.u_max)], "#ff7f0e", dash="1,3",
                       series=f"threshold-{label}")
        x, _ = vp.to_px(s, vp.u_max)
        self.elements.append(
            f'<text x="{x + 2:.2f}" y="14" font-size="11">{label}</text>')

    def to_svg(self) -> str:
        vp = self.viewport
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{vp.width}" '
            f'height="{vp.height}" viewBox="0 0 {vp.width} {vp.height}">',
            '<rect width="100%" height="100%" fill="white"/>',
        ]
        parts.extend(self.elements)
        parts.append(f'<text x="{vp.width - 24}" '
                     f'y="{vp.to_px(0, 0)[1] - 8:.2f}" font-size="14">S&#8242;</text>')
        parts.append(f'<text x="{vp.to_px(0, 0)[0] + 8:.2f}" '
                     f'y="16" font-size="14">U&#8242;</text>')
        parts.append("</svg>")
        return "\n".join(parts)

    def coords_csv(self) -> str:
        lines = ["series,s,u"]
        lines.extend(f"{name},{s:.12g},{u:.12g}" for name, s, u in self.coords)
        return "\n".join(lines) + "\n"


def autoscale_viewport(points, theta_L_over_K: float) -> Viewport:
    """Viewport around the unit box, widened to include the given points and
    the horizontal asymptote, plus a margin of 0.6."""
    ss = [0.0, 1.0, -1.0]
    us = [0.0, -theta_L_over_K]
    for s, u in ((p.s, p.u) for p in points if p is not None):
        if math.isfinite(s) and math.isfinite(u) and abs(s) < 50 and abs(u) < 50:
            ss.append(s)
            us.append(u)
    return Viewport(min(ss) - 0.6, max(ss) + 0.6, min(us) - 0.6, max(us) + 0.6)
