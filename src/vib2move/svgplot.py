"""Minimal static SVG emitter for trajectory and metrics figures.

The figures are post-hoc displays, so a small hand-rolled writer beats a
plotting dependency; output is deterministic byte-for-byte for identical
inputs (fixed float formatting, insertion-ordered elements).
"""

from __future__ import annotations

import math
from pathlib import Path

from .se2 import invert_point

CLASS_COLORS = {"near_rotational": "#e75480", "translational": "#3aa0c9"}


def _f(v: float) -> str:
    return f"{v:.3f}"


class SvgCanvas:
    """640x480 canvas with a data-space to pixel-space mapping (y up)."""

    width, height, margin = 640, 480, 48

    def __init__(self):
        self.elements: list[str] = []
        self._bounds = None

    def set_bounds(self, xmin, xmax, ymin, ymax):
        """Map the data box, padded by 8 % of its span on every side."""
        dx, dy = xmax - xmin, ymax - ymin
        dx = dx if dx > 1e-9 else 1.0
        dy = dy if dy > 1e-9 else 1.0
        self._bounds = (xmin - 0.08 * dx, xmax + 0.08 * dx,
                        ymin - 0.08 * dy, ymax + 0.08 * dy)

    def to_px(self, x, y):
        xmin, xmax, ymin, ymax = self._bounds
        sx = (self.width - 2 * self.margin) / (xmax - xmin)
        sy = (self.height - 2 * self.margin) / (ymax - ymin)
        s = min(sx, sy)
        px = self.margin + (x - xmin) * s
        py = self.height - self.margin - (y - ymin) * s
        return px, py

    def polyline(self, points, stroke):
        """2 px polyline through points."""
        if len(points) < 2:
            return
        pts = " ".join(f"{_f(px)},{_f(py)}" for px, py in (self.to_px(*p) for p in points))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="2.000" stroke-opacity="1.000"/>')

    def colored_path(self, points, colors):
        """Polyline through points, split into one piece per run of equal
        colors; each piece starts where the previous one ended."""
        run, color = [], None
        for pt, c in zip(points, colors):
            if c != color and run:
                self.polyline(run, color)
                run = run[-1:]
            color = c
            run.append(pt)
        if run:
            self.polyline(run, color)

    def circle(self, x, y, r_px, fill, stroke="none"):
        px, py = self.to_px(x, y)
        self.elements.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(r_px)}" fill="{fill}" stroke="{stroke}"/>')

    def segment(self, a, b, stroke, width):
        pa, pb = self.to_px(*a), self.to_px(*b)
        self.elements.append(
            f'<line x1="{_f(pa[0])}" y1="{_f(pa[1])}" x2="{_f(pb[0])}" y2="{_f(pb[1])}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"/>')

    def text(self, x_px, y_px, s, size, anchor="start"):
        """Text at a pixel position; s is escaped as XML character data."""
        s = str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.elements.append(
            f'<text x="{_f(x_px)}" y="{_f(y_px)}" font-size="{size}" fill="#333333" '
            f'text-anchor="{anchor}" font-family="sans-serif">{s}</text>')

    def save(self, path: str | Path, title: str):
        self.text(self.width / 2, 24, title, size=15, anchor="middle")
        body = "\n".join(self.elements)
        svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
               f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
               f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')
        Path(path).write_text(svg)


def plot_pulse_path(points, out_path, title="slide path"):
    """Object-center path during one pulse, colored by motion class."""
    xy = [(p.object_pose.x, p.object_pose.y) for p in points]
    if not xy:
        return
    canvas = SvgCanvas()
    canvas.set_bounds(min(x for x, _ in xy), max(x for x, _ in xy),
                      min(y for _, y in xy), max(y for _, y in xy))
    canvas.colored_path(xy, [CLASS_COLORS[p.motion_class.value] for p in points])
    canvas.circle(*xy[0], 4, fill="#444444")
    canvas.text(canvas.margin, canvas.height - 14,
                "pink: near-rotational, blue: translational", size=11)
    canvas.save(out_path, title)


STAGE_PATH_COLORS = {1: "#5b9bd5", 2: "#58b368", 3: "#e75480"}


def plot_plan_object_frame(result, goal, out_path, title="finger path in object frame"):
    """Stage-colored finger path in the object frame, with the goal marked.

    The trajectory records carry world poses per slide step, and every
    recorded pulse holds exactly its n_steps points, so the pulses of the
    action log give each point's stage in order.
    """
    rel_path = [invert_point(p.object_pose, p.finger_pose.position) for p in result.trajectory]
    if not rel_path:
        return
    canvas = SvgCanvas()
    xs = [p[0] for p in rel_path] + [goal.x]
    ys = [p[1] for p in rel_path] + [goal.y]
    canvas.set_bounds(min(xs), max(xs), min(ys), max(ys))

    canvas.colored_path(rel_path, [STAGE_PATH_COLORS[a.stage] for a in result.actions
                                   if a.kind == "pulse" for _ in range(a.n_steps)])

    canvas.circle(goal.x, goal.y, 5, fill="none", stroke="#cc0000")
    canvas.segment((goal.x, goal.y),
                   (goal.x + 0.008 * math.cos(goal.theta), goal.y + 0.008 * math.sin(goal.theta)),
                   stroke="#cc0000", width=2.0)
    canvas.text(canvas.margin, canvas.height - 14,
                "blue: centering, green: positioning, pink: orientation; red: goal", size=11)
    canvas.save(out_path, title)


def plot_error_distribution(report, out_path, title="final pose error per object"):
    """Per-object columns of final position errors (mm)."""
    groups: dict[str, list[float]] = {}
    for t in report.trials:
        if t.success:
            groups.setdefault(t.object_name, []).append(t.err_pos * 1000.0)
    if not groups:
        return
    canvas = SvgCanvas()
    names = sorted(groups)
    ymax = max(max(v) for v in groups.values())
    canvas.set_bounds(-0.5, len(names) - 0.5, 0.0, max(ymax, 1e-6))
    for i, name in enumerate(names):
        for v in groups[name]:
            canvas.circle(i, v, 3, fill="#3aa0c9")
        mean = sum(groups[name]) / len(groups[name])
        canvas.segment((i - 0.25, mean), (i + 0.25, mean), stroke="#cc0000", width=2.0)
        px, py = canvas.to_px(i, 0)
        canvas.text(px, canvas.height - canvas.margin + 18, name, size=11, anchor="middle")
    canvas.text(14, canvas.margin, "mm", size=11)
    canvas.save(out_path, title)
