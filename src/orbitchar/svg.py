"""SVG rendering of rank-2 hyperplane arrangements.

The drawing plane is an isometric image of the rank-2 real span: points are
mapped through the Cholesky factor of the invariant form's Gram matrix, so
lengths and angles in the figure agree with the form.  Each hyperplane is
drawn as exactly one <line> element; the two dominant-chamber walls are
<path> rays from the origin; region labels are placed at region witnesses;
characteristic points are optional circled markers.

Coordinates are written with a fixed 10^-3 precision; everything else in the
document is exact text.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from . import linalg
from .liecore import InvariantForm, RootSystem

Q = Fraction

SVG_NS = "http://www.w3.org/2000/svg"

WIDTH = HEIGHT = 560
MARGIN = 30

_STYLE = """
  .wall { stroke: #222222; stroke-width: 2.5; fill: none; }
  .hyperplane { stroke: #2c6fbb; stroke-width: 1.4; }
  .region-label { font: italic 15px serif; text-anchor: middle; fill: #333333; }
  .characteristic { fill: #ffffff; stroke: #c0392b; stroke-width: 1.8; }
  .mark-label { font: 12px serif; text-anchor: start; fill: #c0392b; }
"""


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


def _cholesky2(form: InvariantForm):
    g = [[float(x) for x in row] for row in form.gram]
    l11 = math.sqrt(g[0][0])
    l21 = g[1][0] / l11
    l22 = math.sqrt(g[1][1] - l21 * l21)
    return l11, l21, l22


class _Frame:
    """World-plane geometry plus the world-to-screen mapping."""

    def __init__(self, rs: RootSystem, form: InvariantForm):
        self.l11, self.l21, self.l22 = _cholesky2(form)
        inv_cartan = linalg.inverse(rs.cartan)
        self.wall_dirs = [
            self.to_world((inv_cartan[0][j], inv_cartan[1][j])) for j in range(2)
        ]

    def to_world(self, h) -> tuple[float, float]:
        a, b = float(h[0]), float(h[1])
        return (self.l11 * a + self.l21 * b, self.l22 * b)

    def foot(self, weight, level):
        """The pairing hyperplane as (p, d): p its point nearest the origin
        (world), d its direction."""
        f1, f2 = float(weight[0]), float(weight[1])
        # pairing(mu, h) = f.h; with world p = L^T h the normal maps by L^-1
        n1 = f1 / self.l11
        n2 = (f2 - self.l21 * n1) / self.l22
        c = float(level)
        nn = n1 * n1 + n2 * n2
        return (c * n1 / nn, c * n2 / nn), (-n2, n1)

    def fit(self, anchors):
        """Fix the box: the anchors' bounding box, padded on every side."""
        xs = [p[0] for p in anchors]
        ys = [p[1] for p in anchors]
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        pad = 0.40 * span
        self.x0, self.x1 = min(xs) - pad, max(xs) + pad
        self.y0, self.y1 = min(ys) - pad, max(ys) + pad
        usable_w = WIDTH - 2 * MARGIN
        usable_h = HEIGHT - 2 * MARGIN
        self.scale = min(usable_w / (self.x1 - self.x0), usable_h / (self.y1 - self.y0))

    def to_screen(self, world_pt) -> tuple[float, float]:
        x, y = world_pt
        sx = MARGIN + (x - self.x0) * self.scale
        sy = HEIGHT - MARGIN - (y - self.y0) * self.scale
        return sx, sy

    def clip(self, p, d) -> tuple[float, float]:
        """The span (lo, hi) of t over which p + t d stays in the box."""
        lo, hi = -math.inf, math.inf
        box = ((self.x0, self.x1), (self.y0, self.y1))
        for start, step, (low, high) in zip(p, d, box):
            if abs(step) > 1e-9:
                t0, t1 = (low - start) / step, (high - start) / step
                lo, hi = max(lo, min(t0, t1)), min(hi, max(t0, t1))
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError("line missed the drawing box")
        return lo, hi


def render_arrangement(
    rs: RootSystem,
    form: InvariantForm,
    hyperplanes,
    regions,
    region_labels=None,
    marks=(),
) -> str:
    """SVG text for a rank-2 arrangement figure.

    region_labels maps region id -> label text (default "R<id>"); marks is a
    sequence of (point, caption) pairs drawn as circled points.
    """
    if rs.rank != 2:
        raise ValueError("SVG rendering requires a rank-2 root system")
    regions = list(regions)
    marks = list(marks)
    frame = _Frame(rs, form)
    lines = [frame.foot(hp.weight, hp.level) for hp in hyperplanes]
    frame.fit(
        [(0.0, 0.0), *(p for p, _ in lines)]
        + [frame.to_world(r.witness) for r in regions]
        + [frame.to_world(point) for point, _ in marks]
    )

    root = ET.Element(
        "svg",
        {
            "xmlns": SVG_NS,
            "width": str(WIDTH),
            "height": str(HEIGHT),
            "viewBox": f"0 0 {WIDTH} {HEIGHT}",
        },
    )
    title = ET.SubElement(root, "title")
    title.text = "Dominant chamber cut by module-weight hyperplanes"
    style = ET.SubElement(root, "style")
    style.text = _STYLE

    walls = ET.SubElement(root, "g", {"id": "chamber-walls"})
    ox, oy = frame.to_screen((0.0, 0.0))
    for dx, dy in frame.wall_dirs:
        # the origin lies in the box, so the wall leaves it at hi
        t = frame.clip((0.0, 0.0), (dx, dy))[1]
        ex, ey = frame.to_screen((t * dx, t * dy))
        ET.SubElement(
            walls,
            "path",
            {
                "class": "wall",
                "d": f"M {_fmt(ox)} {_fmt(oy)} L {_fmt(ex)} {_fmt(ey)}",
            },
        )

    group = ET.SubElement(root, "g", {"id": "hyperplanes"})
    for (px, py), (dx, dy) in lines:
        lo, hi = frame.clip((px, py), (dx, dy))
        sx1, sy1 = frame.to_screen((px + lo * dx, py + lo * dy))
        sx2, sy2 = frame.to_screen((px + hi * dx, py + hi * dy))
        ET.SubElement(
            group,
            "line",
            {
                "class": "hyperplane",
                "x1": _fmt(sx1),
                "y1": _fmt(sy1),
                "x2": _fmt(sx2),
                "y2": _fmt(sy2),
            },
        )

    labels = ET.SubElement(root, "g", {"id": "region-labels"})
    for r in regions:
        text = (region_labels or {}).get(r.id, f"R{r.id}")
        sx, sy = frame.to_screen(frame.to_world(r.witness))
        el = ET.SubElement(
            labels,
            "text",
            {"class": "region-label", "x": _fmt(sx), "y": _fmt(sy)},
        )
        el.text = text

    if marks:
        markers = ET.SubElement(root, "g", {"id": "characteristics"})
        for point, caption in marks:
            sx, sy = frame.to_screen(frame.to_world(point))
            ET.SubElement(
                markers,
                "circle",
                {
                    "class": "characteristic",
                    "cx": _fmt(sx),
                    "cy": _fmt(sy),
                    "r": "4.5",
                },
            )
            if caption:
                el = ET.SubElement(
                    markers,
                    "text",
                    {
                        "class": "mark-label",
                        "x": _fmt(sx + 7.0),
                        "y": _fmt(sy - 7.0),
                    },
                )
                el.text = caption

    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
