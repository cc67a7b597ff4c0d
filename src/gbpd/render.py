"""Self-contained SVG rendering of clipped diagrams.

Curved edges are flattened adaptively until the chord deviation is at most
0.1 output pixels (the analytic JSON stays the ground-truth artifact; the
SVG is for eyes). World y points up, SVG y points down, so the vertical
axis is flipped and ellipse rotations change sign.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .clip import ClippedDiagram, flatten_pieces
from .errors import NonRenderableContour
from .geometry import generator_to_ellipse

EDGE_STYLE = 'fill="none" stroke="#1a1a1a" stroke-width="1.2"'
BORDER_STYLE = 'fill="#fdfdfd" stroke="#555555" stroke-width="1"'
ELLIPSE_STYLE = 'fill="none" stroke="#4682b4" stroke-width="0.8" stroke-dasharray="4 3"'
CENTER_STYLE = 'fill="#b4452d" stroke="none"'
VERTEX_STYLE = 'fill="#ffffff" stroke="#1a1a1a" stroke-width="1"'


def _fmt(v: float) -> str:
    # 0.001 px resolution, well under the 0.1 px flattening tolerance
    s = f"{v:.3f}"
    return "0.000" if s == "-0.000" else s


def render_svg(
    cd: ClippedDiagram,
    width_px: int = 800,
    *,
    chord_tol_px: float = 0.1,
    ellipses: bool = True,
    vertex_markers: bool = False,
    labels: bool = False,
) -> str:
    """SVG document for a clipped diagram.

    ``ellipses`` draws each generator's weighted contour (skipped where
    1 + w <= 0 leaves no real contour); ``vertex_markers`` adds circles at
    diagram vertices; ``labels`` prints generator ids beside the centers.
    """
    win = cd.window
    scale = width_px / win.width
    height_px = max(int(round(win.height * scale)), 1)

    def to_px(p) -> tuple[float, float]:
        return (float(p[0]) - win.xmin) * scale, (win.ymax - float(p[1])) * scale

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">'
    )
    out.append(
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" {BORDER_STYLE}/>'
    )

    # the window rect already shows the border
    for run in flatten_pieces(cd.graph, cd.pieces[cd.pieces["edge"] >= 0], chord_tol_px / scale):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_px(p) for p in run))
        out.append(f'<polyline points="{pts}" {EDGE_STYLE}/>')

    if ellipses:
        for g in cd.graph.generators:
            try:
                e = generator_to_ellipse(g, scaled=True)
            except NonRenderableContour:
                continue
            cx, cy = to_px(e.center)
            rx = e.semi_axes[0] * scale
            ry = e.semi_axes[1] * scale
            deg = -math.degrees(e.theta)  # y flip reverses the turning sense
            out.append(
                f'<ellipse cx="0" cy="0" rx="{_fmt(rx)}" ry="{_fmt(ry)}" '
                f'transform="translate({_fmt(cx)} {_fmt(cy)}) rotate({_fmt(deg)})" '
                f"{ELLIPSE_STYLE}/>"
            )

    for g in cd.graph.generators:
        cx, cy = to_px(g.p)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.5" {CENTER_STYLE}/>')
        if labels:
            out.append(
                f'<text x="{_fmt(cx + 4)}" y="{_fmt(cy - 4)}" font-size="11" '
                f'font-family="sans-serif" fill="#333333">{escape(str(g.id))}</text>'
            )

    if vertex_markers:
        for v in cd.graph.vertices:
            cx, cy = to_px(v.pos)
            if -1 <= cx <= width_px + 1 and -1 <= cy <= height_px + 1:
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" {VERTEX_STYLE}/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(path, cd: ClippedDiagram, width_px: int = 800, **kwargs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_svg(cd, width_px, **kwargs))
