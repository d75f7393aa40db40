"""Hand-emitted SVG charts: coverage bars and a critical-difference diagram.

No rendering dependency; elements carry stable class and data- attributes
so downstream checks can assert on structure with plain text matching.
Both charts use a fixed 800 x 400 viewBox.
"""

from __future__ import annotations

import html
from typing import Sequence

_W, _H = 800, 400


def _escape(text: str) -> str:
    """Escape &, < and >. xml.sax.saxutils.escape does the same, but its
    import loads urllib.request, http.client, email and ssl."""
    return html.escape(text, quote=False)


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="13">',
        f"<title>{_escape(title)}</title>",
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") if v == v else "nan"


def coverage_bar_svg(
    methods: Sequence[str], coverages: Sequence[float], target: float
) -> str:
    """Bar chart of per-method empirical coverage with a dashed target line."""
    if len(methods) != len(coverages):
        raise ValueError("one coverage value per method required")
    if not methods:
        raise ValueError("at least one method required")
    left, right, top, bottom = 60, 20, 30, 70
    plot_w = _W - left - right
    plot_h = _H - top - bottom

    def y_of(v: float) -> float:
        return top + plot_h * (1.0 - min(max(v, 0.0), 1.0))

    parts = _svg_open("Empirical coverage by method")
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        parts.append(
            f'<line class="grid" x1="{left}" y1="{y:.1f}" x2="{_W - right}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    slot = plot_w / len(methods)
    bar_w = slot * 0.6
    for i, (name, cov) in enumerate(zip(methods, coverages)):
        x = left + i * slot + (slot - bar_w) / 2.0
        y = y_of(cov)
        parts.append(
            f'<rect class="bar" data-method="{_escape(str(name))}" '
            f'data-value="{cov:.6f}" x="{x:.1f}" y="{y:.1f}" '
            f'width="{bar_w:.1f}" height="{top + plot_h - y:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{_H - bottom + 18}" '
            f'text-anchor="middle">{_escape(str(name))}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 5:.1f}" '
            f'text-anchor="middle">{cov:.3f}</text>'
        )
    ty = y_of(target)
    parts.append(
        f'<line class="target-line" stroke-dasharray="6 4" data-value="{target:.6f}" '
        f'x1="{left}" y1="{ty:.1f}" x2="{_W - right}" y2="{ty:.1f}" '
        f'stroke="#c0392b" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top + plot_h}" x2="{_W - right}" '
        f'y2="{top + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line class="axis" x1="{left}" y1="{top}" x2="{left}" '
        f'y2="{top + plot_h}" stroke="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cd_diagram_svg(
    methods: Sequence[str],
    avg_ranks: Sequence[float],
    cliques: Sequence[Sequence[int]] = (),
    cd: float | None = None,
) -> str:
    """Critical-difference diagram: rank axis, method stems, clique bars.

    cliques hold indices into `methods`; only groups of two or more draw a
    bar. Methods are placed at their average rank on a 1..k axis.
    """
    if len(methods) != len(avg_ranks):
        raise ValueError("one average rank per method required")
    k = len(methods)
    if k == 0:
        raise ValueError("at least one method required")
    left, right = 70, 70
    axis_y = 110.0
    span = _W - left - right
    lo, hi = 1.0, float(max(k, 2))

    def x_of(rank: float) -> float:
        return left + (min(max(rank, lo), hi) - lo) / (hi - lo) * span

    parts = _svg_open("Average ranks with indistinguishable-method bars")
    parts.append(
        f'<line class="rank-axis" x1="{left}" y1="{axis_y}" x2="{_W - right}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1.5"/>'
    )
    for tick in range(1, max(k, 2) + 1):
        x = x_of(float(tick))
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y - 5}" x2="{x:.1f}" '
            f'y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y - 12}" text-anchor="middle">{tick}</text>'
        )
    if cd is not None and cd > 0:
        parts.append(
            f'<text class="cd-label" x="{left}" y="30" data-cd="{cd:.6f}">'
            f"CD = {cd:.3f}</text>"
        )
    order = sorted(range(k), key=lambda i: (avg_ranks[i], str(methods[i])))
    label_y = axis_y + 60.0
    for slot, i in enumerate(order):
        x = x_of(float(avg_ranks[i]))
        ly = label_y + (slot % 2) * 22 + (slot // 2) * 44
        ly = min(ly, _H - 12)
        parts.append(
            f'<circle class="method-dot" data-method="{_escape(str(methods[i]))}" '
            f'data-rank="{avg_ranks[i]:.6f}" cx="{x:.1f}" cy="{axis_y}" r="4" '
            f'fill="#333"/>'
        )
        parts.append(
            f'<line class="stem" x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" '
            f'y2="{ly - 12:.1f}" stroke="#999"/>'
        )
        parts.append(
            f'<text class="method-label" x="{x:.1f}" y="{ly:.1f}" '
            f'text-anchor="middle">{_escape(str(methods[i]))} '
            f"({avg_ranks[i]:.2f})</text>"
        )
    bar_y = axis_y + 14.0
    drawn = 0
    for clique in cliques:
        members = [int(i) for i in clique]
        if len(members) < 2:
            continue
        xs = [x_of(float(avg_ranks[i])) for i in members]
        parts.append(
            f'<line class="clique-bar" data-size="{len(members)}" '
            f'x1="{min(xs) - 4:.1f}" y1="{bar_y + drawn * 10:.1f}" '
            f'x2="{max(xs) + 4:.1f}" y2="{bar_y + drawn * 10:.1f}" '
            f'stroke="#222" stroke-width="4" stroke-linecap="round"/>'
        )
        drawn += 1
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
