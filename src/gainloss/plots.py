"""Static SVG renderings of fit reports and scan results.

The SVG is assembled directly from strings with fixed number formatting, so
the same inputs always produce byte-identical files; text is XML-escaped, so
a series name such as ``S&P500`` stays well-formed. Two renderings exist: a
posterior summary of the effect size (histogram, mean, HDI bar, reference
line, tail probabilities) and a scan overview (effect size with HDI whiskers
against the scanned grid, one series per model).
"""

from __future__ import annotations

import math
from typing import Sequence

from .diagnostics import FitReport
from .errors import MalformedReportError
from .pipeline import ScanPoint

__all__ = ["posterior_svg", "scan_svg"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 22, 46, 50

_MODEL_COLORS = {
    "student-t": "#1f6fb4",
    "inv-gamma": "#c23b22",
}


def _escape(text: str) -> str:
    # imported late: xml.sax.saxutils loads urllib.request, 30 ms on every command
    from xml.sax.saxutils import escape
    return escape(text)


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2:.1f}" y="24" font-family="sans-serif" font-size="15" '
            f'text-anchor="middle">{_escape(title)}</text>',
        ]

    def line(self, x1, y1, x2, y2, color="#333", width=1.0, dash=""):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width:g}"{d}/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}"/>'
        )

    def circle(self, x, y, r, fill):
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:g}" fill="{fill}"/>')

    def text(self, x, y, s, size=11, anchor="middle", color="#222"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{color}">{_escape(s)}</text>'
        )

    def polyline(self, pts, color, width=1.5, dash=""):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}"{d}/>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _axes(cv: _Canvas, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    """Draw frame, ticks and labels; returns data->pixel transforms."""
    px = lambda x: _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda y: _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)
    cv.line(_ML, _H - _MB, _W - _MR, _H - _MB)
    cv.line(_ML, _MT, _ML, _H - _MB)
    for t in _nice_ticks(x_lo, x_hi):
        cv.line(px(t), _H - _MB, px(t), _H - _MB + 4)
        cv.text(px(t), _H - _MB + 17, _fmt(t), size=10)
    for t in _nice_ticks(y_lo, y_hi):
        cv.line(_ML - 4, py(t), _ML, py(t))
        cv.text(_ML - 7, py(t) + 3.5, _fmt(t), size=10, anchor="end")
    cv.text((_ML + _W - _MR) / 2, _H - 14, x_label, size=12)
    cv.parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.2f})">{_escape(y_label)}</text>'
    )
    return px, py


def posterior_svg(report: FitReport) -> str:
    """Effect-size posterior summary for one fitted model."""
    edges = report.d_hist_edges
    counts = report.d_hist_counts
    if len(edges) < 2 or len(counts) != len(edges) - 1:
        raise MalformedReportError("report carries no usable histogram")
    total = sum(counts)
    if total <= 0:
        raise MalformedReportError("histogram is empty")
    width = edges[1] - edges[0]
    dens = [c / (total * width) for c in counts]
    x_lo = min(edges[0], report.ref, report.hdi_low)
    x_hi = max(edges[-1], report.ref, report.hdi_high)
    pad = 0.06 * (x_hi - x_lo) or 1.0
    x_lo, x_hi = x_lo - pad, x_hi + pad
    y_hi = max(dens) * 1.15

    title = f"{report.index_id or 'series'} / {report.model}: effect size posterior"
    cv = _Canvas(title)
    px, py = _axes(cv, x_lo, x_hi, 0.0, y_hi, "effect size d", "posterior density")
    for k, d in enumerate(dens):
        if d <= 0:
            continue
        x0, x1 = px(edges[k]), px(edges[k + 1])
        cv.rect(x0, py(d), x1 - x0, py(0.0) - py(d), "#9ec9e2")
    # reference line with two-sided tail annotation
    below = report.prob_below_ref
    cv.line(px(report.ref), py(0.0), px(report.ref), _MT, "#c23b22", 1.2, dash="5,4")
    cv.text(px(report.ref), _MT - 6,
            f"{below * 100:.1f}% < {_fmt(report.ref)} < {(1 - below) * 100:.1f}%",
            size=11, color="#c23b22")
    # HDI bar just above the x axis
    y_bar = py(0.0) - 12
    cv.line(px(report.hdi_low), y_bar, px(report.hdi_high), y_bar, "#222", 3.0)
    cv.text((px(report.hdi_low) + px(report.hdi_high)) / 2, y_bar - 6,
            f"{report.hdi_mass * 100:g}% HDI [{_fmt(report.hdi_low)}, "
            f"{_fmt(report.hdi_high)}]", size=10)
    cv.line(px(report.d_mean), py(0.0), px(report.d_mean), _MT + 14, "#1f3f8f", 1.4)
    cv.text(px(report.d_mean), _MT + 26, f"mean {_fmt(report.d_mean)}",
            size=10, color="#1f3f8f")
    cv.text(_W - _MR, _H - 14,
            f"ESS {report.ess_d:.0f} | max R\u0302 {_fmt(report.max_rhat)} | "
            f"WAIC {_fmt(report.waic)}", size=10, anchor="end", color="#555")
    return cv.render()


def scan_svg(points: Sequence[ScanPoint], title: str = "") -> str:
    """Effect size against a scanned grid, HDI whiskers, one series per model."""
    ok = [p for p in points if not p.error and math.isfinite(p.d_mean)]
    if not ok:
        raise MalformedReportError("no successful scan points to plot")
    labels = []
    for p in ok:
        try:
            labels.append(float(p.label))
        except ValueError:
            labels.append(float(len(labels)))
    x_lo, x_hi = min(labels), max(labels)
    pad_x = 0.05 * (x_hi - x_lo) or 1.0
    y_vals = [v for p in ok for v in (p.hdi_low, p.hdi_high, p.d_mean)] + [0.0]
    y_lo, y_hi = min(y_vals), max(y_vals)
    pad_y = 0.1 * (y_hi - y_lo) or 1.0

    scan_name = ok[0].scan
    if not title:
        title = f"{ok[0].index_id or 'series'}: effect size across {scan_name} grid"
    cv = _Canvas(title)
    px, py = _axes(cv, x_lo - pad_x, x_hi + pad_x, y_lo - pad_y, y_hi + pad_y,
                   f"{scan_name} grid", "effect size d")
    cv.line(_ML, py(0.0), _W - _MR, py(0.0), "#888", 1.0, dash="4,4")

    by_model: dict[str, list[tuple[float, ScanPoint]]] = {}
    for x, p in zip(labels, ok):
        by_model.setdefault(p.model, []).append((x, p))
    for m_idx, (model, rows) in enumerate(sorted(by_model.items())):
        color = _MODEL_COLORS.get(model, "#444")
        rows.sort(key=lambda r: r[0])
        offset = (m_idx - (len(by_model) - 1) / 2) * 4.0
        for x, p in rows:
            cv.line(px(x) + offset, py(p.hdi_low), px(x) + offset,
                    py(p.hdi_high), color, 1.2)
        cv.polyline([(px(x) + offset, py(p.d_mean)) for x, p in rows], color,
                    dash="" if m_idx == 0 else "6,3")
        for x, p in rows:
            cv.circle(px(x) + offset, py(p.d_mean), 2.6, color)
        cv.text(_W - _MR, _MT + 14 * (m_idx + 1) - 4, model, size=11,
                anchor="end", color=color)
    return cv.render()
