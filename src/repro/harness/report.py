"""Renderers for the paper's tables and figures (text form).

Every benchmark prints, side by side, the paper's published value and the
measured one, so a reader can check the *shape* claims at a glance.
Figures are rendered as the series of points the paper plots.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """A fixed-width text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out = [f"== {title} ==", line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def format_series(title: str, points: Sequence[Tuple[float, float]],
                  x_label: str = "t", y_label: str = "y",
                  max_points: int = 40, width: int = 50) -> str:
    """A figure as a downsampled ASCII spark-series."""
    if not points:
        return f"== {title} == (no data)"
    step = max(1, len(points) // max_points)
    sampled = points[::step]
    peak = max(y for _x, y in sampled) or 1.0
    out = [f"== {title} ==  ({x_label} vs {y_label}, peak={peak:.1f})"]
    for x, y in sampled:
        bar = "#" * int(round(width * y / peak))
        out.append(f"{x:>8.1f} | {bar} {y:.1f}")
    return "\n".join(out)


def linear_regression(points: Sequence[Tuple[float, float]]
                      ) -> Tuple[float, float, float]:
    """Least squares fit: returns (slope, intercept, r_squared).

    Used for the paper's Section 5.3 scaleup lines and the WIPS/WIRT
    correlation coefficients.
    """
    n = len(points)
    if n < 2:
        return 0.0, (points[0][1] if points else 0.0), 1.0
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0:
        return 0.0, mean_y, 1.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = (sxy * sxy) / (sxx * syy) if syy > 0 else 1.0
    return slope, intercept, r_squared


def regression_confidence(points: Sequence[Tuple[float, float]],
                          alpha: float = 0.05
                          ) -> Tuple[float, float, float]:
    """Slope with its two-sided (1-alpha) confidence interval.

    The paper's Figure 4 plots least-squares scaleup lines ("confidence
    coefficients omitted"); this supplies them.  Returns
    ``(slope, ci_low, ci_high)`` using the t-distribution on the slope's
    standard error.  With fewer than three points the interval is
    unbounded (``±inf``).  Needs the ``report`` extra (scipy), the
    package's only third-party import.
    """
    try:
        from scipy import stats
    except ImportError as error:
        raise ImportError(
            "regression_confidence needs scipy for the t-distribution: "
            "pip install 'repro[report]'") from error

    n = len(points)
    slope, intercept, _r2 = linear_regression(points)
    if n < 3:
        return slope, float("-inf"), float("inf")
    xs = [x for x, _y in points]
    residuals = [y - (slope * x + intercept) for x, y in points]
    mean_x = sum(xs) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return slope, float("-inf"), float("inf")
    sigma2 = sum(r * r for r in residuals) / (n - 2)
    stderr = math.sqrt(sigma2 / sxx)
    t_crit = stats.t.ppf(1.0 - alpha / 2.0, df=n - 2)
    return slope, slope - t_crit * stderr, slope + t_crit * stderr


def compare(label: str, paper: Optional[float], measured: Optional[float],
            unit: str = "") -> List[object]:
    """One row of a paper-vs-measured table."""
    return [label,
            "-" if paper is None else f"{paper:g}{unit}",
            "-" if measured is None else f"{measured:.3g}{unit}"]


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
