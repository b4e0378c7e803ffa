"""Trajectory diagnostics: energy records, proof functionals, CSV and SVG.

Every recorded instant carries the squared L2 mass, the anisotropic Dirichlet
energy, their sum calE (which is exactly the derivative of the concavity
functional E), the potential functional calF, and the running E itself.  The
certification margins defined here are what ``theorems.certify`` checks
against the theory: calF must not decrease, E''E - (1+sigma)(E')^2 must stay
nonnegative on blow-up runs, and calE must stay under its exponential envelope
on decay runs.

Every text artifact but the report JSON is written by :func:`write_lines`,
and every CSV (the records, a sweep's rows) by :func:`write_table`.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .geometry import Grid, GrushinSpace, integral
from .nonlinearity import F_values, Nonlinearity
from .operators import _degenerate_weight, _weighted_energy, l2_norm_sq


@dataclasses.dataclass(frozen=True)
class EnergyRecord:
    """One recorded instant; its fields, in order, are the CSV's columns."""

    t: float
    dt: float
    l2: float
    grad: float
    calE: float
    calF: float
    supnorm: float
    min_u: float
    E: float


_FIELDS = tuple(f.name for f in dataclasses.fields(EnergyRecord))
CSV_HEADER = ",".join(_FIELDS)


class EnergyTracker:
    """Observer that turns simulation states into :class:`EnergyRecord` rows.

    E accumulates M plus the trapezoid integral of calE over the recorded
    times, so E(t_0) == M on the first record.  Repeated calls at the same
    time are collapsed into one record.

    Only calF and E depend on the tracker's own theta and M.  Trackers that
    measure the same states may share a one-state ``slot``, a list: the
    first measurement of a state puts its theta-free part there, later ones
    reuse it, and the slot's owner empties it before the next state.
    """

    def __init__(self, grid: Grid, space: GrushinSpace, nl: Nonlinearity,
                 theta: float = 0.0, M: float = 0.0,
                 slot: list | None = None) -> None:
        self.grid = grid
        self.space = space
        self.nl = nl
        self.theta = float(theta)
        self.M = float(M)
        self.records: list[EnergyRecord] = []
        self._slot = slot

    @cached_property
    def _weight(self) -> np.ndarray:
        """The y-edge weight, built when this tracker first measures a
        state itself: trackers that share a slot build it once."""
        return _degenerate_weight(self.grid, self.space)

    def _state_part(self, u: np.ndarray, supnorm: float | None = None):
        """The theta-free part of one state: (l2, grad, F(u), supnorm,
        min_u), taken from the slot when it holds one; ``supnorm`` is
        max |u| when the caller knows it."""
        slot = [] if self._slot is None else self._slot
        if not slot:
            slot.append((
                l2_norm_sq(self.grid, u),
                _weighted_energy(self.grid, self.space.m, self._weight, u),
                F_values(self.nl, u),
                float(np.abs(u).max()) if supnorm is None else supnorm,
                float(u.min())))
        return slot[0]

    def _calF(self, grad: float, Fu: np.ndarray) -> float:
        return -0.5 * grad + integral(self.grid, Fu - self.theta)

    def measure(self, u: np.ndarray) -> tuple[float, float, float]:
        """(l2, grad, calF) of one state, with
        calF = -1/2 * grad + integral of (F(u) - theta)."""
        l2, grad, Fu, _, _ = self._state_part(u)
        return l2, grad, self._calF(grad, Fu)

    def __call__(self, state) -> None:
        if self.records and state.t == self.records[-1].t:
            return
        l2, grad, Fu, supnorm, min_u = self._state_part(state.u,
                                                        state.supnorm)
        calE = l2 + grad
        if self.records:
            last = self.records[-1]
            E = last.E + 0.5 * (calE + last.calE) * (state.t - last.t)
        else:
            E = self.M
        self.records.append(EnergyRecord(
            t=float(state.t), dt=float(state.dt), l2=l2, grad=grad,
            calE=calE, calF=self._calF(grad, Fu), supnorm=supnorm,
            min_u=min_u, E=E))


def _times(records) -> np.ndarray:
    if not records:
        raise ValueError("no records")
    t = np.array([r.t for r in records])
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("records must be strictly increasing in t")
    return t


def concavity_margin(records, sigma: float) -> float:
    """min over interior record times of E''(t)E(t) - (1+sigma)E'(t)^2.

    E is each record's own running E, as written to the CSV.  E' is calE
    directly (that identity is exact for the continuous flow, so no
    differencing noise enters at first order); E'' is the centered
    difference of calE over the possibly nonuniform record times.
    """
    if len(records) < 3:
        raise ValueError("concavity margin needs at least 3 records")
    t = _times(records)
    calE = np.array([r.calE for r in records])
    E = np.array([r.E for r in records])
    Epp = (calE[2:] - calE[:-2]) / (t[2:] - t[:-2])
    margins = Epp * E[1:-1] - (1.0 + sigma) * calE[1:-1] ** 2
    return float(margins.min())


def monotonicity_margin(records) -> float:
    """min over consecutive records of calF(t_{j+1}) - calF(t_j)."""
    if len(records) < 2:
        raise ValueError("monotonicity margin needs at least 2 records")
    calF = np.array([r.calF for r in records])
    return float(np.diff(calF).min())


def decay_margin(records, rate: float) -> float:
    """max over records of calE(t)*exp(rate*t)/calE(0).

    A value <= 1 (+tolerance) certifies the exponential envelope with the
    given rate; the sharper the rate the closer to 1 from below.
    """
    t = _times(records)
    calE = np.array([r.calE for r in records])
    if calE[0] <= 0.0:
        raise ValueError(f"calE(0) must be positive, got {calE[0]}")
    return float(np.max(calE * np.exp(rate * t) / calE[0]))


def certified_records(records, status: str):
    """Records eligible for inequality certification.

    On blow-up runs the final 3 records are under-resolved (the step controller
    is collapsing) and are excluded; otherwise all records qualify.
    """
    if status == "blowup":
        return records[:-3]
    return list(records)


# --- serialization ------------------------------------------------------------

def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by an LF."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(path, columns, rows) -> None:
    """The header line of ``columns``, then one line of cells per row: a
    float with 17 significant digits, None as an empty cell, anything else
    by ``str``."""
    write_lines(path, [",".join(columns)] + [
        ",".join("" if v is None else format(v, ".17g")
                 if isinstance(v, float) else str(v) for v in row)
        for row in rows])


def write_csv(records, path) -> None:
    """Write records with 17-significant-digit floats and LF line endings.

    An empty record list still produces the header line, so downstream
    tooling can always distinguish "ran, recorded nothing" from "no file".
    """
    write_table(path, _FIELDS,
                ([getattr(r, f) for f in _FIELDS] for r in records))


def read_csv(path) -> list[EnergyRecord]:
    """Parse a file written by :func:`write_csv`; round-trips bit-exactly."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized header in {path}")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(_FIELDS):
            raise ValueError(f"malformed row: {line!r}")
        out.append(EnergyRecord(**{f: float(v) for f, v in zip(_FIELDS, parts)}))
    return out


# --- SVG plotting -------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def emit_svg_plot(records, fields, path) -> None:
    """Hand-written SVG polyline plot of record fields against t.

    The y axis switches to log10 when some plotted field spans more than
    three decades (and every plotted value is positive).  ``records`` must
    not be empty, and ``fields`` are record fields other than t, as
    ``ExperimentConfig`` checks.
    """
    t = np.array([r.t for r in records])
    series = {f: np.array([getattr(r, f) for r in records]) for f in fields}

    all_vals = np.concatenate(list(series.values()))
    positive = bool(np.all(all_vals > 0.0))
    log_y = False
    if positive:
        for vals in series.values():
            if vals.max() / vals.min() > 1e3:
                log_y = True
                break

    def ymap(v):
        return np.log10(v) if log_y else v

    y_all = ymap(all_vals)
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_lo, x_hi = float(t.min()), float(t.max())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for xv in _ticks(x_lo, x_hi):
        X = px(xv)
        parts.append(f'<line x1="{X:.2f}" y1="{_H - _MB}" x2="{X:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{X:.2f}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle">{xv:.4g}</text>')
    for yv in _ticks(y_lo, y_hi):
        Y = py(yv)
        label = f"1e{yv:.3g}" if log_y else f"{yv:.4g}"
        parts.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" '
                     f'y2="{Y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" '
                 f'font-size="13" text-anchor="middle">t</text>')
    axis_title = ("log10 " if log_y else "") + ", ".join(fields)
    parts.append(f'<text x="{_ML}" y="{_MT - 14}" font-size="13">'
                 f'{axis_title}</text>')

    for pos, (color, f) in enumerate(zip(_PALETTE, fields)):
        pts = " ".join(f"{px(x):.2f},{py(yv):.2f}"
                       for x, yv in zip(t, ymap(series[f])))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{_W - _MR - 120}" y="{_MT + 16 * pos}" '
                     f'font-size="12" fill="{color}">{f}</text>')
    parts.append("</svg>")
    write_lines(path, parts)
