"""The paper's two theorems for u_t - L u_t = L u + f(u), one object each,
and how a march is judged against them.

``THEOREMS`` maps a mode to its theorem; free mode has none.  Each object
states its ``ranges``, sign-condition ``margin`` (sampled by ``check``), F0
``premise``, predicted ``constants`` or ``decay_rate``, the certification
``margins`` it reads off a march, and ``verdict``.  ``BLOWUP`` is blow-up by
the concavity argument, and ``GLOBAL`` global existence with decay by the
Grushin Poincare inequality.  ``certify`` builds the report's ``margins``
block (calF's monotonicity in every mode, then the theorem's own), and
``judge`` its ``verdict`` and ``consistency`` block, from the tolerances
stated here.  Only the decay margin enters a verdict; the monotonicity and
concavity flags are reported, not judged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import (certified_records, concavity_margin, decay_margin,
                          monotonicity_margin)
from .nonlinearity import _samples

BLOWUP_TIME_SLACK = 1.1      # declared factor on the blow-up time bound
DECAY_MARGIN_TOL = 1e-3      # decay envelope certification tolerance
CERT_RTOL = 1e-6             # relative margin tolerance vs. local scale
_MARGIN_RTOL = 1e-12


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of sampling a structural inequality over (0, u_max].

    ``worst_margin`` is the raw margin at the point with the worst normalized
    margin.  A non-finite margin is the worst of all: ``argmin_u`` is then the
    first such sample and ``worst_margin`` and ``scale_at_argmin`` are None.
    ``holds`` means every normalized margin clears -1e-12, i.e.
    margin >= -1e-12 * (1 + scale) pointwise with scale the sum of the
    absolute values of the inequality's four terms at that point.
    ``constraint_violations`` lists parameter-range failures separately.
    """

    holds: bool
    worst_margin: float | None
    scale_at_argmin: float | None
    argmin_u: float
    u_range: tuple[float, float]
    samples: int
    constraint_violations: tuple[str, ...] = ()


def compute_blowup_constants(alpha: float, F0: float, I0: float):
    """(sigma, M, Tstar_bound) from the initial data functionals.

    sigma = sqrt(alpha/2) - 1, M = (1+sigma)(1+1/sigma) I0^2 / (2 alpha F0),
    Tstar_bound = M / (sigma I0).  Each precondition fails with its own
    message: alpha > 2, F0 > 0, I0 > 0.
    """
    if not alpha > 2.0:
        raise ValueError(f"blow-up constants need alpha > 2, got alpha = {alpha}")
    if not F0 > 0.0:
        raise ValueError(f"blow-up constants need F0 > 0, got F0 = {F0}")
    if not I0 > 0.0:
        raise ValueError(f"blow-up constants need I0 > 0, got I0 = {I0}")
    sigma = math.sqrt(alpha / 2.0) - 1.0
    M = (1.0 + sigma) * (1.0 + 1.0 / sigma) * I0 * I0 / (2.0 * alpha * F0)
    tstar = M / (sigma * I0)
    return sigma, M, tstar


@dataclass(frozen=True)
class _Theorem:
    """What both theorems share, and None for what a theorem lacks."""

    needs_lambda1: bool = False   # whether ``ranges`` reads the eigenvalue

    def check(self, nl, alpha: float, beta: float, theta: float,
              u_max: float, samples: int = 10_001) -> HypothesisReport:
        """Sample the sign condition on (0, u_max]: it holds where
        :meth:`margin`, the larger side less the smaller, clears the relative
        floor.  Ranges that do not need the eigenvalue are reported too."""
        s = _samples(nl, u_max, samples)
        u, fu, Fu = s.u, s.fu, s.Fu
        scales = (np.abs(u * fu) + abs(beta) * u * u + abs(alpha * theta)
                  + abs(alpha) * np.abs(Fu))
        margins = self.margin(alpha, beta, theta, u, fu, Fu)
        normalized = margins / (1.0 + scales)
        undefined = ~np.isfinite(normalized)
        if undefined.any():
            i = int(np.argmax(undefined))
            holds, worst, scale = False, None, None
        else:
            i = int(np.argmin(normalized))
            holds = bool(normalized[i] >= -_MARGIN_RTOL)
            worst, scale = float(margins[i]), float(scales[i])
        violations = () if self.needs_lambda1 else [
            f"{name} fails: {detail}" for name, ok, detail
            in self.ranges(alpha, beta, theta, None) if not ok]
        return HypothesisReport(
            holds=holds, worst_margin=worst, scale_at_argmin=scale,
            argmin_u=float(u[i]), u_range=(0.0, float(u_max)),
            samples=int(u.size), constraint_violations=tuple(violations))

    def premise(self, F0: float) -> bool:
        return F0 > 0.0

    joint_satisfiable = staticmethod(lambda holds, F0: None)
    decay_rate = staticmethod(lambda alpha: None)
    constants = staticmethod(lambda alpha, F0, I0: (None, None, None))


class _BlowUp(_Theorem):
    """Blow-up no later than ``BLOWUP_TIME_SLACK * Tstar_bound``, where
    alpha*F(u) <= u f(u) + beta u^2 + alpha*theta on (0, u_max]."""

    def ranges(self, alpha, beta, theta, lambda1):
        cap = lambda1 * (alpha - 2.0) / 2.0
        return (("alpha > 2", alpha > 2.0, f"alpha = {alpha}"),
                ("0 < beta <= lambda1*(alpha-2)/2", 0.0 < beta <= cap,
                 f"beta = {beta}, lambda1*(alpha-2)/2 = {cap} "
                 f"(lambda1 = {lambda1})"),
                ("theta > 0", theta > 0.0, f"theta = {theta}"))

    def margin(self, alpha, beta, theta, u, fu, Fu):
        return u * fu + beta * u * u + alpha * theta - alpha * Fu

    constants = staticmethod(compute_blowup_constants)

    def margins(self, cert, rpt):
        """The concavity margin at sigma, once the premises gave sigma."""
        if rpt.sigma is None or len(cert) < 3:
            return {}
        calE = np.array([r.calE for r in cert])
        return _bounded_below("concavity", concavity_margin(cert, rpt.sigma),
                              max(1.0, float(((1.0 + rpt.sigma)
                                              * calE ** 2).max())))

    def verdict(self, status, t_blow, t_final, tstar_bound,
                decay_margin_value):
        if tstar_bound is None:
            return "Inconclusive"
        horizon = BLOWUP_TIME_SLACK * tstar_bound
        if status == "blowup":
            return ("ConsistentWithTheorem" if t_blow <= horizon
                    else "InconsistencyFlag")
        return "InconsistencyFlag" if t_final >= horizon else "Inconclusive"


class _GlobalDecay(_Theorem):
    """Global existence with calE(t) <= calE(0) exp(-decay_rate t), where
    alpha*F(u) >= u f(u) + beta u^2 + alpha*theta on (0, u_max]."""

    def ranges(self, alpha, beta, theta, lambda1):
        half = (2.0 - alpha) / 2.0
        return (("alpha <= 0", alpha <= 0.0, f"alpha = {alpha}"),
                ("beta >= (2-alpha)/2", beta >= half,
                 f"beta = {beta}, (2-alpha)/2 = {half}"),
                ("theta >= 0", theta >= 0.0, f"theta = {theta}"))

    def margin(self, alpha, beta, theta, u, fu, Fu):
        return alpha * Fu - u * fu - beta * u * u - alpha * theta

    def joint_satisfiable(self, holds, F0):
        return bool(holds and self.premise(F0))

    def decay_rate(self, alpha):
        return 2.0 - alpha

    def decays(self, margin):
        return margin <= 1.0 + DECAY_MARGIN_TOL

    def margins(self, cert, rpt):
        """The decay margin at decay_rate, which needs calE(0) > 0."""
        if not (cert and cert[0].calE > 0.0):
            return {}
        margin = decay_margin(cert, rpt.decay_rate)
        return {"decay": margin, "decay_rate": rpt.decay_rate,
                "decay_ok": self.decays(margin)}

    def verdict(self, status, t_blow, t_final, tstar_bound,
                decay_margin_value):
        if status == "blowup":
            return "InconsistencyFlag"
        if decay_margin_value is None:
            return "Inconclusive"
        return ("ConsistentWithTheorem" if self.decays(decay_margin_value)
                else "InconsistencyFlag")


BLOWUP, GLOBAL = _BlowUp(needs_lambda1=True), _GlobalDecay()
THEOREMS = {"blowup": BLOWUP, "global": GLOBAL}

check_blowup_hypothesis = BLOWUP.check
check_global_hypothesis = GLOBAL.check


def _bounded_below(name, margin, scale) -> dict:
    """A margin's entries; it holds where it clears -CERT_RTOL * scale."""
    return {name: margin, f"{name}_scale": scale,
            f"{name}_ok": bool(margin >= -CERT_RTOL * scale)}


def certify(mode, records, status, rpt) -> dict:
    """The report's ``margins`` block: calF's monotonicity in every mode and
    then the mode's theorem's own margins, over the certified records."""
    cert = certified_records(records, status)
    out = {
        "certified_count": len(cert),
        "excluded_count": len(records) - len(cert),
        "monotonicity": None, "monotonicity_scale": None,
        "monotonicity_ok": None,
        "concavity": None, "concavity_scale": None, "concavity_ok": None,
        "decay": None, "decay_rate": None, "decay_ok": None,
    }
    if len(cert) >= 2:
        out.update(_bounded_below("monotonicity", monotonicity_margin(cert),
                                  max(1.0, max(abs(r.calF) for r in cert))))
    if mode in THEOREMS:
        out.update(THEOREMS[mode].margins(cert, rpt))
    return out


def decide_verdict(mode: str, hypotheses_met: bool, sim_status: str,
                   t_blow: float | None, t_final: float,
                   tstar_bound: float | None,
                   decay_margin_value: float | None) -> str | None:
    """Pure verdict logic, synthetic-report testable.

    Free mode carries no verdict.  InconsistencyFlag fires only when every
    checked premise held and the observed outcome still contradicts the
    prediction, as the mode's theorem judges it; a run that merely stopped
    short of the predicted window is Inconclusive.
    """
    theorem = THEOREMS.get(mode)
    if theorem is None:
        return None
    if not hypotheses_met:
        return "HypothesesNotMet"
    if sim_status == "failed":
        return "Inconclusive"
    return theorem.verdict(sim_status, t_blow, t_final, tstar_bound,
                           decay_margin_value)


def judge(mode, hypotheses_met, final, rpt):
    """The report's ``verdict`` on the march that ended in ``final``, and its
    ``consistency`` block: the tolerances every verdict is judged with."""
    return (decide_verdict(mode, hypotheses_met, final.status, final.t_blow,
                           final.t, rpt.Tstar_bound, rpt.margins["decay"]),
            {"blowup_time_slack": BLOWUP_TIME_SLACK,
             "decay_margin_tol": DECAY_MARGIN_TOL,
             "certification_rtol": CERT_RTOL})
