"""Source terms f(u), their antiderivatives, and the sign-condition checks.

Two variants: a signed power law c*sign(u)*|u|^p with the exact antiderivative,
and a parsed arithmetic expression in u whose antiderivative is computed by
adaptive Simpson quadrature.  The module also hosts the numeric checks of the
two structural inequalities (one forcing finite-time blow-up, one forcing
exponential decay) that the experiment runner certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ExpressionError(ValueError):
    """Lex/parse failure; ``offset`` is the byte position in the source."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """Expression evaluation produced non-finite values at specific points."""


class QuadratureError(ValueError):
    """Adaptive Simpson failed to reach its tolerance."""


# --- expression parsing -----------------------------------------------------

_OPS = set("+-*/^()")
MAX_DEPTH = 64  # nesting levels; parser and evaluator recurse once per level
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch == "u":
            tokens.append(("u", None, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"malformed number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := '-' unary | power;
    power := primary ('^' unary)?; primary := num | 'u' | '(' expr ')'.
    '^' is right-associative and binds tightest."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected {tok[0]!r} after expression", tok[2])
        # Operator chains nest without parser recursion: measure the tree.
        level = [node]
        for _ in range(MAX_DEPTH):
            level = [c for n in level for c in n[1:] if isinstance(c, tuple)]
        if level:
            raise ExpressionError(_TOO_DEEP, 0)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = (op, node, self.unary())
        return node

    def unary(self):  # every parser recursion passes through here
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExpressionError(_TOO_DEEP, self.peek()[2])
        if self.peek()[0] == "-":
            self.take()
            node = ("neg", self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.primary()
        if self.peek()[0] == "^":
            self.take()
            return ("^", base, self.unary())
        return base

    def primary(self):
        kind, value, offset = self.take()
        if kind == "num":
            return ("num", value)
        if kind == "u":
            return ("var",)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(
            f"expected a number, 'u' or '(', found {kind!r}", offset)


def _eval_ast(node, u: np.ndarray) -> np.ndarray:
    kind = node[0]
    if kind == "num":
        return np.full_like(u, node[1])
    if kind == "var":
        return u
    if kind == "neg":
        return -_eval_ast(node[1], u)
    a = _eval_ast(node[1], u)
    b = _eval_ast(node[2], u)
    with np.errstate(all="ignore"):
        if kind == "+":
            return a + b
        if kind == "-":
            return a - b
        if kind == "*":
            return a * b
        if kind == "/":
            return a / b
        if kind == "^":
            return np.power(a, b)
    raise AssertionError(f"unknown node {kind!r}")


# --- nonlinearity variants ---------------------------------------------------

@dataclass(frozen=True)
class Power:
    """f(u) = c * sign(u) * |u|^p (odd extension), F(u) = c |u|^(p+1)/(p+1)."""

    p: float
    c: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.p) or self.p <= 1.0:
            raise ValueError(f"power exponent must satisfy p > 1, got {self.p}")
        if not np.isfinite(self.c) or self.c <= 0.0:
            raise ValueError(f"power coefficient must satisfy c > 0, got {self.c}")


@dataclass(frozen=True, eq=False)
class Expression:
    """Parsed source term; antiderivative values are quadratures."""

    text: str
    ast: tuple = field(repr=False)

    def __init__(self, text: str) -> None:
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "ast", _Parser(text).parse())
        f0 = _eval_ast(self.ast, np.array([0.0]))[0]
        if not np.isfinite(f0) or abs(f0) > 1e-12:
            raise ValueError(
                f"expression {text!r} must vanish at u = 0, got f(0) = {f0}")


Nonlinearity = Power | Expression


def parse_expression(text: str) -> Expression:
    """Parse an arithmetic expression in u into a usable source term."""
    return Expression(text)


def f_values(nl: Nonlinearity, u: np.ndarray) -> np.ndarray:
    """Vectorized f(u); raises :class:`DomainError` naming offending points."""
    u = np.asarray(u, dtype=float)
    if isinstance(nl, Power):
        return nl.c * np.sign(u) * np.abs(u) ** nl.p
    out = _eval_ast(nl.ast, u)
    if out is u:  # bare "u": do not hand back an alias of the input
        out = u.copy()
    bad = ~np.isfinite(out)
    if bad.any():
        pts = np.atleast_1d(u)[np.atleast_1d(bad)][:3]
        raise DomainError(
            f"expression {nl.text!r} is non-finite at u = "
            f"{', '.join(repr(float(p)) for p in pts)}"
            f"{' ...' if int(bad.sum()) > 3 else ''} ({int(bad.sum())} points)")
    return out


def eval_f(nl: Nonlinearity, u: float) -> float:
    """Pointwise f(u)."""
    return float(f_values(nl, np.asarray(float(u))))


def _simpson_batch(fun, a: np.ndarray, b: np.ndarray, tol: np.ndarray,
                   max_depth: int = 60) -> np.ndarray:
    """Adaptive Simpson of ``fun`` over many segments at once.

    Classic halving with the |S2 - S1| <= 15*tol acceptance test and
    Richardson extrapolation on accept; the worklist is processed in bulk so
    expression ASTs are only ever evaluated on arrays.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape).ravel().copy()
    out = np.zeros(a.shape)
    mid = 0.5 * (a + b)
    fa, fm, fb = fun(a), fun(mid), fun(b)
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    seg = np.arange(a.size)
    depth = np.zeros(a.size, dtype=np.int64)
    wa, wb, wfa, wfm, wfb, wS, wtol, wseg, wdepth = (
        a, b, fa, fm, fb, S, tol, seg, depth)
    eps = np.finfo(float).eps
    while wa.size:
        if wa.size > 1_000_000:
            raise QuadratureError(
                "adaptive Simpson worklist exceeded 1e6 intervals; the "
                "integrand does not settle at the requested tolerance")
        if not np.all(np.isfinite(wS)):
            i = wseg[np.argmin(np.isfinite(wS))]
            raise QuadratureError("integrand is non-finite inside the segment "
                                  f"[{float(a[i])}, {float(b[i])}]")
        m = 0.5 * (wa + wb)
        lm, rm = 0.5 * (wa + m), 0.5 * (m + wb)
        flm, frm = fun(lm), fun(rm)
        Sl = (m - wa) / 6.0 * (wfa + 4.0 * flm + wfm)
        Sr = (wb - m) / 6.0 * (wfm + 4.0 * frm + wfb)
        S2 = Sl + Sr
        err = S2 - wS
        # Halved tolerances bottom out at the rounding floor of the local
        # sums, and intervals stop splitting once their width is no longer
        # representable; otherwise smooth-but-large segments could never
        # accept and the worklist would grow without bound.
        floor = eps * (np.abs(Sl) + np.abs(Sr))
        width_floor = 4.0 * eps * np.maximum(np.abs(wa), np.abs(wb))
        done = (np.abs(err) <= np.maximum(15.0 * wtol, floor)) \
            | (wb - wa <= width_floor)
        if np.any(~done & (wdepth >= max_depth)):
            raise QuadratureError(
                f"adaptive Simpson exceeded depth {max_depth}")
        np.add.at(out, wseg[done], S2[done] + err[done] / 15.0)
        keep = ~done
        wa = np.concatenate([wa[keep], m[keep]])
        wb = np.concatenate([m[keep], wb[keep]])
        wfa = np.concatenate([wfa[keep], wfm[keep]])
        wfb = np.concatenate([wfm[keep], wfb[keep]])
        wfm = np.concatenate([flm[keep], frm[keep]])
        wS = np.concatenate([Sl[keep], Sr[keep]])
        wtol = np.concatenate([0.5 * wtol[keep], 0.5 * wtol[keep]])
        wseg = np.concatenate([wseg[keep], wseg[keep]])
        wdepth = np.concatenate([wdepth[keep] + 1, wdepth[keep] + 1])
    return out


def F_values(nl: Nonlinearity, u: np.ndarray) -> np.ndarray:
    """Vectorized antiderivative F(u) = integral of f from 0 to u.

    Power uses the closed form.  Expression integrates segment-by-segment
    over the sorted unique values, so a whole nodal vector costs one batched
    quadrature pass instead of one recursion per node.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(nl, Power):
        return nl.c * np.abs(u) ** (nl.p + 1.0) / (nl.p + 1.0)
    flat = np.atleast_1d(u).ravel()
    vs = np.unique(np.concatenate([[0.0], flat]))
    fun = lambda x: _eval_ast(nl.ast, x)
    try:
        pieces = _simpson_batch(fun, vs[:-1], vs[1:], 1e-12)
    except QuadratureError as exc:
        raise QuadratureError(f"F of expression {nl.text!r}: {exc}") from exc
    prefix = np.concatenate([[0.0], np.cumsum(pieces)])
    i0 = int(np.searchsorted(vs, 0.0))
    F_at = prefix - prefix[i0]
    return F_at[np.searchsorted(vs, flat)].reshape(np.shape(u))


def eval_F(nl: Nonlinearity, u: float) -> float:
    """Antiderivative at one point, the scalar case of :func:`F_values`."""
    return float(F_values(nl, np.array([float(u)]))[0])


# --- hypothesis checks --------------------------------------------------------

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


_MARGIN_RTOL = 1e-12


def sample_points(u_max: float, samples: int = 10_001) -> np.ndarray:
    """Sampling grid on (0, u_max]: half geometric toward 0, half uniform."""
    if not np.isfinite(u_max) or u_max <= 0.0:
        raise ValueError(f"u_max must be positive, got {u_max}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    n_geo = samples // 2
    n_lin = samples - n_geo
    geo = np.geomspace(u_max * 1e-12, u_max, n_geo)
    lin = np.linspace(u_max / n_lin, u_max, n_lin)
    return np.unique(np.concatenate([geo, lin]))


def _margin_report(u, margins, scales, u_max, violations=()):
    normalized = margins / (1.0 + scales)
    undefined = ~np.isfinite(normalized)
    if undefined.any():
        i = int(np.argmax(undefined))
        holds, worst, scale = False, None, None
    else:
        i = int(np.argmin(normalized))
        holds = bool(normalized[i] >= -_MARGIN_RTOL)
        worst, scale = float(margins[i]), float(scales[i])
    return HypothesisReport(
        holds=holds,
        worst_margin=worst,
        scale_at_argmin=scale,
        argmin_u=float(u[i]),
        u_range=(0.0, float(u_max)),
        samples=int(u.size),
        constraint_violations=tuple(violations))


def _f_unchecked(nl, u):
    """f(u) on a sampling grid, keeping non-finite values instead of raising."""
    try:
        return f_values(nl, u)
    except DomainError:
        return _eval_ast(nl.ast, u)


def _sign_terms(nl, alpha, beta, theta, u_max, samples):
    """Sampled u, f(u), F(u) and the scale of the sign conditions' terms.

    From the first sample where f is non-finite on, f and F (the integral of
    f from 0) are NaN, so every margin there is NaN and fails.
    """
    u = sample_points(u_max, samples)
    fu = _f_unchecked(nl, u)
    defined = np.cumprod(np.isfinite(fu)).astype(bool)
    fu = np.where(defined, fu, np.nan)
    Fu = np.full(u.shape, np.nan)
    Fu[defined] = F_values(nl, u[defined])
    scales = (np.abs(u * fu) + abs(beta) * u * u + abs(alpha * theta)
              + abs(alpha) * np.abs(Fu))
    return u, fu, Fu, scales


def decay_ranges(alpha: float, beta: float, theta: float):
    """(name, ok, detail) for each parameter range of the decay theorem."""
    half = (2.0 - alpha) / 2.0
    return (("alpha <= 0", alpha <= 0.0, f"alpha = {alpha}"),
            ("beta >= (2-alpha)/2", beta >= half,
             f"beta = {beta}, (2-alpha)/2 = {half}"),
            ("theta >= 0", theta >= 0.0, f"theta = {theta}"))


def check_blowup_hypothesis(nl: Nonlinearity, alpha: float, beta: float,
                            theta: float, u_max: float,
                            samples: int = 10_001) -> HypothesisReport:
    """Sample the blow-up sign condition alpha*F(u) <= u f(u) + beta u^2 + alpha*theta.

    The margin is u f(u) + beta u^2 + alpha theta - alpha F(u); nonnegative
    margins (up to the relative floor) mean the condition holds on (0, u_max].
    Parameter ranges (alpha > 2, beta bounds needing the eigenvalue) are the
    runner's business, not checked here.
    """
    u, fu, Fu, scales = _sign_terms(nl, alpha, beta, theta, u_max, samples)
    margins = u * fu + beta * u * u + alpha * theta - alpha * Fu
    return _margin_report(u, margins, scales, u_max)


def check_global_hypothesis(nl: Nonlinearity, alpha: float, beta: float,
                            theta: float, u_max: float,
                            samples: int = 10_001) -> HypothesisReport:
    """Sample the decay sign condition alpha*F(u) >= u f(u) + beta u^2 + alpha*theta.

    Also validates the parameter ranges of :func:`decay_ranges`, reporting
    violations separately from margin failures.
    """
    violations = [f"{name} fails: {detail}"
                  for name, ok, detail in decay_ranges(alpha, beta, theta)
                  if not ok]
    u, fu, Fu, scales = _sign_terms(nl, alpha, beta, theta, u_max, samples)
    margins = alpha * Fu - u * fu - beta * u * u - alpha * theta
    return _margin_report(u, margins, scales, u_max, violations)


def check_f_positive(nl: Nonlinearity, u_max: float,
                     samples: int = 10_001) -> tuple[bool, float | None]:
    """Sample whether f(u) > 0 on (0, u_max]; returns (ok, first offender).

    Positivity is reported, never assumed: a failing sample, including one
    where f is non-finite, only annotates the experiment report.
    """
    u = sample_points(u_max, samples)
    fu = _f_unchecked(nl, u)
    bad = ~(np.isfinite(fu) & (fu > 0.0))
    if bad.any():
        return False, float(u[np.argmax(bad)])
    return True, None
