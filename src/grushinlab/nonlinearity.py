"""Source terms f(u), their antiderivatives F(u), and samples on (0, u_max].

Two variants: a signed power law c*sign(u)*|u|^p with the exact antiderivative,
and a parsed arithmetic expression in u whose antiderivative is computed by
adaptive Simpson quadrature.  The quadrature integrates between the sorted
nodal values as they are: a repeated value bounds a zero-width segment,
whose sum is exactly +0.0 and which is never named as the non-finite one.
It evaluates f once at each node and runs its halving rounds in fixed
blocks of segments, so its temporaries stay block-sized; the peak memory of
one call on 16,129 values, sorting them included, is then about 8.4 copies
of the state.  The checks on f sample one grid of (0, u_max]: the
positivity scan here, and the two theorems' sign conditions, which
``theorems.py`` states, as it does every other part of a theorem.  The last
grid with f on it, and F once a sign condition asks for it, is kept, so
checks that share a source term and u_max, as the rows of a sweep do, sample
it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _f_unchecked(nl: Nonlinearity, u: np.ndarray) -> np.ndarray:
    """f(u) on a float array, keeping non-finite values."""
    if isinstance(nl, Power):
        return nl.c * np.sign(u) * np.abs(u) ** nl.p
    out = _eval_ast(nl.ast, u)
    return u.copy() if out is u else out  # bare "u": no alias of the input


def f_values(nl: Nonlinearity, u: np.ndarray) -> np.ndarray:
    """Vectorized f(u); raises :class:`DomainError` naming the points where
    an expression is non-finite."""
    u = np.asarray(u, dtype=float)
    out = _f_unchecked(nl, u)
    if isinstance(nl, Power):
        return out
    bad = ~np.isfinite(out)
    if bad.any():
        pts = np.atleast_1d(u)[np.atleast_1d(bad)][:3]
        raise DomainError(
            f"expression {nl.text!r} is non-finite at u = "
            f"{', '.join(repr(float(p)) for p in pts)}"
            f"{' ...' if int(bad.sum()) > 3 else ''} ({int(bad.sum())} points)")
    return out


_BLOCK = 4096        # segments per block of a halving round: 32 KB per array
_SIMPSON_DEPTH = 60  # halvings before a segment that has not settled fails


def _simpson_rule(a, b, fa, fm, fb):
    """(b - a)/6 * (fa + 4 fm + fb), elementwise, in that operation order."""
    w = b - a
    w /= 6.0
    s = 4.0 * fm
    s += fa
    s += fb
    w *= s
    return w


def _check_finite(S, seg, x):
    finite = np.isfinite(S)
    if not finite.all():
        # A zero-width segment is never the one named: f is non-finite at
        # its node, so the positive-width segment at that node is too.
        finite |= x[seg] == x[seg + 1]
        if not finite.all():
            i = seg[np.argmin(finite)]
            # The first of equal nodes names the segment: 0.0 and -0.0
            # compare equal, and the sort may end their run with either.
            a = x[np.searchsorted(x, x[i])]
            raise QuadratureError("integrand is non-finite inside the "
                                  f"segment [{float(a)}, {float(x[i + 1])}]")


def _first_round(fun, x, fx):
    """Blocks of the initial worklist: every segment [x[i], x[i+1]] with its
    midpoint and one-panel Simpson sum, checked block by block."""
    for lo in range(0, x.size - 1, _BLOCK):
        a, b = x[:-1][lo:lo + _BLOCK], x[1:][lo:lo + _BLOCK]
        fa, fb = fx[:-1][lo:lo + _BLOCK], fx[1:][lo:lo + _BLOCK]
        m = a + b
        m *= 0.5
        fm = fun(m)
        S = _simpson_rule(a, b, fa, fm, fb)
        seg = np.arange(lo, lo + a.size)
        _check_finite(S, seg, x)
        yield a, b, m, fa, fb, fm, S, seg


def _next_round(work, x):
    """Blocks of a later worklist, which is checked as a whole first, so that
    a non-finite sum anywhere in it is reported before any block runs."""
    _check_finite(work[6], work[7], x)
    for lo in range(0, work[0].size, _BLOCK):
        yield tuple(w[lo:lo + _BLOCK] for w in work)


def _simpson_batch(fun, x: np.ndarray, tol: float) -> np.ndarray:
    """Adaptive Simpson of ``fun`` over each segment [x[i], x[i+1]].

    ``fun`` is evaluated once at each node, and the value is shared by the
    two segments the node bounds.  Classic halving with the
    |S2 - S1| <= 15*tol acceptance test and Richardson extrapolation on
    accept (Lyness, J. ACM 16, 1969).  All segments of a round sit at the same depth, so the
    tolerance is one number per round.  A round walks its worklist in blocks
    of ``_BLOCK`` segments, so every temporary is block-sized and the
    expression AST is only ever evaluated on arrays.  The survivors' halves,
    all left halves then all right halves, form the next worklist, and each
    half keeps its quarter point as its midpoint.  Beyond the result, memory
    holds the survivors (seven floats and one index each) and a few blocks;
    the first round is built block by block, so a smooth f that settles at
    once never allocates a segment-sized array.  A block that the error
    test settles whole adds its sums with no masks; otherwise the width
    floor is tested only on the segments the error test left open.
    """
    out = np.zeros(x.size - 1)
    eps = np.finfo(float).eps
    blocks = _first_round(fun, x, fun(x))
    depth = 0
    while True:
        # Halved tolerances bottom out at the rounding floor of the local
        # sums, and intervals stop splitting once their width is no longer
        # representable; otherwise smooth-but-large segments could never
        # accept and the worklist would grow without bound.
        accept = 15.0 * tol
        lefts, rights = [], []
        for a, b, m, fa, fb, fm, S, seg in blocks:
            lm = a + m
            lm *= 0.5
            rm = m + b
            rm *= 0.5
            flm, frm = fun(lm), fun(rm)
            Sl = _simpson_rule(a, m, fa, flm, fm)
            Sr = _simpson_rule(m, b, fm, frm, fb)
            S2 = Sl + Sr
            err = S2 - S
            floor = np.abs(Sl)
            floor += np.abs(Sr)
            floor *= eps
            np.maximum(floor, accept, out=floor)
            done = np.abs(err) <= floor
            if done.all():   # the whole block settles: no masks to apply
                np.add.at(out, seg, S2 + err / 15.0)
                continue
            # The width floor, only where the error test left segments open.
            open_ = np.flatnonzero(~done)
            a_open, b_open = a[open_], b[open_]
            width_floor = np.maximum(np.abs(a_open), np.abs(b_open))
            width_floor *= 4.0 * eps
            done[open_] = b_open - a_open <= width_floor
            if depth >= _SIMPSON_DEPTH and not done.all():
                raise QuadratureError(
                    f"adaptive Simpson exceeded depth {_SIMPSON_DEPTH}")
            np.add.at(out, seg[done], S2[done] + err[done] / 15.0)
            keep = ~done
            if keep.any():
                left = (a, m, lm, fa, fm, flm, Sl, seg)
                right = (m, b, rm, fm, fb, frm, Sr, seg)
                lefts.append([w[keep] for w in left])
                rights.append([w[keep] for w in right])
        if not lefts:
            return out
        work = tuple(np.concatenate(ws) for ws in zip(*lefts, *rights))
        if work[0].size > 1_000_000:
            raise QuadratureError(
                "adaptive Simpson worklist exceeded 1e6 intervals; the "
                "integrand does not settle at the requested tolerance")
        blocks = _next_round(work, x)
        tol *= 0.5
        depth += 1


def F_values(nl: Nonlinearity, u: np.ndarray) -> np.ndarray:
    """Vectorized antiderivative F(u) = integral of f from 0 to u.

    Power uses the closed form.  Expression integrates segment-by-segment
    between consecutive values of 0 and u, sorted, so a whole nodal vector
    costs one batched quadrature pass instead of one recursion per node, and
    f is evaluated once at each node.  A repeated value bounds a zero-width
    segment, whose sum is exactly +0.0, so equal values get equal F.
    """
    u = np.asarray(u, dtype=float)
    if isinstance(nl, Power):
        return nl.c * np.abs(u) ** (nl.p + 1.0) / (nl.p + 1.0)
    nodes = np.concatenate([[0.0], np.ravel(u)])
    order = np.argsort(nodes)
    nodes = nodes[order]
    fun = lambda x: _eval_ast(nl.ast, x)
    try:
        pieces = _simpson_batch(fun, nodes, 1e-12)
    except QuadratureError as exc:
        raise QuadratureError(f"F of expression {nl.text!r}: {exc}") from exc
    prefix = np.concatenate([[0.0], np.cumsum(pieces)])
    prefix -= prefix[np.argmin(order)]   # F is 0 where 0 was sorted to
    F = np.empty_like(prefix)
    F[order] = prefix
    return F[1:].reshape(np.shape(u))


def eval_F(nl: Nonlinearity, u: float) -> float:
    """Antiderivative at one point, the scalar case of :func:`F_values`."""
    return float(F_values(nl, np.array([float(u)]))[0])


# --- sampling (0, u_max] ------------------------------------------------------

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Samples:
    """One sampling grid u of (0, u_max] with f on it, and F once a sign
    condition asks for it; every array is read-only.

    From the first sample where f is non-finite on, f and F (the integral of
    f from 0) are NaN, so every margin there is NaN and fails.
    """

    def __init__(self, nl: Nonlinearity, u_max: float, samples: int) -> None:
        self.nl = nl
        self.u = _frozen(sample_points(u_max, samples))
        fu = _f_unchecked(nl, self.u)
        self.defined = _frozen(np.cumprod(np.isfinite(fu)).astype(bool))
        self.fu = _frozen(np.where(self.defined, fu, np.nan))

    @cached_property
    def Fu(self) -> np.ndarray:
        Fu = np.full(self.u.shape, np.nan)
        Fu[self.defined] = F_values(self.nl, self.u[self.defined])
        return _frozen(Fu)


@lru_cache(maxsize=1)
def _samples(nl: Nonlinearity, u_max: float, samples: int) -> _Samples:
    """The :class:`_Samples` of the last ``(nl, u_max, samples)`` asked for:
    the rows of a sweep sample the same grid with the same f, so every
    check after the first reuses it."""
    return _Samples(nl, u_max, samples)


def check_f_positive(nl: Nonlinearity, u_max: float,
                     samples: int = 10_001) -> tuple[bool, float | None]:
    """Sample whether f(u) > 0 on (0, u_max]; returns (ok, first offender).

    Positivity is reported, never assumed: a failing sample, including one
    where f is non-finite, only annotates the experiment report.
    """
    s = _samples(nl, u_max, samples)
    u, fu = s.u, s.fu
    bad = ~(np.isfinite(fu) & (fu > 0.0))
    if bad.any():
        return False, float(u[np.argmax(bad)])
    return True, None
