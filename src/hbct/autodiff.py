"""Minimal reverse-mode automatic differentiation over a scalar tape.

A Tape records a dynamic graph of scalar nodes; each node stores its primal
value, parent node indices and the local partial derivatives with respect to
those parents.  Vectors are handled through fused ``dot`` and ``norm`` nodes so
that d-dimensional geometry costs O(1) nodes instead of O(d).

Every public function accepts plain floats alongside :class:`Var` operands and
falls back to ordinary float arithmetic when no Var is involved, so the same
loss code evaluates with or without a tape.

Only first-order derivatives are supported.  A tape is confined to a single
thread; independent tapes may run concurrently.
"""

from __future__ import annotations

import math

from .errors import InvalidArgumentError, NumericalDomainError
# Same domain policy as the manifold module: clamp into the closed domain with
# CLAMP_SLACK, raise beyond DOMAIN_TOL, snap acosh arguments within ACOSH_SNAP
# above 1 to exactly 1.
from .manifold import ACOSH_SNAP, CLAMP_SLACK, DOMAIN_TOL


class Tape:
    """Append-only record of scalar operations, in topological order."""

    __slots__ = ("vals", "parents", "partials")

    def __init__(self):
        self.vals = []
        self.parents = []
        self.partials = []

    def __len__(self):
        return len(self.vals)

    def _push(self, val, parents, partials):
        if not math.isfinite(val):
            raise NumericalDomainError(f"non-finite primal {val} recorded on tape")
        idx = len(self.vals)
        self.vals.append(val)
        self.parents.append(parents)
        self.partials.append(partials)
        return Var(self, idx, val)

    def var(self, value):
        """Create a leaf node (an independent variable / parameter)."""
        return self._push(float(value), (), ())


class Var:
    """Handle to a tape node: (tape, node index, primal value)."""

    __slots__ = ("tape", "idx", "val")

    def __init__(self, tape, idx, val):
        self.tape = tape
        self.idx = idx
        self.val = val

    def __repr__(self):
        return f"Var(idx={self.idx}, val={self.val})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, other):
        return powr(self, other)


def value(x):
    """Primal value of a Var, or the float itself."""
    return x.val if isinstance(x, Var) else float(x)


def _tape_of(*args):
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


def _unary(x, fval, fgrad):
    if isinstance(x, Var):
        try:
            v = fval(x.val)
        except (OverflowError, ValueError, ZeroDivisionError) as e:
            raise NumericalDomainError(f"{e} at primal {x.val}") from e
        return x.tape._push(v, (x.idx,), (fgrad(x.val),))
    return fval(float(x))


def add(a, b):
    a_var = type(a) is Var
    b_var = type(b) is Var
    if a_var:
        if b_var:
            return a.tape._push(a.val + b.val, (a.idx, b.idx), (1.0, 1.0))
        return a.tape._push(a.val + float(b), (a.idx,), (1.0,))
    if b_var:
        return b.tape._push(float(a) + b.val, (b.idx,), (1.0,))
    return float(a) + float(b)


def sub(a, b):
    a_var = type(a) is Var
    b_var = type(b) is Var
    if a_var:
        if b_var:
            return a.tape._push(a.val - b.val, (a.idx, b.idx), (1.0, -1.0))
        return a.tape._push(a.val - float(b), (a.idx,), (1.0,))
    if b_var:
        return b.tape._push(float(a) - b.val, (b.idx,), (-1.0,))
    return float(a) - float(b)


def mul(a, b):
    a_var = type(a) is Var
    b_var = type(b) is Var
    if a_var:
        if b_var:
            return a.tape._push(a.val * b.val, (a.idx, b.idx), (b.val, a.val))
        bf = float(b)
        return a.tape._push(a.val * bf, (a.idx,), (bf,))
    if b_var:
        af = float(a)
        return b.tape._push(af * b.val, (b.idx,), (af,))
    return float(a) * float(b)


def div(a, b):
    a_var = type(a) is Var
    b_var = type(b) is Var
    if a_var:
        if b_var:
            return a.tape._push(a.val / b.val, (a.idx, b.idx),
                                (1.0 / b.val, -a.val / (b.val * b.val)))
        bf = float(b)
        return a.tape._push(a.val / bf, (a.idx,), (1.0 / bf,))
    if b_var:
        af = float(a)
        return b.tape._push(af / b.val, (b.idx,), (-af / (b.val * b.val),))
    return float(a) / float(b)


def neg(x):
    return _unary(x, lambda v: -v, lambda v: -1.0)


def exp(x):
    return _unary(x, math.exp, math.exp)


def log(x):
    return _unary(x, math.log, lambda v: 1.0 / v)


def sqrt(x):
    return _unary(x, math.sqrt, lambda v: 0.5 / math.sqrt(v))


def tanh(x):
    return _unary(x, math.tanh, lambda v: 1.0 - math.tanh(v) ** 2)


def cosh(x):
    return _unary(x, math.cosh, math.sinh)


def sinh(x):
    return _unary(x, math.sinh, math.cosh)


def acosh(x):
    def fval(v):
        if v < 1.0 - DOMAIN_TOL:
            raise NumericalDomainError(f"acosh argument {v} below domain")
        if v < 1.0 + ACOSH_SNAP:
            return 0.0
        return math.acosh(v)

    def fgrad(v):
        # partial taken at the argument clamped just inside the domain
        v = max(v, 1.0 + CLAMP_SLACK)
        return 1.0 / math.sqrt(v * v - 1.0)

    return _unary(x, fval, fgrad)


def asin(x):
    def fval(v):
        if v < -1.0 - DOMAIN_TOL or v > 1.0 + DOMAIN_TOL:
            raise NumericalDomainError(f"asin argument {v} outside domain")
        return math.asin(min(max(v, -1.0), 1.0))

    def fgrad(v):
        v = min(max(v, -1.0 + CLAMP_SLACK), 1.0 - CLAMP_SLACK)
        return 1.0 / math.sqrt(1.0 - v * v)

    return _unary(x, fval, fgrad)


def acos(x):
    def fval(v):
        if v < -1.0 - DOMAIN_TOL or v > 1.0 + DOMAIN_TOL:
            raise NumericalDomainError(f"acos argument {v} outside domain")
        return math.acos(min(max(v, -1.0), 1.0))

    def fgrad(v):
        v = min(max(v, -1.0 + CLAMP_SLACK), 1.0 - CLAMP_SLACK)
        return -1.0 / math.sqrt(1.0 - v * v)

    return _unary(x, fval, fgrad)


def powr(a, b):
    """a ** b for positive base a; exponent may be a Var or a constant."""
    t = _tape_of(a, b)
    av, bv = value(a), value(b)
    if t is None:
        return av ** bv
    v = av ** bv
    ps, gs = [], []
    if isinstance(a, Var):
        ps.append(a.idx)
        gs.append(bv * av ** (bv - 1.0))
    if isinstance(b, Var):
        ps.append(b.idx)
        gs.append(v * math.log(av))
    return t._push(v, tuple(ps), tuple(gs))


def max0(x):
    """Hinge max(0, x) with subgradient 0 at x == 0."""
    return _unary(x, lambda v: v if v > 0.0 else 0.0, lambda v: 1.0 if v > 0.0 else 0.0)


def dot(xs, ys):
    """Fused inner product of two scalar sequences (Vars and/or floats)."""
    if len(xs) != len(ys):
        raise InvalidArgumentError("dot: length mismatch")
    total = 0.0
    t = None
    ps, gs = [], []
    for a, b in zip(xs, ys):
        if type(a) is Var:
            t = a.tape
            av = a.val
            if type(b) is Var:
                bv = b.val
                ps.append(a.idx)
                gs.append(bv)
                ps.append(b.idx)
                gs.append(av)
            else:
                bv = float(b)
                ps.append(a.idx)
                gs.append(bv)
        else:
            av = float(a)
            if type(b) is Var:
                t = b.tape
                bv = b.val
                ps.append(b.idx)
                gs.append(av)
            else:
                bv = float(b)
        total += av * bv
    if t is None:
        return total
    return t._push(total, tuple(ps), tuple(gs))


def norm(xs):
    """Fused Euclidean norm; subgradient 0 at the origin."""
    t = None
    sq = 0.0
    vals = []
    for x in xs:
        if type(x) is Var:
            t = x.tape
            v = x.val
        else:
            v = float(x)
        vals.append(v)
        sq += v * v
    n = math.sqrt(sq)
    if t is None:
        return n
    ps, gs = [], []
    for x, v in zip(xs, vals):
        if type(x) is Var:
            ps.append(x.idx)
            gs.append(v / n if n > 0.0 else 0.0)
    return t._push(n, tuple(ps), tuple(gs))


def asinh(x):
    """asinh composed from primitive nodes: log(x + sqrt(x^2 + 1))."""
    if not isinstance(x, Var):
        return math.asinh(float(x))
    return log(add(x, sqrt(add(mul(x, x), 1.0))))


def backward(tape, output):
    """Reverse accumulation; returns adjoints for every node on the tape.

    The result is indexable by node index; entry i is d(output)/d(node i).
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise InvalidArgumentError("output is not a Var on this tape")
    adj = [0.0] * len(tape.vals)
    adj[output.idx] = 1.0
    parents = tape.parents
    partials = tape.partials
    for i in range(output.idx, -1, -1):
        a = adj[i]
        if a == 0.0:
            continue
        for p, g in zip(parents[i], partials[i]):
            adj[p] += a * g
    return adj


def grad(output, leaves):
    """Gradient of output with respect to a list of leaf Vars."""
    adj = backward(output.tape, output)
    return [adj[v.idx] for v in leaves]
