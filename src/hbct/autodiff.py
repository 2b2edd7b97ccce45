"""Minimal reverse-mode automatic differentiation over float64 arrays.

A Tape records a dynamic graph of array nodes in topological order.  Each node
stores its primal value, the operand values it was computed from, and, for
every operand that is itself a node, a vector-Jacobian product mapping the
node's adjoint to that operand's adjoint contribution.  Operands broadcast as
in numpy; ``backward`` sums each contribution back down to its operand's
shape.  A batched formula therefore costs O(1) nodes, not O(batch).

Every public function accepts plain arrays and floats alongside :class:`Var`
operands and returns a plain numpy result when no Var is involved, so the same
code evaluates with or without a tape.

Domain policy, applied per element: acosh/asin/acos arguments beyond
DOMAIN_TOL outside the domain raise NumericalDomainError, smaller violations
are clamped into the closed domain, and partials are taken at arguments
clamped CLAMP_SLACK inside it.  acosh arguments within ACOSH_SNAP above 1 snap
to exactly 1: the Lorentz inner product of a point with itself lands at -1/K
only up to round-off, and acosh amplifies that noise to sqrt(2 * eps), so
d(x, x) would not vanish.  A non-finite primal recorded on a tape raises.

Only first-order derivatives are supported.  A tape is confined to a single
thread; independent tapes may run concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, NumericalDomainError

CLAMP_SLACK = 1e-12
DOMAIN_TOL = 1e-6
ACOSH_SNAP = 1e-9


class Tape:
    """Append-only record of array operations, in topological order."""

    __slots__ = ("vals", "args", "links")

    def __init__(self):
        self.vals = []   # primal value per node
        self.args = []   # operand values per node
        self.links = []  # ((parent node index, vjp), ...) per node

    def __len__(self):
        return len(self.vals)

    def _push(self, val, args, links):
        finite = np.isfinite(val)
        if not finite.all():
            bad = np.size(finite) - np.count_nonzero(finite)
            raise NumericalDomainError(
                f"non-finite primal recorded on tape ({bad} of {np.size(finite)} entries)")
        self.vals.append(val)
        self.args.append(args)
        self.links.append(links)
        return Var(self, len(self.vals) - 1, val)

    def var(self, value):
        """Create a leaf node (an independent variable / parameter array)."""
        return self._push(np.array(value, dtype=np.float64), (), ())


class Var:
    """Handle to a tape node: (tape, node index, primal value)."""

    __slots__ = ("tape", "idx", "val")
    # numpy operands defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, tape, idx, val):
        self.tape = tape
        self.idx = idx
        self.val = val

    def __repr__(self):
        return f"Var(idx={self.idx}, val={self.val})"

    @property
    def shape(self):
        return np.shape(self.val)

    @property
    def ndim(self):
        return np.ndim(self.val)

    def __len__(self):
        return len(self.val)

    @property
    def T(self):
        return transpose(self)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return _apply(np.reshape, (lambda g, o, v, shape: np.reshape(g, np.shape(v)), None),
                      self, shape)

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

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)


def value(x):
    """Primal value of a Var, or x as a float64 array."""
    return x.val if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def array(x):
    """A Var unchanged, anything else as a float64 array."""
    return x if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _apply(f, vjps, *args):
    """f over the operands' primal values, recorded when any operand is a Var.

    ``vjps[k](g, out, *vals)`` is the adjoint contribution to operand k.
    """
    tape = None
    for a in args:
        if type(a) is Var:
            tape = a.tape
            break
    if tape is None:
        return f(*args)
    vals = tuple(a.val if type(a) is Var else a for a in args)
    links = tuple((a.idx, vjp) for a, vjp in zip(args, vjps) if type(a) is Var)
    return tape._push(f(*vals), vals, links)


def _pass(g, out, *vals):
    return g


def _negate(g, out, *vals):
    return -g


def add(a, b):
    return _apply(np.add, (_pass, _pass), a, b)


def sub(a, b):
    return _apply(np.subtract, (_pass, _negate), a, b)


def mul(a, b):
    return _apply(np.multiply, (lambda g, o, a, b: g * b, lambda g, o, a, b: g * a), a, b)


def div(a, b):
    return _apply(np.true_divide, (lambda g, o, a, b: g / b,
                                   lambda g, o, a, b: g * (-a / (b * b))), a, b)


def neg(x):
    return _apply(np.negative, (_negate,), x)


def exp(x):
    return _apply(np.exp, (lambda g, o, x: g * o,), x)


def log(x):
    return _apply(np.log, (lambda g, o, x: g / x,), x)


def sqrt(x):
    return _apply(np.sqrt, (lambda g, o, x: g * (0.5 / o),), x)


def tanh(x):
    return _apply(np.tanh, (lambda g, o, x: g * (1.0 - o * o),), x)


def cosh(x):
    return _apply(np.cosh, (lambda g, o, x: g * np.sinh(x),), x)


def sinh(x):
    return _apply(np.sinh, (lambda g, o, x: g * np.cosh(x),), x)


def asinh(x):
    return _apply(np.arcsinh, (lambda g, o, x: g / np.sqrt(x * x + 1.0),), x)


def _acosh(v):
    if np.any(v < 1.0 - DOMAIN_TOL):
        raise NumericalDomainError(
            f"acosh argument {np.min(v)} below 1 by more than {DOMAIN_TOL}")
    return np.where(v < 1.0 + ACOSH_SNAP, 0.0, np.arccosh(np.maximum(v, 1.0)))


def _acosh_vjp(g, out, v):
    v = np.maximum(v, 1.0 + CLAMP_SLACK)
    return g / np.sqrt(v * v - 1.0)


def acosh(x):
    return _apply(_acosh, (_acosh_vjp,), x)


def _unit_clamped(v, name):
    if np.any(np.abs(v) > 1.0 + DOMAIN_TOL):
        raise NumericalDomainError(f"{name} argument outside [-1, 1] by more than "
                                   f"{DOMAIN_TOL}")
    return np.clip(v, -1.0, 1.0)


def _unit_partial(v):
    v = np.clip(v, -1.0 + CLAMP_SLACK, 1.0 - CLAMP_SLACK)
    return 1.0 / np.sqrt(1.0 - v * v)


def asin(x):
    return _apply(lambda v: np.arcsin(_unit_clamped(v, "asin")),
                  (lambda g, o, v: g * _unit_partial(v),), x)


def acos(x):
    return _apply(lambda v: np.arccos(_unit_clamped(v, "acos")),
                  (lambda g, o, v: g * -_unit_partial(v),), x)


def powr(a, b):
    """a ** b for positive base a and a constant exponent b."""
    if isinstance(b, Var):
        raise InvalidArgumentError("powr exponent must be a constant")
    return _apply(np.power, (lambda g, o, a, b: g * (b * a ** (b - 1.0)), None), a, b)


def max0(x):
    """Hinge max(0, x) with subgradient 0 at x == 0."""
    return _apply(lambda v: np.where(v > 0.0, v, 0.0),
                  (lambda g, o, v: np.where(v > 0.0, g, 0.0),), x)


def where(cond, a, b):
    """Select a where the plain boolean cond holds, else b; adjoints follow."""
    return _apply(np.where, (None, lambda g, o, c, a, b: np.where(c, g, 0.0),
                             lambda g, o, c, a, b: np.where(c, 0.0, g)), cond, a, b)


def sum(x, axis=None, keepdims=False):
    def vjp(g, out, v):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, np.shape(v))

    return _apply(lambda v: np.sum(v, axis=axis, keepdims=keepdims), (vjp,), x)


def mean(x):
    """Mean over every entry: the sum, then one division by the count."""
    return div(sum(x), np.size(value(x)))


def norm(x, keepdims=False):
    """Euclidean norm along the last axis; subgradient 0 at the origin."""
    def vjp(g, n, v):
        if not keepdims:
            g, n = np.asarray(g)[..., None], np.asarray(n)[..., None]
        return np.where(n > 0.0, g * (v / np.where(n > 0.0, n, 1.0)), 0.0)

    return _apply(lambda v: np.linalg.norm(v, axis=-1, keepdims=keepdims), (vjp,), x)


def _matmul_a(g, out, a, b):
    if np.ndim(b) == 1:
        return np.multiply.outer(g, b)
    return g @ np.transpose(b)


def _matmul_b(g, out, a, b):
    if np.ndim(a) == 1:
        return np.multiply.outer(a, g)
    return np.transpose(a) @ g


def matmul(a, b):
    """a @ b for operands of at most two dimensions."""
    return _apply(np.matmul, (_matmul_a, _matmul_b), a, b)


def transpose(x):
    return _apply(np.transpose, (lambda g, o, v: np.transpose(g),), x)


def _getitem_vjp(g, out, v, key):
    full = np.zeros(np.shape(v))
    np.add.at(full, key, g)
    return full


def getitem(x, key):
    return _apply(lambda v, k: v[k], (_getitem_vjp, None), x, key)


def _unbroadcast(g, shape):
    """Sum an adjoint computed at a broadcast shape back down to shape."""
    extra = np.ndim(g) - len(shape)
    if extra:
        g = np.sum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return np.sum(g, axis=axes, keepdims=True) if axes else g


def backward(tape, output):
    """Reverse accumulation; returns adjoints for every node on the tape.

    The result is indexable by node index; entry i is d(output)/d(node i),
    or None where the output does not depend on node i.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise InvalidArgumentError("output is not a Var on this tape")
    adj = [None] * len(tape)
    adj[output.idx] = np.ones_like(output.val)
    vals, args, links = tape.vals, tape.args, tape.links
    for i in range(output.idx, -1, -1):
        g = adj[i]
        if g is None:
            continue
        for p, vjp in links[i]:
            c = vjp(g, vals[i], *args[i])
            shape = np.shape(vals[p])
            if np.shape(c) != shape:
                c = _unbroadcast(c, shape)
            adj[p] = c if adj[p] is None else adj[p] + c
    return adj


def grad(output, leaves):
    """Gradient of output with respect to each leaf, in the leaf's shape.

    Each gradient is a fresh writable array: adjoints inside backward may be
    broadcast views or shared between nodes.
    """
    adj = backward(output.tape, output)
    return [np.zeros(v.shape) if adj[v.idx] is None else np.array(adj[v.idx])
            for v in leaves]
