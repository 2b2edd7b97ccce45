"""Minimal reverse-mode automatic differentiation over float64 arrays.

A Tape records a dynamic graph of array nodes in topological order.  An
elementary node (add, exp, norm, ...) stores its primal value, the operand
values it was computed from, and, for every operand that is itself a node, a
vector-Jacobian product mapping the node's adjoint to that operand's adjoint
contribution.  Operands broadcast as in numpy; ``backward`` sums each
contribution back down to its operand's shape.  A batched formula therefore
costs O(1) nodes, not O(batch).

A fused node (:func:`formula`) records a whole formula, one fixed chain of
elementary operations such as the origin expmap or the MLR log-softmax, as one
node.  Its forward runs the chain's numpy calls in the chain's order and checks
every intermediate it computes for finiteness, as recording each link would.
Its VJP runs the chain's adjoint operations and hands back the operands'
contributions in the order ``backward`` would accumulate them from the chain's
separate nodes, so every primal and every gradient keeps its bits.

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

_isfinite = np.isfinite
_add_reduce = np.add.reduce


def check_finite(val):
    """Raise NumericalDomainError unless every entry of val is finite."""
    finite = _isfinite(val)
    # each bool is one byte, 0 or 1: a zero byte is a non-finite entry
    if b"\x00" in finite.tobytes():
        bad = np.size(finite) - np.count_nonzero(finite)
        raise NumericalDomainError(
            f"non-finite primal recorded on tape ({bad} of {np.size(finite)} entries)")


def checked(val, on_tape):
    """val, checked for finiteness when the chain would record it on a tape."""
    if on_tape:
        check_finite(val)
    return val


class Tape:
    """Append-only record of array operations, in topological order."""

    __slots__ = ("vals", "args", "backs")

    def __init__(self):
        self.vals = []   # primal value per node
        self.args = []   # what the node's VJPs read besides its adjoint and value
        # per node: [(parent node index, vjp), ...] for an elementary op, or a
        # fused formula's VJP, which returns its (parent, contribution) pairs
        self.backs = []

    def __len__(self):
        return len(self.vals)

    def _push(self, val, args, back):
        check_finite(val)
        return self._append(val, args, back)

    def _append(self, val, args, back):
        self.vals.append(val)
        self.args.append(args)
        self.backs.append(back)
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
        return self.val.shape

    @property
    def ndim(self):
        return self.val.ndim

    def __len__(self):
        return len(self.val)

    @property
    def T(self):
        return transpose(self)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return _apply(np.reshape, _RESHAPE, self, shape)

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


def _tape_of(args):
    for a in args:
        if type(a) is Var:
            return a.tape
    return None


def _apply(f, vjps, *args):
    """f over the operands' primal values, recorded when any operand is a Var.

    ``vjps[k](g, out, *vals)`` is the adjoint contribution to operand k.
    """
    tape = _tape_of(args)
    if tape is None:
        return f(*args)
    vals = []
    links = []
    for a, vjp in zip(args, vjps):
        if type(a) is Var:
            vals.append(a.val)
            links.append((a.idx, vjp))
        else:
            vals.append(a)
    return tape._push(f(*vals), vals, links)


def formula(forward, vjp, operands, *consts):
    """One tape node for a fused chain of operations over ``operands``.

    ``forward(on, *values, *consts)`` returns ``(out, saved)``.  ``on[k]``
    tells whether operand k is a Var; the forward passes each intermediate
    that the chain would record to :func:`checked`, in the chain's order.
    Without a Var operand only ``out`` comes back.  ``vjp(g, out, saved,
    parents)`` returns the (parent node index, contribution) pairs of the
    chain's backward pass, in the order ``backward`` would accumulate them;
    ``parents[k]`` is operand k's node index, or None for a constant.
    """
    tape = _tape_of(operands)
    if tape is None:
        return forward((False,) * len(operands), *operands, *consts)[0]
    parents = [a.idx if type(a) is Var else None for a in operands]
    vals = [a.val if type(a) is Var else a for a in operands]
    out, saved = forward([p is not None for p in parents], *vals, *consts)
    return tape._append(out, (saved, parents), vjp)


def fit(c, shape):
    """An adjoint contribution summed down to its operand's shape, as backward does."""
    return c if c.shape == shape else _unbroadcast(c, shape)


def emit(pairs, parents, contributions):
    """Append (parent, contribution) for each operand that is a Var, in order."""
    for p, c in zip(parents, contributions):
        if p is not None:
            pairs.append((p, c))


def div_partial_b(g, a, b):
    """Adjoint of a / b with respect to b."""
    return g * (-a / (b * b))


def asinh_vjp(g, out, x):
    return g / np.sqrt(x * x + 1.0)


def arccosh(v):
    """acosh under the domain policy, on plain values."""
    if np.any(v < 1.0 - DOMAIN_TOL):
        raise NumericalDomainError(
            f"acosh argument {np.min(v)} below 1 by more than {DOMAIN_TOL}")
    return np.where(v < 1.0 + ACOSH_SNAP, 0.0, np.arccosh(np.maximum(v, 1.0)))


def acosh_vjp(g, out, v):
    v = np.maximum(v, 1.0 + CLAMP_SLACK)
    return g / np.sqrt(v * v - 1.0)


def _unit_clamped(v, name):
    if np.any(np.abs(v) > 1.0 + DOMAIN_TOL):
        raise NumericalDomainError(f"{name} argument outside [-1, 1] by more than "
                                   f"{DOMAIN_TOL}")
    return np.clip(v, -1.0, 1.0)


def _unit_partial(v):
    v = np.clip(v, -1.0 + CLAMP_SLACK, 1.0 - CLAMP_SLACK)
    return 1.0 / np.sqrt(1.0 - v * v)


def arcsin(v):
    """asin under the domain policy, on plain values."""
    return np.arcsin(_unit_clamped(v, "asin"))


def asin_vjp(g, out, v):
    return g * _unit_partial(v)


def arccos(v):
    """acos under the domain policy, on plain values."""
    return np.arccos(_unit_clamped(v, "acos"))


def acos_vjp(g, out, v):
    return g * -_unit_partial(v)


# Per-operand VJPs of the elementary ops, (g, out, *operand values) ->
# contribution; built once here rather than on every call.
def _pass(g, out, *vals):
    return g


def _negate(g, out, *vals):
    return -g


_ADD = (_pass, _pass)
_SUB = (_pass, _negate)
_MUL = (lambda g, out, a, b: g * b, lambda g, out, a, b: g * a)
_DIV = (lambda g, out, a, b: g / b, lambda g, out, a, b: div_partial_b(g, a, b))
_NEG = (_negate,)
_EXP = (lambda g, out, x: g * out,)
_LOG = (lambda g, out, x: g / x,)
_SQRT = (lambda g, out, x: g * (0.5 / out),)
_TANH = (lambda g, out, x: g * (1.0 - out * out),)
_COSH = (lambda g, out, x: g * np.sinh(x),)
_SINH = (lambda g, out, x: g * np.cosh(x),)
_POWR = (lambda g, out, a, b: g * (b * a ** (b - 1.0)), None)
_WHERE = (None, lambda g, out, c, a, b: np.where(c, g, 0.0),
          lambda g, out, c, a, b: np.where(c, 0.0, g))


def add(a, b):
    return _apply(np.add, _ADD, a, b)


def sub(a, b):
    return _apply(np.subtract, _SUB, a, b)


def mul(a, b):
    return _apply(np.multiply, _MUL, a, b)


def div(a, b):
    return _apply(np.true_divide, _DIV, a, b)


def neg(x):
    return _apply(np.negative, _NEG, x)


def exp(x):
    return _apply(np.exp, _EXP, x)


def log(x):
    return _apply(np.log, _LOG, x)


def sqrt(x):
    return _apply(np.sqrt, _SQRT, x)


def tanh(x):
    return _apply(np.tanh, _TANH, x)


def cosh(x):
    return _apply(np.cosh, _COSH, x)


def sinh(x):
    return _apply(np.sinh, _SINH, x)


def asinh(x):
    return _apply(np.arcsinh, (asinh_vjp,), x)


def acosh(x):
    return _apply(arccosh, (acosh_vjp,), x)


def asin(x):
    return _apply(arcsin, (asin_vjp,), x)


def acos(x):
    return _apply(arccos, (acos_vjp,), x)


def powr(a, b):
    """a ** b for positive base a and a constant exponent b."""
    if isinstance(b, Var):
        raise InvalidArgumentError("powr exponent must be a constant")
    return _apply(np.power, _POWR, a, b)


def where(cond, a, b):
    """Select a where the plain boolean cond holds, else b; adjoints follow."""
    return _apply(np.where, _WHERE, cond, a, b)


def _sum(v, axis, keepdims):
    return _add_reduce(v, axis=axis, keepdims=keepdims)


def sum_vjp(g, out, v, axis=None, keepdims=False):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, v.shape)


def sum(x, axis=None, keepdims=False):
    return _apply(_sum, (sum_vjp, None, None), x, axis, keepdims)


def mean_forward(on, v, axis=None):
    """The mean as its two elementary steps, the sum and one division by the count."""
    n = np.size(v) if axis is None else v.shape[axis]
    s = checked(_add_reduce(v, axis=axis), on[0])
    return checked(s / n, on[0]), (v, n, axis)


def mean_backward(g, saved):
    """Adjoint of mean_forward with respect to its operand."""
    v, n, axis = saved
    return sum_vjp(g / n, None, v, axis)


def _mean_vjp(g, out, saved, parents):
    return [(parents[0], mean_backward(g, saved))]


def mean(x, axis=None):
    """Mean over every entry, or along ``axis``: the sum, then one division by the count."""
    return formula(mean_forward, _mean_vjp, (x,), axis)


def _norm(v, keepdims):
    return np.linalg.norm(v, axis=-1, keepdims=keepdims)


def norm_vjp(g, n, v, keepdims=False):
    if not keepdims:
        g, n = np.asarray(g)[..., None], np.asarray(n)[..., None]
    return np.where(n > 0.0, g * (v / np.where(n > 0.0, n, 1.0)), 0.0)


def norm(x, keepdims=False):
    """Euclidean norm along the last axis; subgradient 0 at the origin."""
    return _apply(_norm, (norm_vjp, None), x, keepdims)


def matmul_vjp_a(g, out, a, b):
    if np.ndim(b) == 1:
        return np.multiply.outer(g, b)
    return g @ np.swapaxes(b, -1, -2)


def matmul_vjp_b(g, out, a, b):
    if np.ndim(a) == 1:
        return np.multiply.outer(a, g)
    return np.swapaxes(a, -1, -2) @ g


def matmul(a, b):
    """a @ b; the VJPs also serve stacks of matrices, as in a stack of models."""
    return _apply(np.matmul, (matmul_vjp_a, matmul_vjp_b), a, b)


def _transpose_vjp(g, out, v):
    return np.transpose(g)


def transpose(x):
    return _apply(np.transpose, (_transpose_vjp,), x)


def _getitem(v, key):
    return v[key]


def getitem_vjp(g, out, v, key):
    full = np.zeros(np.shape(v))
    np.add.at(full, key, g)
    return full


def getitem(x, key):
    return _apply(_getitem, (getitem_vjp, None), x, key)


def _pick(on, v, m):
    return v[m], (v.shape, m)  # a selection of a checked value


def _pick_vjp(g, out, saved, parents):
    shape, m = saved
    # the other models' entries are -0.0, the exact additive identity (+0.0 would
    # turn a -0.0 sum into +0.0), so they add to their adjoints as nothing at all
    full = np.full(shape, -0.0)
    full[m] = g
    return [(parents[0], full)]


def pick(x, m):
    """Model m of a stack, x[m] along the leading axis."""
    return formula(_pick, _pick_vjp, (x,), m)


def _reshape_vjp(g, out, v, shape):
    return np.reshape(g, v.shape)


_RESHAPE = (_reshape_vjp, None)


def _unbroadcast(g, shape):
    """Sum an adjoint computed at a broadcast shape back down to shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = _add_reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return _add_reduce(g, axis=axes, keepdims=True) if axes else g


def backward(tape, output):
    """Reverse accumulation; returns adjoints for every node on the tape.

    The result is indexable by node index; entry i is d(output)/d(node i),
    or None where the output does not depend on node i.  Contributions to a
    node are summed in decreasing order of the consuming node's index.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise InvalidArgumentError("output is not a Var on this tape")
    adj = [None] * len(tape)
    adj[output.idx] = np.ones_like(output.val)
    vals, args, backs = tape.vals, tape.args, tape.backs
    for i in range(output.idx, -1, -1):
        g = adj[i]
        back = backs[i]
        if g is None or not back:
            continue
        out, a = vals[i], args[i]
        if type(back) is list:   # elementary op: one VJP per Var operand
            pairs = [(p, vjp(g, out, *a)) for p, vjp in back]
        else:                    # fused formula: one VJP for every operand
            pairs = back(g, out, *a)
        for p, c in pairs:
            shape = vals[p].shape
            if c.shape != shape:
                c = _unbroadcast(c, shape)
            prev = adj[p]
            adj[p] = c if prev is None else prev + c
    return adj


def grad(output, leaves):
    """Gradient of output with respect to each leaf, in the leaf's shape.

    Each gradient is a fresh writable array: adjoints inside backward may be
    broadcast views or shared between nodes.
    """
    adj = backward(output.tape, output)
    return [np.zeros(v.shape) if adj[v.idx] is None else np.array(adj[v.idx])
            for v in leaves]
