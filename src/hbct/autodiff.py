"""Minimal reverse-mode automatic differentiation over float64 arrays.

A Tape records a dynamic graph of array nodes in topological order.  Every
node but a leaf is a formula (:func:`formula`): one fixed chain of elementary
operations, such as the origin expmap, the MLR log-softmax or a single
``tanh``.  Its forward runs the chain's numpy calls in the chain's order; on
a tape it checks every intermediate it computes for finiteness, as recording
each link would.  Its VJP runs the chain's adjoint operations and hands back
the Var operands' (node index, contribution) pairs in the order a tape of the
chain's separate nodes would accumulate them, so every primal and every
gradient keeps the chain's bits.  Operands broadcast as in numpy;
``backward`` sums each contribution back down to its operand's shape, so a
batched formula costs one node, not one per sample.  The elementary
operations themselves, one node each, live with the tests
(``tests/elementary.py``), where they write out the chains that each formula
is checked against.

Every formula accepts plain arrays and floats alongside :class:`Var`
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


def checked(val, rec):
    """val, checked for finiteness when its formula is recorded on a tape (rec)."""
    if rec:
        check_finite(val)
    return val


class Tape:
    """Append-only record of formula nodes, in topological order."""

    __slots__ = ("vals", "args", "backs")

    def __init__(self):
        self.vals = []   # primal value per node
        self.args = []   # per node: (what its VJP saved, its operands' node indices)
        self.backs = []  # per node: its formula's VJP, or None for a leaf

    def __len__(self):
        return len(self.vals)

    def _append(self, val, args, back):
        self.vals.append(val)
        self.args.append(args)
        self.backs.append(back)
        return Var(self, len(self.vals) - 1, val)

    def var(self, value):
        """Create a leaf node (an independent variable / parameter array)."""
        val = np.array(value, dtype=np.float64)
        check_finite(val)
        return self._append(val, None, None)


class Var:
    """Handle to a tape node: (tape, node index, primal value)."""

    __slots__ = ("tape", "idx", "val")
    # a numpy operand must not broadcast over a handle as an object array
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


def formula(forward, vjp, operands, *consts):
    """One tape node for a fused chain of operations over ``operands``.

    ``forward(rec, *values, *consts)`` returns ``(out, saved)``.  ``rec`` is
    True when some operand is a Var: the node is recorded, and the forward
    passes every intermediate it computes to :func:`checked`, in the chain's
    order.  Without a Var operand only ``out`` comes back.  ``vjp(g, out,
    saved, parents)`` returns the (parent node index, contribution) pairs of
    the chain's backward pass, in the order ``backward`` would accumulate
    them; ``parents[k]`` is operand k's node index, or None for a constant,
    which gets no contribution.
    """
    tape = _tape_of(operands)
    if tape is None:
        return forward(False, *operands, *consts)[0]
    parents = [a.idx if type(a) is Var else None for a in operands]
    vals = [a.val if type(a) is Var else a for a in operands]
    out, saved = forward(True, *vals, *consts)
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


def arcsin(v):
    """asin under the domain policy, on plain values."""
    return np.arcsin(_unit_clamped(v, "asin"))


def arccos(v):
    """acos under the domain policy, on plain values."""
    return np.arccos(_unit_clamped(v, "acos"))


def acos_vjp(g, out, v):
    v = np.clip(v, -1.0 + CLAMP_SLACK, 1.0 - CLAMP_SLACK)
    return g * -(1.0 / np.sqrt(1.0 - v * v))


def _tanh(rec, x):
    return checked(np.tanh(x), rec), None


def _tanh_vjp(g, out, saved, parents):
    return [(parents[0], g * (1.0 - out * out))]


def tanh(x):
    """Elementwise tanh, the encoder's activation between layers."""
    return formula(_tanh, _tanh_vjp, (x,))


def sum_vjp(g, out, v, axis=None, keepdims=False):
    """Adjoint of a sum of v over ``axis`` (every entry when None)."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, v.shape)


def mean_forward(rec, v, axis=None):
    """The mean as its two elementary steps, the sum and one division by the count."""
    n = np.size(v) if axis is None else v.shape[axis]
    s = checked(_add_reduce(v, axis=axis), rec)
    return checked(s / n, rec), (v, n, axis)


def mean_backward(g, saved):
    """Adjoint of mean_forward with respect to its operand."""
    v, n, axis = saved
    return sum_vjp(g / n, None, v, axis)


def _mean_vjp(g, out, saved, parents):
    return [(parents[0], mean_backward(g, saved))]


def mean(x, axis=None):
    """Mean over every entry, or along ``axis``: the sum, then one division by the count."""
    return formula(mean_forward, _mean_vjp, (x,), axis)


def norm_vjp(g, n, v, keepdims=False):
    """Adjoint of the Euclidean norm n of v along the last axis; 0 at the origin."""
    if not keepdims:
        g, n = np.asarray(g)[..., None], np.asarray(n)[..., None]
    return np.where(n > 0.0, g * (v / np.where(n > 0.0, n, 1.0)), 0.0)


def matmul_vjp_a(g, out, a, b):
    """Adjoint of a @ b with respect to a; also over stacks of matrices."""
    if np.ndim(b) == 1:
        return np.multiply.outer(g, b)
    return g @ np.swapaxes(b, -1, -2)


def matmul_vjp_b(g, out, a, b):
    """Adjoint of a @ b with respect to b; also over stacks of matrices."""
    if np.ndim(a) == 1:
        return np.multiply.outer(a, g)
    return np.swapaxes(a, -1, -2) @ g


def getitem_vjp(g, out, v, key):
    """Adjoint of v[key]: g added at key into zeros of v's shape."""
    full = np.zeros(np.shape(v))
    np.add.at(full, key, g)
    return full


def _pick(rec, v, m):
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
    node are summed in decreasing order of the consuming node's index, and
    in the order its formula's VJP returns them.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise InvalidArgumentError("output is not a Var on this tape")
    adj = [None] * len(tape)
    adj[output.idx] = np.ones_like(output.val)
    vals, args, backs = tape.vals, tape.args, tape.backs
    for i in range(output.idx, -1, -1):
        g = adj[i]
        back = backs[i]
        if g is None or back is None:
            continue
        for p, c in back(g, vals[i], *args[i]):
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
