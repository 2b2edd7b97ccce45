"""Elementary tape operations: the oracle that the fused formulas are checked against.

Each op records one :func:`hbct.autodiff.formula` node that runs a single
numpy call, checks its output for finiteness and hands back one adjoint
contribution per Var operand, in operand order.  A chain of these ops is the
formula it spells out, one node per operation, so ``tests/test_fused.py``
compares each fused formula of the library with its chain bit for bit.
Without a Var operand every op returns the plain numpy result.
"""

import numpy as np

from hbct import autodiff as ad
from hbct.errors import InvalidArgumentError


def _op(f, *vjps):
    """f over its operands' values as one node.  ``vjps[k](g, out, *values)`` is
    operand k's contribution, None where operand k is never a Var; operands
    past the last VJP are constants (an axis, a key, a shape)."""
    def forward(rec, *vals):
        return ad.checked(f(*vals), rec), vals

    def vjp(g, out, vals, parents):
        return [(p, back(g, out, *vals)) for p, back in zip(parents, vjps) if p is not None]
    return lambda *operands: ad.formula(forward, vjp, operands)


def _pass(g, out, *vals):
    return g


def _negate(g, out, *vals):
    return -g


add = _op(np.add, _pass, _pass)
sub = _op(np.subtract, _pass, _negate)
mul = _op(np.multiply, lambda g, out, a, b: g * b, lambda g, out, a, b: g * a)
div = _op(np.true_divide, lambda g, out, a, b: g / b,
          lambda g, out, a, b: ad.div_partial_b(g, a, b))
neg = _op(np.negative, _negate)
exp = _op(np.exp, lambda g, out, x: g * out)
log = _op(np.log, lambda g, out, x: g / x)
sqrt = _op(np.sqrt, lambda g, out, x: g * (0.5 / out))
tanh = _op(np.tanh, lambda g, out, x: g * (1.0 - out * out))
cosh = _op(np.cosh, lambda g, out, x: g * np.sinh(x))
sinh = _op(np.sinh, lambda g, out, x: g * np.cosh(x))
asinh = _op(np.arcsinh, ad.asinh_vjp)
acosh = _op(ad.arccosh, ad.acosh_vjp)
asin = _op(ad.arcsin, lambda g, out, v: -ad.acos_vjp(g, out, v))  # asin' = -acos'
acos = _op(ad.arccos, ad.acos_vjp)
matmul = _op(np.matmul, ad.matmul_vjp_a, ad.matmul_vjp_b)
transpose = _op(np.transpose, lambda g, out, v: np.transpose(g))
getitem = _op(lambda v, key: v[key], ad.getitem_vjp)
reshape = _op(np.reshape, lambda g, out, v, shape: np.reshape(g, v.shape))
_powr = _op(np.power, lambda g, out, a, b: g * (b * a ** (b - 1.0)))
# where(cond, a, b): a where the plain boolean cond holds, else b
where = _op(np.where, None, lambda g, out, c, a, b: np.where(c, g, 0.0),
            lambda g, out, c, a, b: np.where(c, 0.0, g))
_sum = _op(lambda v, axis, keepdims: np.add.reduce(v, axis=axis, keepdims=keepdims),
           ad.sum_vjp)
_norm = _op(lambda v, keepdims: np.linalg.norm(v, axis=-1, keepdims=keepdims), ad.norm_vjp)


def powr(a, b):
    """a ** b for positive base a and a constant exponent b."""
    if isinstance(b, ad.Var):
        raise InvalidArgumentError("powr exponent must be a constant")
    return _powr(a, b)


def sum(x, axis=None, keepdims=False):
    return _sum(x, axis, keepdims)


def norm(x, keepdims=False):
    """Euclidean norm along the last axis; subgradient 0 at the origin."""
    return _norm(x, keepdims)
