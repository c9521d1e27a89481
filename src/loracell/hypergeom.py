"""Gauss hypergeometric function 2F1(1, b; 1+b; x) for x <= 0, 0 < b <= 1.

This is the one special function the ring-interference model needs: for a
path-loss exponent eta > 2 the capture integral reduces to 2F1 with
b = 2/eta. Restricting to that family keeps the correctness surface small
enough to prove against an independent quadrature oracle.

Evaluation is scipy.special.hyp2f1, except at b = 1, where the family has
the closed form log(1 - x) / (-x) and scipy loses accuracy for large |x|
(relative error 2.1e-10 at x = -1e8, 3.6e-9 at x = -1e10).
scipy.special loads at the first call with b < 1, and the quadrature oracle
imports scipy.integrate.quad when it is first called, so importing this
module loads numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

# Against the oracle over |x| in [1e-6, 1e9], scipy's worst relative error
# grows as b approaches 1 (the worst x lies near -2): 6.0e-11 at
# b = 1 - 1e-5, 1.9e-10 at 1 - 3e-6 and 4.3e-10 at 1 - 1e-6. Rejecting
# b in (1 - 1e-5, 1) keeps every accepted b within 1e-10. RadioConfig.errors
# rejects the path-loss exponents that would need it: eta < 2 / (1 - B_GAP).
B_GAP = 1e-5
_ORACLE_ABS_TOL = 1e-12       # the oracle's quadrature target; 10x it raises


class UnsupportedDomainError(ValueError):
    """Parameters outside the supported 2F1(1, b; 1+b; x<=0) family."""


class QuadratureError(RuntimeError):
    """Oracle quadrature did not reach the requested tolerance."""


def _check_family(a: float, b: float, c: float, x) -> np.ndarray:
    """x as a float array, once a, b, c and every element of x are checked."""
    if a != 1.0:
        raise UnsupportedDomainError(f"a must be 1 (got {a})")
    if not 0.0 < b <= 1.0:
        raise UnsupportedDomainError(f"b must lie in (0, 1] (got {b})")
    if 1.0 - B_GAP < b < 1.0:
        raise UnsupportedDomainError(
            f"b = {b} is too close to 1 for accurate evaluation; "
            "use b = 1 exactly for the logarithmic case"
        )
    if not math.isclose(c, 1.0 + b, rel_tol=1e-12, abs_tol=1e-12):
        raise UnsupportedDomainError(f"c must equal 1 + b (got c={c}, b={b})")
    xs = np.asarray(x, dtype=float)
    supported = xs <= 0.0
    if not supported.all():
        raise UnsupportedDomainError(f"x must satisfy x <= 0 (got {xs[~supported].flat[0]})")
    return xs


def hyp2f1(a: float, b: float, c: float, x):
    """2F1(a, b; c; x) on the supported family (a=1, c=1+b, x<=0).

    x is a float or an array of any shape; a float returns a float and an
    array returns an array of the same shape. a, b and c are checked once;
    a NaN or positive element anywhere in x raises UnsupportedDomainError.
    Elements with x == 0 give exactly 1.0. A float is evaluated as a
    one-element array, so it equals the same element of any array call.
    """
    xs = _check_family(a, b, c, x)
    out = np.ones(xs.shape)
    nonzero = xs != 0.0
    xn = xs[nonzero]
    if b == 1.0:
        out[nonzero] = np.log1p(-xn) / -xn
    else:
        from scipy import special

        out[nonzero] = special.hyp2f1(1.0, b, 1.0 + b, xn)
    return float(out) if out.ndim == 0 else out


def hyp2f1_oracle(a: float, b: float, c: float, x: float) -> float:
    """Slow independent check: adaptive quadrature of the Euler integral.

    2F1(1,b;1+b;x) = b * int_0^1 t^(b-1) (1 - x t)^(-1) dt. Substituting
    t = e^(-u) removes the endpoint singularity and gives

        b * int_0^inf e^(-b u) / (1 + s e^(-u)) du,   s = -x,

    whose single knee sits near u = log(1 + s) with O(1) width; splitting
    there lets the quadrature deliver relative as well as absolute accuracy
    even where the function value is tiny.
    """
    from scipy.integrate import quad  # lazy: importing it costs about 0.35 s

    x = float(_check_family(a, b, c, x))
    if x == 0.0:
        return 1.0
    s = -x

    def integrand(u: float) -> float:
        return b * math.exp(-b * u) / (1.0 + s * math.exp(-u))

    split = math.log1p(s)
    head, err_head = quad(integrand, 0.0, split, epsabs=_ORACLE_ABS_TOL / 2, epsrel=1e-13,
                          limit=300)
    tail, err_tail = quad(integrand, split, math.inf, epsabs=_ORACLE_ABS_TOL / 2,
                          epsrel=1e-13, limit=300)
    value = head + tail
    err = err_head + err_tail
    if err > 10.0 * _ORACLE_ABS_TOL:
        raise QuadratureError(
            f"quadrature reached absolute tolerance {err:.3e}, requested {_ORACLE_ABS_TOL:.3e}"
        )
    return value
