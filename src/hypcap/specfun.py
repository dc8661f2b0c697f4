"""The Grotzsch modulus mu and the slit capacity f2 built on it.

All functions are pure and operate on Python floats.  The decreasing
homeomorphism

    mu(r) = (pi/2) * K(sqrt(1 - r^2)) / K(r),   r in (0, 1],

is the modulus of the Grotzsch ring (D, [0, r]); K is the complete
elliptic integral of the first kind, and both of its values come from
the arithmetic-geometric-mean iteration, K(r) = pi / (2 AGM(1, sqrt(1 -
r^2))), which converges quadratically and gives close to full double
precision on all of (0, 1], subnormal r included.  The reciprocal of mu
scales several closed-form condenser capacities used elsewhere in the
package.
"""

from __future__ import annotations

import math

from .hypgeom import _is_real

__all__ = [
    "mu",
    "f2",
]

_AGM_RTOL = 1e-15
_AGM_MAX_ITER = 64

# f2 switches to mu(s) = log(4/s) + O(s^2) below this s, for s = th(c/4)
# at small c and s = 1/ch(c/4) at large c: the asymptotic form is exact
# to 1e-16 there, and s itself soon underflows (0.25 c is 0 for c <= 1e-323)
# or becomes subnormal (1/ch(c/4) from c = 2836 on) and loses digits.
_F2_ASYMPTOTIC_S = 1e-8


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of positive a and b."""
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= _AGM_RTOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def mu(r: float, rc: float | None = None) -> float:
    """Modulus of the Grotzsch ring (D, [0, r]) for r in (0, 1].

    Decreasing homeomorphism of (0, 1] onto [0, inf) with mu(1) = 0.
    Computed from AGM(1, r) and AGM(1, rc), rc = sqrt(1 - r^2), which
    mu(r) forms from r; a caller that can form rc without the
    cancellation as r -> 1 passes it.  Tiny r is safe: rc rounds to 1
    there, which costs only O(r^2), and AGM(1, r) stays accurate down to
    the smallest subnormal r.
    """
    if not _is_real(r) or not 0.0 < r <= 1.0:
        raise ValueError(f"mu requires 0 < r <= 1, got {r}")
    if rc is not None and not _is_real(rc):
        raise ValueError(f"mu requires a real rc, got {rc!r}")
    rc = math.sqrt((1.0 - r) * (1.0 + r)) if rc is None else rc
    if rc == 0.0:
        return 0.0
    # K(r) = pi / (2 AGM(1, rc)),  K(rc) = pi / (2 AGM(1, r))
    return 0.5 * math.pi * _agm(1.0, rc) / _agm(1.0, r)


def f2(c: float) -> float:
    """Capacity of the radial slit [0, th(c/4)], the degenerate plate of
    hyperbolic perimeter c (twice its diameter): 2*pi / mu(th(c/4)).

    Evaluated as mu(th x, 1/ch x), the complementary modulus passed in,
    which stays accurate where th(c/4) rounds to 1; for small and large
    c the asymptotic mu(s) ~ log(4/s) takes over (see _F2_ASYMPTOTIC_S).
    """
    if not _is_real(c) or not 0.0 < c < math.inf:
        raise ValueError(f"f2 requires 0 < c < inf, got {c}")
    x = 0.25 * c
    t = math.tanh(x)
    if t < _F2_ASYMPTOTIC_S:
        # log(4 / th(c/4)) = log 16 - log c, without the underflow of c/4
        return 2.0 * math.pi / (math.log(16.0) - math.log(c))
    # 1 / ch x without the overflow of ch x
    e = math.exp(-x)
    s = 2.0 * e / (1.0 + e * e)
    if s >= _F2_ASYMPTOTIC_S:
        return 2.0 * math.pi / mu(t, s)
    # log(4 ch x) without overflow
    log_4ch = math.log(2.0) + x + math.log1p(e * e)
    return (8.0 / math.pi) * log_4ch
