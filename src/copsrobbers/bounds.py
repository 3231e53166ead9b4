"""Log-space arithmetic for the asymptotic cop-count bound.

Logs are base 2 throughout.  The scale parameter is L = log2 n, and every
quantity is handled through its base-2 log, e.g. the bound function
f(n) = 2 n (log n)^3 2^{-sqrt(log n)} becomes

    f_log(L) = 1 + L + 3*log2(L) - sqrt(L).

Evaluation uses mpmath interval arithmetic (outward rounding), so every
reported "holds" is rigorous at the evaluated point.  Tiny relative
quantities such as log2(n-D) - log2(n) are never formed by subtracting
near-equal numbers; they are bounded by explicit series envelopes
(e.g. -ln(1-u) is trapped between u and u+u^2 for u <= 1/2), which keeps the
checks meaningful for n as large as 2^(10^6).

Importing this module loads no mpmath.  ``_mpmath``, which every function
here that touches mpmath calls first, imports it on the first call and sets
its global ``iv.prec`` and ``mp.prec`` to ``PRECISION_BITS``, so a run that
never reaches the bound arithmetic (``gen``, ``solve``, ``play``,
``strategy``) never loads it.

The bisection for the trivial-region boundary signs midpoints far from the
root in float and by interval evaluation near it.  The float-signed
endpoints of its last bracket are re-signed by interval evaluation, so the
bracket it returns is interval-certified: the one interval signs alone give.

Derived parameters at scale L:

    levels     t            = sqrt(L) - 3*log2(L)
    density    log2(p)      = 2*log2(L) - sqrt(L)
    expansion  log2(lambda) = sqrt(L)
    diameter   log2(thresh) = sqrt(L) - 3*log2(L)
    cop count  log2(f)      = 1 + L + 3*log2(L) - sqrt(L)
    set size   log2(mu)     = L + log2(p)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "BoundParams",
    "bound_params",
    "trivial_margin_log",
    "trivial_region_boundary",
    "BoundaryBracket",
    "ChainStep",
    "ChainReport",
    "check_eq1_chain",
]

PRECISION_BITS = 192
_LN2 = None  # ln 2 as an interval, made by the first _mpmath call


def _mpmath():
    """mpmath, imported on the first call, which also sets ``iv.prec`` and
    ``mp.prec`` to ``PRECISION_BITS`` and makes ``_LN2``."""
    global _LN2
    import mpmath
    if _LN2 is None:
        mpmath.iv.prec = mpmath.mp.prec = PRECISION_BITS
        _LN2 = mpmath.iv.log(2)
    return mpmath


def _to_iv(x):
    """Point interval for x; -inf is allowed (D = 0 is D_log = -inf)."""
    iv = _mpmath().iv
    if isinstance(x, iv.mpf):
        return x
    if x != x:
        raise ValueError(f"parameter is not a number: {x}")
    if x == float("inf"):
        raise ValueError("infinite parameter")
    return iv.mpf(x)


def _lo(x) -> mpmath.mpf:
    return _mpmath().mpf(x.a)


def _hi(x) -> mpmath.mpf:
    return _mpmath().mpf(x.b)


def _hull(*xs):
    los = [_lo(x) for x in xs]
    his = [_hi(x) for x in xs]
    return _mpmath().iv.mpf([min(los), max(his)])


def _log2iv(x):
    """Base-2 log; exact when x is an exact power of two."""
    mpmath = _mpmath()
    if _lo(x) == _hi(x):
        v = _lo(x)
        if v > 0:
            e = int(mpmath.nint(mpmath.log(v, 2)))
            if mpmath.mpf(2) ** e == v:
                return mpmath.iv.mpf(e)
    return mpmath.iv.log(x) / _LN2


def _pow2(x):
    iv = _mpmath().iv
    return iv.exp(x * _LN2)


def _log2_1p(x):
    """Interval envelope for log2(1+x), valid for any interval x > -1.

    Uses x/(1+x) <= ln(1+x) <= x, which holds on (-1, inf) for both signs.
    """
    _mpmath()
    a = x / ((1 + x) * _LN2)
    b = x / _LN2
    return _hull(a, b)


@dataclass(frozen=True)
class BoundParams:
    """All derived scale parameters as intervals (log space where noted)."""

    L: object
    sqrt_L: object
    log2_L: object
    t: object
    p_log: object
    lambda_log: object
    diameter_threshold_log: object
    f_log: object
    mu_log: object

    def point_values(self) -> dict:
        """Midpoints as mpf, for display; use the intervals for proofs."""
        out = {}
        for name in ("L", "sqrt_L", "log2_L", "t", "p_log", "lambda_log",
                     "diameter_threshold_log", "f_log", "mu_log"):
            x = getattr(self, name)
            out[name] = (_lo(x) + _hi(x)) / 2
        return out

    def is_exact(self, name: str) -> bool:
        x = getattr(self, name)
        return _lo(x) == _hi(x)


def bound_params(L) -> BoundParams:
    """Evaluate every derived parameter at scale L = log2 n."""
    iv = _mpmath().iv
    ivL = _to_iv(L)
    if not _lo(ivL) > 0:
        raise ValueError("L must be positive")
    sq = iv.sqrt(ivL)
    lg = _log2iv(ivL)
    return BoundParams(
        L=ivL,
        sqrt_L=sq,
        log2_L=lg,
        t=sq - 3 * lg,
        p_log=2 * lg - sq,
        lambda_log=sq,
        diameter_threshold_log=sq - 3 * lg,
        f_log=1 + ivL + 3 * lg - sq,
        mu_log=ivL + 2 * lg - sq,
    )


def trivial_margin_log(L):
    """log2 of 2(log n)^3 2^{-sqrt(log n)} at scale L; >0 means f(n) > n."""
    iv = _mpmath().iv
    ivL = _to_iv(L)
    return 1 + 3 * _log2iv(ivL) - iv.sqrt(ivL)


class BoundaryBracket(NamedTuple):
    low: mpmath.mpf
    high: mpmath.mpf


# The float margin is trusted only where it clears this; on [2, 4096] its
# error is below 1e-13.
_SCREEN_MARGIN = 1e-9


def _float_margin(x: float) -> float:
    """``trivial_margin_log`` in double precision, to screen midpoints."""
    return 1 + 3 * math.log2(x) - math.sqrt(x)


def _interval_sign(x) -> int:
    """The sign of ``trivial_margin_log(x)``, or 0 if its interval holds 0."""
    m = trivial_margin_log(x)
    if _hi(m) < 0:
        return -1
    if _lo(m) > 0:
        return 1
    return 0


def _bisect(a, b, tol, screen: bool):
    """Bisect [a, b] to width `tol`; with `screen`, a midpoint whose float
    margin clears ``_SCREEN_MARGIN`` takes the float sign.

    Returns the bracket and the endpoints of the last bisected bracket whose
    sign came from float, each paired with that sign.
    """
    _mpmath()  # the midpoints are mpf arithmetic at PRECISION_BITS
    a_float = b_float = False
    stuck = None
    while b - a > tol:
        mid = (a + b) / 2
        s = 0
        if screen:
            m = _float_margin(float(mid))
            if abs(m) > _SCREEN_MARGIN:
                s = 1 if m > 0 else -1
        from_float = s != 0
        if not from_float:
            s = _interval_sign(mid)
        if s == 0:
            stuck = mid
            break
        if s > 0:
            a, a_float = mid, from_float
        else:
            b, b_float = mid, from_float
    screened = [(x, sgn) for x, sgn, f in ((a, 1, a_float), (b, -1, b_float)) if f]
    if stuck is not None:
        # interval evaluation cannot decide; shrink around the midpoint
        a, b = stuck - tol / 4, stuck + tol / 4
    return BoundaryBracket(low=a, high=b), screened


def trivial_region_boundary(tol: float = 1e-6) -> BoundaryBracket:
    """The unique L* > 1 where 2 L^3 2^{-sqrt(L)} = 1, by bisection.

    Below L* the bound exceeds n and is vacuous; above it the bound bites.
    The margin is positive at L = 2 and negative at L = 4096; bisection
    narrows that bracket to `tol`, which must be positive and finite, and
    wide enough that the bracket keeps two distinct ends at
    ``PRECISION_BITS`` bits (tol of about 1e-54 and up).

    Midpoints are signed in float where the float margin is far from 0, and
    by interval evaluation elsewhere.  The float-signed endpoints of the last
    bracket are then re-signed by interval evaluation.  Every other midpoint
    signed in float lies beyond one of them, on the same side of L*, so if
    they agree the bracket is the one interval signs alone give; if not, the
    bisection reruns on interval signs alone.
    """
    mpmath = _mpmath()
    if not (tol > 0 and mpmath.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    a, b = mpmath.mpf(2), mpmath.mpf(4096)
    if _interval_sign(a) <= 0 or _interval_sign(b) >= 0:
        raise ValueError("bracket does not straddle the boundary")
    bracket, screened = _bisect(a, b, tol, screen=True)
    if any(_interval_sign(x) != sgn for x, sgn in screened):
        bracket, _ = _bisect(a, b, tol, screen=False)
    if not bracket.low < bracket.high:
        # a midpoint interval evaluation cannot sign, shrunk by tol/4 to each
        # side, rounds back onto itself: the bracket would be one point
        raise ValueError(f"tolerance {tol} is below the {PRECISION_BITS}-bit resolution "
                         "of the boundary")
    return bracket


# ---------------------------------------------------------------------------
# The induction-step inequality chain.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainStep:
    name: str
    holds: bool | None           # None: interval evaluation was inconclusive
    slack_lo: mpmath.mpf
    slack_hi: mpmath.mpf
    note: str

    def to_dict(self) -> dict:
        mpmath = _mpmath()
        return {
            "name": self.name,
            "holds": self.holds,
            "slack_lo": mpmath.nstr(self.slack_lo, 17),
            "slack_hi": mpmath.nstr(self.slack_hi, 17),
            "note": self.note,
        }


@dataclass(frozen=True)
class ChainReport:
    L: str
    d_log: str
    at_threshold: bool
    out_of_regime: bool
    steps: tuple[ChainStep, ...]
    end_to_end: ChainStep

    def step(self, name: str) -> ChainStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "L": self.L,
            "d_log": self.d_log,
            "at_threshold": self.at_threshold,
            "out_of_regime": self.out_of_regime,
            "steps": [s.to_dict() for s in self.steps],
            "end_to_end": self.end_to_end.to_dict(),
        }


def _step(name, slack, note) -> ChainStep:
    lo_v, hi_v = _lo(slack), _hi(slack)
    if lo_v >= 0:
        holds = True
    elif hi_v < 0:
        holds = False
    else:
        holds = None
    return ChainStep(name=name, holds=holds, slack_lo=lo_v, slack_hi=hi_v, note=note)


# The degenerate D = 0 chain (offset -inf) goes through the same formulas;
# only these notes read differently there.
_D_ZERO_NOTES = {
    "absorb_two": "needs D*X >= 1; fails identically at D = 0",
    "d_small": "D = 0",
    "exp_linearize": "x = 0",
    "final_margin": "f(n)*x = 0; margin is the raw -2 vs -1 gap",
    "end_to_end": "f(n) - f(n) - 1; the claim needs D > 0",
}


def check_eq1_chain(L, D_log=None) -> ChainReport:
    """Verify every inequality of the deletion-recursion induction step.

    `D_log` is log2 of the deleted path length; None evaluates exactly at the
    diameter threshold (the boundary case the induction leans on), and
    float('-inf') evaluates the degenerate D = 0 chain, where the
    substitution steps collapse to equalities and only the bookkeeping margin
    (subtracting 2, requiring < f(n) - 1) is left.

    Chain quantities never mix scales: products and powers are compared via
    their base-2 logs, and additive corrections of order D/n are carried as
    explicit tiny intervals.  Raises ValueError where a series envelope
    leaves its range: D/n >= 1/2, or log2(n - D) or the end-to-end gap's
    envelope below 0.
    """
    mpmath = _mpmath()
    iv = mpmath.iv
    params = bound_params(L)
    ivL, sq, lg = params.L, params.sqrt_L, params.log2_L
    threshold = params.diameter_threshold_log
    out_of_regime = not (_lo(ivL) >= 400)

    at_threshold = D_log is None
    if at_threshold:
        offset = iv.mpf(0)       # D_log - threshold_log, symbolically zero
        d_str = "threshold"
    else:
        ivD = _to_iv(D_log)
        offset = ivD - threshold
        if not _hi(offset) <= 0:
            out_of_regime = True
        d_str = mpmath.nstr((_lo(ivD) + _hi(ivD)) / 2, 17)
    notes = _D_ZERO_NOTES if _hi(offset) == -mpmath.inf else {}

    # u = D/n = 2^(D_log - L); the exponent has large magnitude but no
    # cancellation, so the interval stays tight.
    u = _pow2(threshold + offset - ivL)
    if not _hi(u) < 0.5:
        raise ValueError(f"series envelope invalid: D/n may reach "
                         f"{mpmath.nstr(_hi(u), 8)}, not below 1/2")

    # log2(1 - u) trapped via u <= -ln(1-u) <= u + u^2 (u <= 1/2).
    c1 = _hull(-(u + u * u) / _LN2, -u / _LN2)
    Lp = ivL + c1                       # log2(n - D)
    if _lo(Lp) < 0:
        raise ValueError(f"series envelope invalid: log2(n - D) may be as low as "
                         f"{mpmath.nstr(_lo(Lp), 8)}, below 0")
    lgLp_minus_lg = _log2_1p(c1 / ivL)  # log2(L') - log2(L), tiny
    # sqrt(L) - sqrt(L') in factored form (no cancellation):
    sqrt_diff = (-c1) / (sq + iv.sqrt(Lp))
    x = 2 * u / sq

    # End to end, independent of the intermediate steps: f(n) - f(n-D) > 1,
    # through 1 - 2^-delta with delta = f_log - f'_log >= 0.  A zero lower
    # end is the D = 0 chain's log 0 = -inf.
    delta = (-c1) + 3 * (-lgLp_minus_lg) - sqrt_diff
    one_minus = _hull(delta * _LN2 - (delta * _LN2) ** 2 / 2, delta * _LN2)
    if _lo(one_minus) < 0:
        raise ValueError(f"series envelope invalid: 1 - 2^-delta may be as low as "
                         f"{mpmath.nstr(_lo(one_minus), 8)}, below 0")

    rows = (
        # f(n-D) <= 2 (n-D) (log n)^3 2^{-sqrt(log(n-D))}
        # ratio in log space: 3*(log2 L - log2 L') >= 0.
        ("shrink_logcube", 3 * (-lgLp_minus_lg),
         "replace (log(n-D))^3 by (log n)^3; slack in log2"),
        # 2(n-D) X <= 2n X - 2  with X = (log n)^3 2^{-sqrt(log(n-D))}
        # factored difference: log2(2 D X) >= 1, slack = D_log - thresh + (sqrt L - sqrt L').
        ("absorb_two", offset + sqrt_diff,
         "subtracting 2 costs D*(log n)^3*2^{-sqrt(log(n-D))} >= 1; slack in log2"),
        # D <= 2^{-20} n
        ("d_small", (ivL - 20) - (threshold + offset),
         "premise for the log shift; slack in log2"),
        # log2(n-D) >= log2(n) - 2D/n, i.e. log2(1-u) + 2u >= 0.
        ("log_shift", c1 + 2 * u,
         "true since 2*ln2 > 1 + u; linear slack"),
        # sqrt(L - 2u) >= sqrt(L) - 2u/sqrt(L); squared form leaves 2u - 4u^2/L.
        ("sqrt_shift", 2 * u - 4 * u * u / ivL,
         "squared-difference slack; RHS nonnegative since L >= 2u"),
        # 2^x <= 1 + x for x = 2D/(n sqrt(log n)); true for 0 <= x <= 1.
        ("exp_linearize", _hull(x * (1 - _LN2 - x * _LN2 * _LN2), x * (1 - _LN2)),
         "(1+x) - 2^x; positive for x <= (1-ln2)/ln2^2 ~ 0.64"),
        # 2^{-sqrt(log(n-D))} <= 2^{-sqrt(log n)} (1+x):
        # in log space sqrt(L) - sqrt(L') <= log2(1+x).
        ("assemble", _log2_1p(x) - sqrt_diff,
         "composition of the two shifts; slack in log2"),
        # f(n)(1+x) - 2 < f(n) - 1  <=>  f(n)*x < 1.
        # Exact identity: log2(f(n)*x) = f_log + 1 + D_log - L - log2(sqrt L)
        #                              = 2 + (D_log - thresh) - log2(L)/2.
        ("final_margin", 1 - _pow2(2 + offset - lg / 2),
         "1 - f(n)*2D/(n sqrt(log n)); linear slack"),
        ("end_to_end", _pow2(params.f_log + iv.log(one_minus) / _LN2) - 1,
         "f(n) - f(n-D) - 1 via the factored log gap; linear slack"),
    )
    *steps, end = (_step(name, slack, notes.get(name, note)) for name, slack, note in rows)

    return ChainReport(
        L=mpmath.nstr((_lo(ivL) + _hi(ivL)) / 2, 17),
        d_log=d_str,
        at_threshold=at_threshold,
        out_of_regime=out_of_regime,
        steps=tuple(steps),
        end_to_end=end,
    )
