"""The normal and Kolmogorov special functions the package needs, on numpy
and ``math`` alone, so that importing and running mvos loads no scipy.

``ndtr`` is Cephes' ``ndtr.c`` (the code behind ``scipy.special.ndtr``),
operation for operation and with the C library's ``exp``, so it returns
scipy's values bit for bit.  ``ndtri`` is Wichura's AS241 (the algorithm
of ``statistics.NormalDist.inv_cdf``) on arrays.  ``kolmogorov`` sums the
two theta series of the Kolmogorov distribution and ``kolmogi`` inverts
it by bisection.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri", "kolmogorov", "kolmogi"]

# Cephes ndtr.c: erfc on [1, 8) and [8, inf), erf on [0, 1]; each
# denominator starts with the leading 1 that Cephes' p1evl leaves implicit
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2

# AS241 (PPND16): the central region |p - 0.5| <= 0.425, then r = sqrt(-log(min(p, 1 - p)))
# up to 5 and beyond; numerator and denominator coefficients, highest degree first
_AS241 = (
    ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4, 4.5921953931549871457e4,
      1.3731693765509461125e4, 1.9715909503065514427e3, 1.3314166789178437745e2, 3.3871328727963666080e0),
     (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4, 2.1213794301586595867e4,
      5.3941960214247511077e3, 6.8718700749205790830e2, 4.2313330701600911252e1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1, 1.2704582524523683826e0,
      3.6478483247632046050e0, 5.7694972214606914055e0, 4.6303378461565452959e0, 1.4234371107496835773e0),
     (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2, 1.4810397642748007459e-1,
      6.8976733498510000455e-1, 1.6763848301838038494e0, 2.0531916266377588219e0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.2426609473880784386e-3, 2.6532189526576123093e-2,
      2.9656057182850489123e-1, 1.7848265399172913358e0, 5.4637849111641143699e0, 6.6579046435011037772e0),
     (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5, 7.8686913114561329059e-4,
      1.4875361290850614852e-2, 1.3692988092273580531e-1, 5.9983220655588793769e-1, 1.0)),
)

_exp = np.frompyfunc(math.exp, 1, 1)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Horner's rule on an array, in the order of Cephes' ``polevl``."""
    out = x * coef[0]
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _erfc(a: np.ndarray) -> np.ndarray:
    """Cephes' erfc of a 1-d array."""
    x = np.abs(a)
    out = np.empty_like(a)
    near = x < 1.0
    b = a[near]
    z = b * b
    out[near] = 1.0 - b * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    # each rational only where it applies; nan takes the last
    for far, num, den in ((~near & (x < 8.0), _ERFC_P, _ERFC_Q), (~(x < 8.0), _ERFC_R, _ERFC_S)):
        if far.any():
            b, z = a[far], x[far]
            # the C library's exp, not numpy's: the two differ in the last bit
            y = _exp(-b * b).astype(float) * _polevl(z, num) / _polevl(z, den)
            y[-b * b < -_MAXLOG] = 0.0
            out[far] = np.where(b < 0, 2.0 - y, y)
    return out


def ndtr(x):
    """Standard normal cdf, as ``scipy.special.ndtr``."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return (0.5 * _erfc(-x.ravel() * math.sqrt(0.5))).reshape(x.shape)[()]


def ndtri(p):
    """Standard normal quantile; -inf at 0, inf at 1 and nan outside [0, 1]."""
    shape = np.shape(p)
    p = np.asarray(p, dtype=float).ravel()
    q = p - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    out = np.copysign(np.full(p.shape, np.inf), q)
    central = np.abs(q) <= 0.425
    tails = ~central & (r < np.inf)
    for take, t, (num, den) in zip((central, tails & (r <= 5.0), tails & (r > 5.0)),
                                   (0.180625 - q * q, r - 1.6, r - 5.0), _AS241):
        if take.any():
            t = t[take]
            x = _polevl(t, num) / _polevl(t, den)
            out[take] = x * q[take] if take is central else np.copysign(x, q[take])
    out[~((p >= 0.0) & (p <= 1.0))] = np.nan
    return out.reshape(shape)[()]


def _kolmogorov_cdf_sf(x: float) -> tuple[float, float]:
    """P(K <= x) and P(K > x), each from the theta series that converges fast at x."""
    if x < 0.04:
        return 0.0, 1.0  # the cdf underflows
    if x <= 1.0:
        # sqrt(2 pi) / x * sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2)): every omitted term is below 1e-26
        w = -math.pi**2 / (8.0 * x * x)
        cdf = math.sqrt(2.0 * math.pi) / x * sum(math.exp((2 * k - 1) ** 2 * w) for k in range(1, 5))
        return cdf, 1.0 - cdf
    # 2 sum_k (-1)^(k - 1) exp(-2 k^2 x^2), summed from the smallest term
    sf = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(6, 0, -1))
    return 1.0 - sf, sf


def kolmogorov(x: float) -> float:
    """Survival function of the Kolmogorov distribution, as ``scipy.special.kolmogorov``."""
    return 1.0 if x <= 0.0 else _kolmogorov_cdf_sf(x)[1]


def kolmogi(p: float) -> float:
    """The x with ``kolmogorov(x) == p``, found by bisection to the last bit."""
    if not 0.0 <= p <= 1.0:
        return math.nan
    if p == 0.0 or p == 1.0:
        return math.inf if p == 0.0 else 0.0
    # compare the smaller of the two tails, which the series gives to full relative precision
    upper = p <= 0.5
    target = p if upper else 1.0 - p
    # kolmogorov(x) <= 2 exp(-2 x^2), so the root lies below hi
    lo, hi = 0.0, max(1.0, math.sqrt(0.5 * (math.log(2.0) - math.log(p))))
    mid = 0.5 * hi
    while lo < mid < hi:
        tail = _kolmogorov_cdf_sf(mid)[1 if upper else 0]
        if (tail > target) == upper:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
