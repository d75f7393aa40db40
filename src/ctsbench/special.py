"""Distribution functions for the rank tests.

The standard library has the log-gamma (`math.lgamma`) and the normal
distribution (`statistics.NormalDist`, which the Gaussian `parametric`
intervals use), but no chi-square or Student-t distribution. This module
holds those two for the Friedman and Conover tests: the chi-square CDF as
a finite sum for the integer degrees of freedom the Friedman test uses
(k - 1), and the Student-t CDF and quantile through the regularized
incomplete beta (continued fraction in the classical Cephes/Numerical
Recipes form). Accuracy targets, as absolute errors against scipy:
chi-square CDF <= 1e-11; t CDF <= 1e-11 up to df 120 and <= 1e-9 up to
df 210,000 (the Conover df of a 30,000-series, eight-method panel); t
quantile within 1e-9, relative beyond magnitude 1.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def chi_sq_cdf(x: float, df: int) -> float:
    """Chi-square CDF for an integer df >= 1: one minus the finite survival
    sum (Abramowitz & Stegun 26.4). Even df: the Poisson sum
    exp(-x/2) * sum_{j < df/2} (x/2)^j / j!; odd df: erfc(sqrt(x/2)) plus
    sqrt(2x/pi) * exp(-x/2) * sum_{r < (df-1)/2} x^r / (1 * 3 * ... * (2r+1)).

    The sum has df/2 terms. Past x ~ 1490 exp(-x/2) underflows and the CDF
    reads 1, its value to double precision for df up to about 1,000; the
    Friedman test uses df = k - 1 for k methods.
    """
    if df < 1 or df != int(df):
        raise ValueError(f"chi_sq_cdf requires an integer df >= 1, got {df}")
    if x < 0.0:
        raise ValueError(f"chi_sq_cdf requires x >= 0, got {x}")
    df = int(df)
    if df % 2:
        survival = math.erfc(math.sqrt(0.5 * x))
        term = math.sqrt(2.0 * x / math.pi) * math.exp(-0.5 * x)
    else:
        survival, term = 0.0, math.exp(-0.5 * x)
    for j in range(df % 2 + 2, df + 1, 2):
        survival += term
        term *= x / j
    return max(0.0, 1.0 - survival)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"reg_incomplete_beta requires x in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    bt = math.exp(log_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, bt * _beta_cf(a, b, x) / a)
    return max(0.0, 1.0 - bt * _beta_cf(b, a, 1.0 - x) / b)


def student_t_cdf(t: float, df: int) -> float:
    """Student-t CDF with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"student_t_cdf requires df >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * reg_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t > 0.0 else tail


def _student_t_pdf(t: float, df: int) -> float:
    log_norm = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))


def student_t_quantile(p: float, df: int) -> float:
    """Student-t quantile by bisection plus Newton polish on the CDF.

    Symmetric around p = 0.5; absolute error <= 1e-8 for df >= 1.
    """
    if df < 1:
        raise ValueError(f"student_t_quantile requires df >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"student_t_quantile requires p in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError(f"t quantile bracket failed for p={p}, df={df}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(6):
        err = student_t_cdf(t, df) - p
        dens = _student_t_pdf(t, df)
        if dens <= 0.0:
            break
        step = err / dens
        t -= step
        if not lo <= t <= hi:
            t = min(max(t, lo), hi)
        if abs(step) < 1e-13 * max(1.0, abs(t)):
            break
    return t


