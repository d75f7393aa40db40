"""Special-function evaluators against closed forms and a scipy oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from ctsbench.special import (
    chi_sq_cdf,
    reg_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)


def test_reg_incomplete_beta_against_scipy():
    rng = np.random.default_rng(6)
    for _ in range(300):
        a = float(rng.uniform(0.1, 30.0))
        b = float(rng.uniform(0.1, 30.0))
        x = float(rng.uniform(0.0, 1.0))
        assert reg_incomplete_beta(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), abs=1e-11
        )


def test_chi_sq_cdf_closed_form_df2():
    # df=2 has CDF 1 - exp(-x/2)
    assert abs(chi_sq_cdf(8.0, 2) - (1.0 - math.exp(-4.0))) < 1e-10
    assert chi_sq_cdf(0.0, 2) == 0.0


def test_chi_sq_cdf_against_scipy():
    for df in (1, 2, 3, 7, 20):
        for x in (0.01, 0.5, 1.0, 4.0, 12.0, 35.0):
            assert chi_sq_cdf(x, df) == pytest.approx(
                scipy.stats.chi2.cdf(x, df), abs=1e-11
            )


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 8, 20, 21, 200, 201])
def test_chi_sq_cdf_finite_sum_against_scipy(df):
    # Both parities of the finite sum, from the origin through 180.25 (the
    # Friedman statistic of the cli_wide perfbench panel) to 1000.
    for x in (0.0, 1e-3, 0.3, 2.5, 9.0, 40.0, 180.25, 199.0, 420.0, 1000.0):
        assert chi_sq_cdf(x, df) == pytest.approx(scipy.stats.chi2.cdf(x, df), abs=1e-11)


def test_student_t_cdf_against_scipy():
    for df in (1, 2, 5, 10, 30, 120):
        for t in (-6.0, -1.3, 0.0, 0.7, 2.2, 9.0):
            assert student_t_cdf(t, df) == pytest.approx(
                scipy.stats.t.cdf(t, df), abs=1e-11
            )


def test_student_t_quantile_against_scipy():
    for df in (1, 2, 5, 10, 27, 120):
        for p in (0.01, 0.1, 0.5, 0.9, 0.975, 0.999):
            assert student_t_quantile(p, df) == pytest.approx(
                scipy.stats.t.ppf(p, df), rel=1e-9, abs=1e-9
            )


@pytest.mark.parametrize("df", [2_000, 20_000, 210_000])
def test_student_t_at_large_df_against_scipy(df):
    # Conover's df is (n - 1)(k - 1): about 210,000 for a 30,000-series
    # panel of eight methods.
    for t in (-6.0, -1.3, 0.0, 0.7, 1.96, 2.2, 9.0):
        assert student_t_cdf(t, df) == pytest.approx(scipy.stats.t.cdf(t, df), abs=1e-9)
    for p in (0.01, 0.1, 0.5, 0.9, 0.975, 0.999):
        assert student_t_quantile(p, df) == pytest.approx(scipy.stats.t.ppf(p, df), abs=1e-9)


def test_student_t_quantile_round_trip():
    worst = 0.0
    for df in (1, 2, 3, 5, 8, 12, 20, 50, 200):
        for p in np.linspace(0.005, 0.995, 45):
            q = student_t_quantile(float(p), df)
            worst = max(worst, abs(student_t_cdf(q, df) - p))
    assert worst <= 1e-7


def test_student_t_known_value():
    # classic table entry: two-sided 95% with 10 degrees of freedom
    assert student_t_quantile(0.975, 10) == pytest.approx(2.2281388519, abs=1e-9)


def test_quantile_domain_errors():
    with pytest.raises(ValueError):
        student_t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        student_t_quantile(1.0, 5)
    with pytest.raises(ValueError):
        chi_sq_cdf(1.0, 0)
    with pytest.raises(ValueError, match="integer df >= 1, got 2.5"):
        chi_sq_cdf(1.0, 2.5)
