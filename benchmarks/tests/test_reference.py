"""The independent closed forms on hand-computable cases."""

import math

import numpy as np
import pytest

import reference as ref

# two single-antenna sites, one user: beta = (2, 1), alpha = (1, 1/4)
ALPHA_1 = np.array([[1.0], [0.25]])
BETA_1 = np.array([[2.0], [1.0]])


def test_noise_power_of_minus_30_dbm_is_one_microwatt():
    assert ref.noise_power_w(-30.0, 0.0, 1.0) == pytest.approx(1e-6, rel=1e-12)
    assert ref.noise_power_w(-40.0, 5.0, 100.0) == pytest.approx(
        10 ** (-1.5) * 1e-3, rel=1e-12)


def test_mrc_two_sites_one_user():
    # a = 5/4; num = (5/4)^2; den = (2 + 1/4) + (1/2)(5/4) = 23/8
    got = ref.mrc_sinr(ALPHA_1, BETA_1, n_t=1, p_u=1.0, sigma2=0.5)
    assert got == pytest.approx([25 / 46], rel=1e-14)


def test_cbf_two_sites_one_user():
    # eta = (1, 4); coherent = 1 + 2/4 = 3/2; each site radiates 1;
    # den = 1/2 + (2 + 1) = 7/2
    assert ref.cbf_site_scale(ALPHA_1) == pytest.approx([1.0, 4.0])
    got = ref.cbf_sinr(ALPHA_1, BETA_1, n_t=1, p_d=1.0, sigma2=0.5)
    assert got == pytest.approx([9 / 14], rel=1e-14)


def test_two_sites_two_users_two_antennas_per_site():
    alpha = np.array([[1.0, 0.5], [0.5, 1.0]])
    beta = np.array([[2.0, 1.0], [1.0, 2.0]])
    # MRC: num = 4 (3/2)^2 = 9; den = 2 (5/2 + 2) + 2 (3/2) = 12
    assert ref.mrc_sinr(alpha, beta, 2, 1.0, 1.0) == pytest.approx([0.75, 0.75])
    # CBF: eta = 2/3 per site; coherent^2 = (2/3)(9/4) = 3/2; leak = 3
    # num = 4 (3/2) = 6; den = 1 + 2 * 3 = 7
    assert ref.cbf_sinr(alpha, beta, 2, 1.0, 1.0) == pytest.approx([6 / 7, 6 / 7])


def test_mrc_user_without_estimate_energy_reads_zero():
    alpha = np.array([[1.0, 0.0], [0.5, 0.0]])
    beta = np.array([[2.0, 1.0], [1.0, 1.0]])
    got = ref.mrc_sinr(alpha, beta, 1, 1.0, 1.0)
    assert got[1] == 0.0 and got[0] > 0


def test_quantile_and_summary():
    assert ref.quantile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.5
    assert ref.quantile([0.0, 10.0], 0.05) == pytest.approx(0.5)
    s = ref.summarize([np.array([1.0, 3.0]), np.array([2.0, 2.0])])
    assert s["sum_rate_mean"] == 4.0
    assert s["se_p50"] == 2.0
    assert s["se_p05"] == pytest.approx(1.15)
    assert ref.rate([1.0, 3.0]) == pytest.approx([1.0, 2.0])
    assert math.isclose(ref.rate(0.0), 0.0)
