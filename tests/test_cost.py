"""The deployment cost formula, in units of the cost of one site."""

import pytest

from cfmimo.experiment import deployment_cost


def test_aggregated_reference_value():
    # 300 sites of 1 antenna at 0.05 per antenna
    assert deployment_cost(300, 1, 0.05) == pytest.approx(315.0, rel=1e-12)
    # 6 sites of 50 antennas at the same price
    assert deployment_cost(6, 50, 0.05) == pytest.approx(21.0, rel=1e-12)


def test_total_cost_scales_linearly_in_sites():
    assert deployment_cost(20, 4, 0.5) == pytest.approx(
        2 * deployment_cost(10, 4, 0.5))


def test_cost_monotone_in_antennas_per_site():
    costs = [deployment_cost(10, n_t, 0.25) for n_t in (1, 2, 4, 8)]
    assert all(c2 > c1 for c1, c2 in zip(costs, costs[1:]))


def test_cost_effectiveness_reference():
    # 63 bit/s/Hz over a 315-unit deployment
    assert 63.0 / deployment_cost(300, 1, 0.05) == pytest.approx(0.2,
                                                                 rel=1e-12)


def test_cost_effectiveness_fixed_budget_tradeoff():
    # same antenna budget split differently: fewer, larger sites are cheaper,
    # so equal sum rate favors them
    dense = 50.0 / deployment_cost(300, 1, 0.1)
    concentrated = 50.0 / deployment_cost(30, 10, 0.1)
    assert concentrated > dense
