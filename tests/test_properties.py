"""Properties checked over generated inputs (skipped without hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cfmimo import downlink  # noqa: E402
from cfmimo.propagation import fading_profile, path_loss_db, \
    place_topology  # noqa: E402
from cfmimo.scenario import ScenarioConfig, drop_seed  # noqa: E402

# few examples each: the whole file stays within a few seconds
FEW = settings(max_examples=40, deadline=None)

# far beyond any config: 2**32 master seeds, 2**20 drops
masters = st.integers(0, 2 ** 32 - 1)
indices = st.integers(0, 2 ** 20 - 1)


@FEW
@given(st.lists(st.tuples(masters, indices), min_size=2, max_size=40,
                unique=True))
def test_drop_seed_is_injective(pairs):
    seeds = [drop_seed(m, i) for m, i in pairs]
    assert len(set(seeds)) == len(pairs)


@FEW
@given(masters, indices, st.integers(1, 2 ** 20 - 1))
def test_drop_seeds_of_one_master_differ(master, index, step):
    assert drop_seed(master, index) != drop_seed(master, index + step)


breakpoints = st.tuples(st.floats(1e-3, 0.5), st.floats(1.01, 20.0)).map(
    lambda t: (t[0], t[0] * t[1]))
l0s = st.floats(100.0, 160.0)


@FEW
@given(l0s, breakpoints)
def test_path_loss_is_continuous_at_both_breakpoints(l0, bp):
    d0, d1 = bp
    for d in (d0, d1):
        below = path_loss_db(np.nextafter(d, 0.0), l0, d0, d1)
        above = path_loss_db(np.nextafter(d, math.inf), l0, d0, d1)
        assert above == pytest.approx(below, rel=1e-12, abs=1e-9)


@FEW
@given(l0s, breakpoints,
       st.lists(st.floats(0.0, 5.0), min_size=2, max_size=30))
def test_path_loss_never_falls_with_distance(l0, bp, distances):
    d0, d1 = bp
    d = np.sort(np.asarray(distances + [d0, d1]))
    gain_db = path_loss_db(d, l0, d0, d1)      # the loss is -gain_db
    # up to rounding where two slopes meet (a few ulps of ~150 dB)
    assert (np.diff(gain_db) <= 1e-12).all()


@st.composite
def small_configs(draw):
    n_t = draw(st.integers(1, 4))
    m = n_t * draw(st.integers(2 if n_t == 1 else 1, 6))
    return ScenarioConfig(
        total_antennas=m, antennas_per_ap=n_t,
        num_users=draw(st.integers(1, min(6, m - 1))),
        area_side_km=draw(st.floats(0.05, 3.0)),
        ue_tx_power=draw(st.floats(1e-4, 10.0)),
        bandwidth_hz=draw(st.floats(1e3, 1e8)),
        shadowing_sigma_db=draw(st.floats(0.0, 12.0)),
        master_seed=draw(masters))


def drawn_profile(cfg, index):
    rng = np.random.default_rng(drop_seed(cfg.master_seed, index))
    return fading_profile(cfg, place_topology(cfg, rng), rng)


@FEW
@given(small_configs(), indices)
def test_estimate_variance_never_exceeds_the_gain(cfg, index):
    profile = drawn_profile(cfg, index)
    assert (profile.alpha >= 0).all()
    assert (profile.alpha <= profile.beta).all()


@FEW
@given(small_configs(), indices)
def test_cbf_spends_each_antenna_budget_exactly(cfg, index):
    profile = drawn_profile(cfg, index)
    if not (profile.alpha.sum(axis=1) > 0).all():
        return                       # a dead site is rejected, not scaled
    pc = downlink.cbf_power(profile)
    # expected radiated power of any antenna on site q over its budget
    ratio = pc.eta_site * profile.alpha.sum(axis=1)
    assert np.abs(ratio - 1.0).max() <= 1e-12
