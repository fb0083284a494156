"""Unit tests for the carrying capacity (Lambert-W closed form)."""

import pytest

from repro.analysis.carrying import carrying_capacity, fixed_point_residual


def test_paper_values():
    """The paper computes γ ≈ 98.0 for fout=4 and ≈ 79.7 for fout=2."""
    assert carrying_capacity(100, 4) == pytest.approx(98.02, abs=0.05)
    assert carrying_capacity(100, 2) == pytest.approx(79.68, abs=0.05)


# 100·(fout + W0(−fout·e^−fout))/fout to 20 digits (mpmath, 40-digit
# working precision): pins the pure-math Lambert-W against an independent
# evaluation, not against itself.
REFERENCE_GAMMA_100 = {
    2: 79.681213002002004616,
    3: 94.047979070735963113,
    4: 98.017259871822158589,
    5: 99.302284634885526074,
    6: 99.748353773376573754,
    7: 99.908224096116498059,
    8: 99.966363344918862536,
}


@pytest.mark.parametrize("fout", sorted(REFERENCE_GAMMA_100))
def test_reference_values(fout):
    assert carrying_capacity(100, fout) == pytest.approx(REFERENCE_GAMMA_100[fout], rel=1e-12)


def test_gamma_scales_linearly_with_n():
    ratio = carrying_capacity(1000, 4) / carrying_capacity(100, 4)
    assert ratio == pytest.approx(10.0, rel=1e-9)


def test_gamma_increases_with_fout():
    gammas = [carrying_capacity(100, fout) for fout in (2, 3, 4, 6, 8)]
    assert gammas == sorted(gammas)
    assert gammas[-1] < 100.0


def test_gamma_bounded_by_n():
    for fout in (2, 3, 5, 10):
        assert 0 < carrying_capacity(100, fout) < 100


def test_fixed_point_residual_near_zero():
    for fout in (2, 4, 8):
        gamma = carrying_capacity(100, fout)
        assert abs(fixed_point_residual(100, fout, gamma)) < 1e-6


def test_invalid_parameters():
    with pytest.raises(ValueError):
        carrying_capacity(1, 4)
    with pytest.raises(ValueError):
        carrying_capacity(100, 1)


def test_large_fout_approaches_n():
    assert carrying_capacity(100, 20) > 99.99
