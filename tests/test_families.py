import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qlsub.errors import ConfigError
from qlsub.families import ETA_MAX, EXP, FAMILY_NAMES, IDENTITY, LOGISTIC, LinkFamily, get_family

FAMILIES = [IDENTITY, EXP, LOGISTIC]


class TestMeanValues:
    def test_exp_at_zero(self):
        assert EXP.mean(0.0) == pytest.approx(1.0, abs=0)

    def test_identity_passthrough(self):
        assert IDENTITY.mean(3.5) == 3.5

    def test_logistic_symmetry_point(self):
        assert LOGISTIC.mean(0.0) == pytest.approx(0.5, abs=0)


class TestDerivativeValues:
    def test_identity_constant(self):
        assert IDENTITY.mean_derivative(-7.2) == 1.0

    def test_exp_equals_mean(self):
        assert EXP.mean_derivative(1.0) == pytest.approx(math.e, rel=1e-12)

    def test_logistic_quarter_at_zero(self):
        assert LOGISTIC.mean_derivative(0.0) == pytest.approx(0.25, abs=0)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_derivative_positive_on_grid(family):
    eta = np.linspace(-10, 10, 401)
    assert np.all(family.mean_derivative(eta) > 0)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_finite_difference_matches_derivative(family):
    # central difference with h = 1e-5 across the working range
    eta = np.linspace(-10, 10, 401)
    h = 1e-5
    fd = (family.mean(eta + h) - family.mean(eta - h)) / (2 * h)
    assert np.max(np.abs(fd - family.mean_derivative(eta))) <= 1e-6


@given(st.floats(min_value=-500, max_value=500))
def test_logistic_bounded(eta):
    mu = LOGISTIC.mean(eta)
    assert 0.0 < mu < 1.0 or mu in (0.0, 1.0) and abs(eta) > 36
    assert 0.0 <= mu <= 1.0


@given(st.floats(min_value=-600, max_value=600))
def test_exp_positive(eta):
    assert EXP.mean(eta) > 0


# beyond |eta| ~ 745 the defining exponentials underflow float64, so the
# mathematically-positive derivative is tested on the representable range
@given(st.floats(min_value=-700, max_value=700))
def test_derivative_positive_everywhere(eta):
    for family in FAMILIES:
        assert family.mean_derivative(eta) > 0


def test_logistic_extreme_arguments_safe():
    vals = LOGISTIC.mean(np.array([-800.0, 800.0]))
    assert vals[0] == 0.0 and vals[1] == 1.0
    dvals = LOGISTIC.mean_derivative(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(dvals)) and np.all(dvals >= 0)


def test_exp_clamp_and_saturation_flag():
    big = np.array([ETA_MAX + 50.0])
    assert np.isfinite(EXP.mean(big)[0])
    assert EXP.mean(big)[0] == math.exp(ETA_MAX)
    assert EXP.saturates(big)
    assert not EXP.saturates(np.array([10.0]))
    assert not IDENTITY.saturates(np.array([1e308]))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_eta_rejected(family, bad):
    with pytest.raises(ValueError):
        family.mean(bad)
    with pytest.raises(ValueError):
        family.mean_derivative(np.array([0.0, bad]))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_inputs_left_unchanged_and_scalars_stay_floats(family):
    # the exp family clamps and exponentiates in place, on an array it owns
    eta = np.array([-800.0, -1.0, 0.0, 2.0, ETA_MAX + 50.0])
    before = eta.copy()
    for fn in (family.mean, family.mean_derivative):
        np.testing.assert_array_equal(fn(eta[1:]), [fn(float(e)) for e in eta[1:]])
        fn(eta)
        np.testing.assert_array_equal(eta, before)
        for scalar in (0.5, np.array(0.5)):
            assert type(fn(scalar)) is float


def test_get_family_resolution():
    assert get_family("exp") is EXP
    assert get_family("Identity") is IDENTITY
    with pytest.raises(ConfigError, match=r"^unknown family 'probit'; expected one of \['exp', 'identity', 'logistic'\]$"):
        get_family("probit")
    assert FAMILY_NAMES == ("identity", "exp", "logistic")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        LinkFamily("cauchy", "cauchy")


def test_response_ranges():
    assert IDENTITY.response_range == (-math.inf, math.inf)
    assert EXP.response_range == (0.0, math.inf)
    assert LOGISTIC.response_range == (0.0, 1.0)
    # each mean stays inside its own family's range
    eta = np.linspace(-50.0, 50.0, 101)
    for family in (EXP, LOGISTIC):
        lo, hi = family.response_range
        mu = family.mean(eta)
        assert ((lo <= mu) & (mu <= hi)).all()
