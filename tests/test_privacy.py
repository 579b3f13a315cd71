import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import simplex_oracle
from unlearn_forge.errors import DomainError
from unlearn_forge.privacy import (LdpParams, label_ldp_epsilon, optimal_prediction_distribution,
                                   verify_ratio_bound)


def valid_params(K, alpha, gamma1, gamma2):
    try:
        return LdpParams(K=K, alpha=alpha, gamma1=gamma1, gamma2=gamma2)
    except DomainError:
        return None


class TestEpsilon:
    def test_endpoint_zero(self):
        # alpha = 1 - gamma1/gamma2 makes the mechanism uniform
        p = LdpParams(K=10, alpha=-1.0, gamma1=2.0, gamma2=1.0)
        assert label_ldp_epsilon(p) == pytest.approx(0.0, abs=1e-12)

    def test_log3_case(self):
        p = LdpParams(K=2, alpha=-1.0, gamma1=3.0, gamma2=1.0)
        assert label_ldp_epsilon(p) == pytest.approx(math.log(3), rel=1e-12)

    def test_precondition_failure(self):
        with pytest.raises(DomainError):
            LdpParams(K=2, alpha=-1.0, gamma1=1.0, gamma2=1.0)

    def test_param_validation(self):
        with pytest.raises(DomainError):
            LdpParams(K=1, alpha=-1.0, gamma1=2.0, gamma2=1.0)
        with pytest.raises(DomainError):
            LdpParams(K=3, alpha=0.5, gamma1=2.0, gamma2=1.0)
        with pytest.raises(DomainError):
            LdpParams(K=3, alpha=-1.0, gamma1=-2.0, gamma2=1.0)

    def test_endpoint_monotone(self):
        # epsilon decreases strictly as alpha approaches 1 - gamma1/gamma2 = -1
        K, g1, g2 = 5, 2.0, 1.0
        alphas = [-0.2, -0.4, -0.6, -0.8, -1.0]
        eps = [label_ldp_epsilon(LdpParams(K=K, alpha=a, gamma1=g1, gamma2=g2)) for a in alphas]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert eps[-1] == pytest.approx(0.0, abs=1e-12)


class TestOptimalDistribution:
    def test_uniform_case(self):
        p = LdpParams(K=10, alpha=-1.0, gamma1=2.0, gamma2=1.0)
        pt, po = optimal_prediction_distribution(p)
        assert pt == pytest.approx(0.1, abs=1e-12)
        assert po == pytest.approx(0.1, abs=1e-12)

    def test_alpha_to_zero_limit(self):
        pts = []
        for a in (-1e-2, -1e-4, -1e-6):
            p = LdpParams(K=4, alpha=a, gamma1=2.0, gamma2=1.0)
            pt, po = optimal_prediction_distribution(p)
            pts.append((pt, po))
        assert pts[-1][0] > 0.999
        assert pts[-1][1] < 1e-3
        assert pts[0][1] > pts[1][1] > pts[2][1]

    def test_normalization_exact(self):
        p = LdpParams(K=6, alpha=-0.7, gamma1=3.0, gamma2=1.5)
        pt, po = optimal_prediction_distribution(p)
        assert pt + 5 * po == pytest.approx(1.0, abs=1e-12)
        assert 0 < po < pt < 1

    def test_simplex_oracle_matches(self):
        p = LdpParams(K=4, alpha=-0.8, gamma1=2.5, gamma2=1.0)
        pt, po = optimal_prediction_distribution(p)
        numeric = simplex_oracle(p)
        assert numeric[0] == pytest.approx(pt, abs=1e-6)
        np.testing.assert_allclose(numeric[1:], po, atol=1e-6)


class TestRatioBound:
    def test_uniform_case_zero_ratio(self):
        rep = verify_ratio_bound(LdpParams(K=10, alpha=-1.0, gamma1=2.0, gamma2=1.0))
        assert rep.empirical_max_log_ratio == pytest.approx(0.0, abs=1e-12)

    def test_log3_case_tight(self):
        rep = verify_ratio_bound(LdpParams(K=2, alpha=-1.0, gamma1=3.0, gamma2=1.0))
        assert rep.empirical_max_log_ratio == pytest.approx(rep.epsilon, abs=1e-9)
        assert rep.empirical_max_log_ratio == pytest.approx(
            math.log(rep.p_target / rep.p_other), abs=1e-12)

    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=-5.0, max_value=-1e-3),
           st.floats(min_value=1e-2, max_value=10.0),
           st.floats(min_value=1e-2, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_for_valid_params(self, K, alpha, gamma1, gamma2):
        params = valid_params(K, alpha, gamma1, gamma2)
        if params is None:
            return
        try:
            rep = verify_ratio_bound(params)
        except DomainError:
            return  # nonpositive log argument
        assert rep.empirical_max_log_ratio <= rep.epsilon + 1e-9
        assert rep.p_target + (K - 1) * rep.p_other == pytest.approx(1.0, abs=1e-12)
        assert 0 < rep.p_other < 1 and 0 < rep.p_target < 1


def loop_max_log_ratio(params):
    """The brute-force triple loop over (y, y', y_pred), kept as an oracle."""
    p_target, p_other = optimal_prediction_distribution(params)

    def prob(true_label, pred):
        return p_target if pred == true_label else p_other

    best = -math.inf
    for y in range(params.K):
        for y2 in range(params.K):
            for pred in range(params.K):
                best = max(best, math.log(prob(y, pred) / prob(y2, pred)))
    return best


class TestRatioTable:
    @pytest.mark.parametrize("K", [2, 3, 5, 10, 37, 100])
    @pytest.mark.parametrize("alpha", [-0.1, -0.45, -0.9])
    def test_table_bit_identical_to_loop(self, K, alpha):
        params = LdpParams(K=K, alpha=alpha, gamma1=2.0, gamma2=1.0)
        rep = verify_ratio_bound(params)
        assert rep.empirical_max_log_ratio == loop_max_log_ratio(params)

    @given(st.integers(min_value=2, max_value=12),
           st.floats(min_value=-5.0, max_value=-1e-3),
           st.floats(min_value=1e-2, max_value=10.0),
           st.floats(min_value=1e-2, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_table_matches_loop_for_valid_params(self, K, alpha, gamma1, gamma2):
        params = valid_params(K, alpha, gamma1, gamma2)
        if params is None:
            return
        try:
            rep = verify_ratio_bound(params)
        except DomainError:
            return  # nonpositive log argument
        assert rep.empirical_max_log_ratio == loop_max_log_ratio(params)
