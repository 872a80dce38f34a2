"""Core numerics: Q-function, LLR mixtures, |LLR| CDF, population moments.

Expected values tagged as derived were computed with independent oracles
(numeric quadrature of the Gaussian density, large sample draws) rather
than with the code paths under test.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from otdetect import (
    Hypothesis,
    LlrMixture,
    ModelConfig,
    abs_llr_cdf,
    abs_llr_pdf,
    llr_mixture,
    mixture_pdf,
    population_moments,
    q_function,
)
from conftest import random_config


def gaussian_tail_oracle(x: float) -> float:
    """P(standard normal > x) by quadrature of the density; avoids erfc."""
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), x, x + 40.0)
    return val


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == 0.5

    def test_deep_tail(self):
        assert q_function(10.0) < 1e-20

    def test_matches_quadrature_oracle(self):
        # Oracle gives 0.15865525393... at x=1; frozen to 6 decimals.
        assert gaussian_tail_oracle(1.0) == pytest.approx(0.158655, abs=1e-6)
        assert q_function(1.0) == pytest.approx(0.158655, abs=1e-6)
        for x in (-3.0, -0.5, 0.7, 2.5, 5.0):
            assert q_function(x) == pytest.approx(gaussian_tail_oracle(x), abs=1e-12)

    def test_symmetry_and_monotonicity(self):
        xs = np.linspace(-8, 8, 201)
        vals = q_function(xs)
        np.testing.assert_allclose(vals + q_function(-xs), 1.0, atol=1e-14)
        assert np.all(np.diff(vals) < 0)

    def test_relative_accuracy_in_tail(self):
        # erfc-grade accuracy: relative error vs mpmath-free oracle at x=8.
        x = 8.0
        oracle, err = quad(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), x, 60.0, epsabs=1e-30
        )
        assert abs(q_function(x) - oracle) <= max(1e-12 * oracle, 2 * err)


class TestLlrMixture:
    def test_honest_means_and_variance(self):
        cfg = ModelConfig(n_sensors=5, signal=2.0, noise_var=1.0)
        m1 = llr_mixture(cfg, Hypothesis.H1)
        assert m1.mean_honest == pytest.approx(2.0)
        assert m1.variance == pytest.approx(4.0)
        m0 = llr_mixture(cfg, Hypothesis.H0)
        assert m0.mean_honest == pytest.approx(-2.0)

    def test_byzantine_mean_matches_sampled_attack(self):
        # Oracle: mean LLR of 10^6 falsified observations y = s + n - D under H1.
        cfg = ModelConfig(n_sensors=5, signal=2.0, noise_var=1.0, byz_frac=0.5, attack_strength=3.0)
        m1 = llr_mixture(cfg, Hypothesis.H1)
        assert m1.mean_byz == pytest.approx(-4.0)
        gen = np.random.default_rng(7)
        y = cfg.signal + gen.standard_normal(1_000_000) - cfg.attack_strength
        llr = (2 * y * cfg.signal - cfg.signal**2) / (2 * cfg.noise_var)
        se = llr.std(ddof=1) / 1000.0
        assert llr.mean() == pytest.approx(m1.mean_byz, abs=4 * se)

    def test_zero_attack_collapses_to_honest(self):
        for s in (0.5, 1.7, 4.0):
            cfg = ModelConfig(n_sensors=3, signal=s, byz_frac=0.4, attack_strength=0.0)
            for h in Hypothesis:
                m = llr_mixture(cfg, h)
                assert m.mean_byz == m.mean_honest

    def test_byzantine_shift_flips_toward_wrong_hypothesis(self):
        cfg = ModelConfig(n_sensors=3, signal=3.0, byz_frac=0.3, attack_strength=6.0)
        m1 = llr_mixture(cfg, Hypothesis.H1)
        m0 = llr_mixture(cfg, Hypothesis.H0)
        assert m1.mean_byz < m1.mean_honest
        assert m0.mean_byz > m0.mean_honest
        assert m0.mean_byz == pytest.approx(-m1.mean_byz)


class TestMixturePdf:
    def test_single_standard_normal(self):
        m = LlrMixture(weight_byz=0.0, mean_honest=0.0, mean_byz=0.0, variance=1.0)
        assert mixture_pdf(m, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_normalization_random_mixtures(self, rng):
        for _ in range(5):
            cfg = random_config(rng)
            for h in Hypothesis:
                m = llr_mixture(cfg, h)
                lo = min(m.mean_honest, m.mean_byz) - 12 * m.std
                hi = max(m.mean_honest, m.mean_byz) + 12 * m.std
                total, _ = quad(lambda l: mixture_pdf(m, l), lo, hi, limit=200)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_mixture_is_even(self):
        m = LlrMixture(weight_byz=0.5, mean_honest=2.5, mean_byz=-2.5, variance=1.3)
        ls = np.linspace(0.0, 9.0, 50)
        np.testing.assert_allclose(mixture_pdf(m, ls), mixture_pdf(m, -ls), rtol=1e-13)


class TestAbsLlrCdf:
    def test_zero_width(self):
        m = LlrMixture(weight_byz=0.3, mean_honest=1.0, mean_byz=-2.0, variance=2.0)
        assert abs_llr_cdf(m, 0.0) == 0.0

    def test_total_mass(self):
        m = LlrMixture(weight_byz=0.3, mean_honest=1.0, mean_byz=-2.0, variance=2.0)
        x = abs(m.mean_honest) + 50 * m.std
        assert abs_llr_cdf(m, x) == pytest.approx(1.0, abs=1e-12)

    def test_standard_normal_central_interval(self):
        # 1 - 2*Q(1) from the quadrature oracle: 0.6826894921...
        m = LlrMixture(weight_byz=0.0, mean_honest=0.0, mean_byz=0.0, variance=1.0)
        expected = 1.0 - 2.0 * gaussian_tail_oracle(1.0)
        assert expected == pytest.approx(0.682689, abs=1e-6)
        assert abs_llr_cdf(m, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_x_rejected(self):
        m = LlrMixture(weight_byz=0.0, mean_honest=0.0, mean_byz=0.0, variance=1.0)
        with pytest.raises(ValueError):
            abs_llr_cdf(m, -0.5)
        with pytest.raises(ValueError):
            abs_llr_pdf(m, np.array([0.5, -0.1]))

    def test_monotone_and_derivative_matches_folded_pdf(self, rng):
        for _ in range(3):
            cfg = random_config(rng)
            m = llr_mixture(cfg, Hypothesis.H1)
            hi = max(abs(m.mean_honest), abs(m.mean_byz)) + 8 * m.std
            xs = np.linspace(0.0, hi, 1000)
            cdf = abs_llr_cdf(m, xs)
            assert np.all(np.diff(cdf) >= 0)
            h = 1e-6 * hi
            inner = xs[1:-1]
            numeric = (abs_llr_cdf(m, inner + h) - abs_llr_cdf(m, inner - h)) / (2 * h)
            np.testing.assert_allclose(numeric, abs_llr_pdf(m, inner), atol=1e-6)

    def test_degenerate_weights_no_blowup(self):
        for w in (0.0, 1.0):
            m = LlrMixture(weight_byz=w, mean_honest=1.0, mean_byz=-3.0, variance=1.0)
            assert np.isfinite(mixture_pdf(m, 0.5))
            assert 0.0 <= abs_llr_cdf(m, 2.0) <= 1.0


class TestPopulationMoments:
    def test_honest_only(self):
        cfg = ModelConfig(n_sensors=4, signal=2.0, noise_var=1.0)
        mom = population_moments(cfg)
        assert mom.mean_h1 == pytest.approx(2.0)
        assert mom.var_h1 == pytest.approx(4.0)

    def test_blinding_strength_zeroes_both_means(self):
        cfg = ModelConfig(
            n_sensors=4, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=5.0
        )
        mom = population_moments(cfg)
        assert mom.mean_h1 == pytest.approx(0.0, abs=1e-12)
        assert mom.mean_h0 == pytest.approx(0.0, abs=1e-12)

    def test_blinding_identity_random_points(self, rng):
        for _ in range(10):
            s = float(rng.uniform(0.5, 5.0))
            alpha = float(rng.uniform(0.05, 1.0))
            cfg = ModelConfig(
                n_sensors=3, signal=s, byz_frac=alpha, attack_strength=s / (2 * alpha)
            )
            mom = population_moments(cfg)
            scale = cfg.llr_var
            assert abs(mom.mean_h1) <= 1e-12 * scale
            assert abs(mom.mean_h0) <= 1e-12 * scale

    def test_variance_identity(self, rng):
        # var = beta + a(1-a)(mean_honest - mean_byz)^2, checked numerically.
        for _ in range(10):
            cfg = random_config(rng)
            mom = population_moments(cfg)
            for h in Hypothesis:
                m = llr_mixture(cfg, h)
                a = cfg.byz_frac
                expected = cfg.llr_var + a * (1 - a) * (m.mean_honest - m.mean_byz) ** 2
                assert mom.var(h) == pytest.approx(expected, rel=1e-12)

    def test_explicit_between_component_spread(self):
        cfg = ModelConfig(
            n_sensors=4, signal=2.0, noise_var=1.0, byz_frac=0.5, attack_strength=2.0
        )
        mom = population_moments(cfg)
        m1 = llr_mixture(cfg, Hypothesis.H1)
        assert mom.var_h1 == pytest.approx(
            cfg.llr_var + 0.25 * (m1.mean_honest - m1.mean_byz) ** 2
        )

    def test_moments_match_large_sample(self, rng):
        # 10^6 draws per config; means within 4 SE, variances within 4 SE of
        # the sample variance's own standard error.
        for _ in range(5):
            cfg = random_config(rng)
            mom = population_moments(cfg)
            h = Hypothesis(int(rng.integers(0, 2)))
            m = llr_mixture(cfg, h)
            draws = m.sample(rng, 1_000_000)
            n = draws.size
            se_mean = draws.std(ddof=1) / math.sqrt(n)
            assert draws.mean() == pytest.approx(mom.mean(h), abs=4 * se_mean)
            sample_var = draws.var(ddof=1)
            centered = draws - draws.mean()
            fourth = np.mean(centered**4)
            se_var = math.sqrt(max(fourth - sample_var**2, 0.0) / n)
            assert sample_var == pytest.approx(mom.var(h), abs=4 * se_var)


class TestModelConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sensors=0, signal=1.0),
            # A sensor count must be an integer, not a float or a bool.
            dict(n_sensors=10.0, signal=1.0),
            dict(n_sensors=True, signal=1.0),
            dict(n_sensors=math.inf, signal=1.0),
            dict(n_sensors=3, signal=0.0),
            dict(n_sensors=3, signal=1.0, noise_var=0.0),
            dict(n_sensors=3, signal=1.0, byz_frac=1.5),
            dict(n_sensors=3, signal=1.0, byz_frac=-0.1),
            dict(n_sensors=3, signal=1.0, attack_strength=-1.0),
            dict(n_sensors=3, signal=1.0, prior_h1=0.0),
            dict(n_sensors=3, signal=1.0, prior_h1=1.0),
            dict(n_sensors=3, signal=math.inf),
            dict(n_sensors=3, signal=math.nan),
            dict(n_sensors=3, signal=1.0, noise_var=math.inf),
            dict(n_sensors=3, signal=1.0, attack_strength=math.inf),
            dict(n_sensors=3, signal=1.0, attack_strength=math.nan),
            # Finite inputs whose LLR moments overflow.
            dict(n_sensors=3, signal=3.0, attack_strength=1e308),
            dict(n_sensors=3, signal=3.0, attack_strength=1e200),
            dict(n_sensors=3, signal=3.0, byz_frac=0.3, attack_strength=1e200),
            dict(n_sensors=3, signal=3.0, attack_strength=1e154),
            dict(n_sensors=3, signal=1e200),
            dict(n_sensors=3, signal=1e160),
            dict(n_sensors=3, signal=3.0, noise_var=1e-320),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sensors=3, signal=1e-160, noise_var=1e160),
            dict(n_sensors=3, signal=1e-200),
            dict(n_sensors=3, signal=1e-10, noise_var=1e308, byz_frac=0.3, attack_strength=1.0),
        ],
    )
    def test_llr_variance_underflow_names_parameters(self, kwargs):
        # s^2/sigma^2 underflows to 0; the message names the user's parameters.
        with pytest.raises(ValueError, match=r"underflow.*\(s=.*, sigma2=.*\)"):
            ModelConfig(**kwargs)

    def test_accepts_numpy_integer_sensor_count(self):
        n = ModelConfig(n_sensors=np.int64(5), signal=1.0).n_sensors
        assert n == 5 and type(n) is int

    def test_accepts_large_finite_moments(self):
        cfg = ModelConfig(n_sensors=3, signal=3.0, byz_frac=0.3, attack_strength=1e150)
        assert math.isfinite(population_moments(cfg).var_h0)

    def test_threshold_equal_priors(self):
        assert ModelConfig(n_sensors=2, signal=1.0).threshold == 0.0

    def test_threshold_general(self):
        cfg = ModelConfig(n_sensors=2, signal=1.0, prior_h1=0.2)
        assert cfg.threshold == pytest.approx(math.log(0.8 / 0.2))

    def test_replace_revalidates(self):
        cfg = ModelConfig(n_sensors=2, signal=1.0)
        with pytest.raises(ValueError):
            cfg.replace(signal=-1.0)
