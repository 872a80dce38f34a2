"""Analytic performance: error probabilities, expected transmissions,
order-statistic densities, and savings bounds.

Each closed-form path is checked against an independent oracle: literal
power-set enumeration, quadrature of hand-built densities, large-sample
simulation, or quadrature of the order-statistic density (the program
uses the binomial tail identity instead).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from otdetect import (
    Hypothesis,
    ModelConfig,
    RngSpec,
    abs_llr_pdf,
    abs_order_stat_cdf,
    abs_order_stat_pdf,
    analytic_error_probs,
    expected_transmissions,
    llr_mixture,
    q_function,
    population_moments,
    run_batch,
    stopping_rule,
    transmission_savings_bounds,
)
from otdetect.analysis import _envelope_radius, _order_stat_cdf
from conftest import random_config


def power_set_error_probs(cfg: ModelConfig) -> tuple[float, float]:
    """Literal enumeration over all 2^N compromise patterns (oracle)."""
    n = cfg.n_sensors
    lam = cfg.threshold
    scale = math.sqrt(n * cfg.llr_var)
    byz_counts = np.array([bin(mask).count("1") for mask in range(2**n)])
    out = {}
    for h in Hypothesis:
        m = llr_mixture(cfg, h)
        weights = cfg.byz_frac**byz_counts * (1 - cfg.byz_frac) ** (n - byz_counts)
        means = (n - byz_counts) * m.mean_honest + byz_counts * m.mean_byz
        out[h] = float(np.sum(weights * q_function((lam - means) / scale)))
    return out[Hypothesis.H1], out[Hypothesis.H0]


def exact_tails(cfg: ModelConfig) -> tuple[float, float, float]:
    """(p_d, p_miss, p_f) from exact binomial weights and math.erfc tails, by math.fsum (oracle)."""
    n, s, var, d = cfg.n_sensors, cfg.signal, cfg.noise_var, cfg.attack_strength
    alpha0 = Fraction(cfg.byz_frac)
    weights = [float(math.comb(n, m) * alpha0**m * (1 - alpha0) ** (n - m)) for m in range(n + 1)]
    scale = math.sqrt(n * s * s / var)

    def tail(mean_honest: float, mean_byz: float, side: int) -> float:
        """P(side * (sum - lam) > 0): a sum of Q(x) = erfc(x / sqrt 2) / 2."""
        return math.fsum(
            w * 0.5 * math.erfc(side * (cfg.threshold - (n - m) * mean_honest - m * mean_byz)
                                / scale / math.sqrt(2))
            for m, w in enumerate(weights)
        )

    # The LLR (2ys - s^2)/(2 var); a compromised y moves by D toward the wrong hypothesis.
    h1_means = s * s / (2 * var), (s * s - 2 * s * d) / (2 * var)
    p_f = tail(-s * s / (2 * var), (2 * s * d - s * s) / (2 * var), 1)
    return tail(*h1_means, 1), tail(*h1_means, -1), p_f


def exact_error_prob(cfg: ModelConfig) -> float:
    """p_e from :func:`exact_tails` (oracle)."""
    _, p_miss, p_f = exact_tails(cfg)
    return cfg.prior_h1 * p_miss + cfg.prior_h0 * p_f


def global_sum_pdf(cfg: ModelConfig, h: Hypothesis, z):
    """Density of the N-sensor LLR sum, built directly from its mixture form."""
    n = cfg.n_sensors
    m = llr_mixture(cfg, h)
    total = np.zeros_like(np.asarray(z, dtype=float))
    var = n * cfg.llr_var
    for byz in range(n + 1):
        w = math.comb(n, byz) * cfg.byz_frac**byz * (1 - cfg.byz_frac) ** (n - byz)
        mean = (n - byz) * m.mean_honest + byz * m.mean_byz
        total = total + w * np.exp(-((np.asarray(z) - mean) ** 2) / (2 * var)) / math.sqrt(
            2 * math.pi * var
        )
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def order_stat_cdf_by_quadrature(cfg: ModelConfig, h: Hypothesis, k: int, w: float) -> float:
    """P(k-th largest LLR magnitude <= w) by quadrature of its density (oracle).

    Composite 16-point Gauss-Legendre rule for abs_order_stat_pdf on [0, w],
    with break points every 0.1: at N = 300 and s = 3 the density's spike is
    0.04 wide at its narrowest, and halving the panels moves the results by
    < 1e-13.  Past 12 sd beyond the farthest component mean the density is
    below 1e-25 and is not integrated.
    """
    if w <= 0.0:
        return 0.0
    mix = llr_mixture(cfg, h)
    top = min(w, max(abs(mix.mean_honest), abs(mix.mean_byz)) + 12.0 * mix.std)
    edges = np.linspace(0.0, top, math.ceil(top / 0.1) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = edges[:-1, None] + half * (1.0 + _GL_NODES)
    return float(np.sum(half * _GL_WEIGHTS * abs_order_stat_pdf(cfg, h, k, x)))


def savings_bounds_by_quadrature(cfg: ModelConfig) -> tuple[float, float]:
    """(lb_saved, ub_saved) of the population bounds, one quadrature per term."""
    n, lam = cfg.n_sensors, cfg.threshold
    mom = population_moments(cfg)
    lb = ub = 0.0
    for h, prior in ((Hypothesis.H0, cfg.prior_h0), (Hypothesis.H1, cfg.prior_h1)):
        for k in range(1, n):
            rad = _envelope_radius(n, k, n / (n - 1) * mom.var(h))
            g_u, g_l = k * mom.mean(h) + rad, k * mom.mean(h) - rad

            def cdf(w):
                return order_stat_cdf_by_quadrature(cfg, h, k, w / (n - k))

            ub += prior * max(cdf(g_u - lam), cdf(lam - g_l))
            lb += prior * (cdf(g_l - lam) + cdf(lam - g_u))
    return lb, ub


class TestAnalyticErrorProbs:
    def test_single_honest_sensor(self):
        # Scalar Gaussian tails: p_d = Q(-1), p_f = Q(1) for s=2, sigma^2=1.
        cfg = ModelConfig(n_sensors=1, signal=2.0, noise_var=1.0)
        probs = analytic_error_probs(cfg)
        assert probs.p_d == pytest.approx(0.841345, abs=1e-6)
        assert probs.p_f == pytest.approx(0.158655, abs=1e-6)
        assert probs.p_e == pytest.approx(0.158655, abs=1e-6)

    def test_recomposition_invariant(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            probs = analytic_error_probs(cfg)
            assert 0.0 <= probs.p_miss <= 1.0
            assert 0.0 <= probs.p_f <= 1.0
            assert probs.p_d + probs.p_miss == pytest.approx(1.0, rel=1e-12, abs=0.0)
            expected = cfg.prior_h1 * probs.p_miss + cfg.prior_h0 * probs.p_f
            assert probs.p_e == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [30, 100, 300])
    @pytest.mark.parametrize("alpha0", [0.3, 0.5])
    def test_relative_error_against_exact_weights(self, n, alpha0):
        # p_e falls to about 4e-149 (N = 300, alpha0 = 0.3, D = 0), far below
        # where 1 - p_d could resolve a miss probability.
        for d in range(5):
            cfg = ModelConfig(
                n_sensors=n, signal=3.0, noise_var=1.0, byz_frac=alpha0, attack_strength=d
            )
            pe = analytic_error_probs(cfg).p_e
            assert pe == pytest.approx(exact_error_prob(cfg), rel=1e-11, abs=0.0), d

    @pytest.mark.parametrize("d", [8, 10, 12])
    def test_tiny_detection_probability_against_exact_weights(self, d):
        # Past the blinding strength p_d falls to about 4e-15 (D = 12), where
        # 1 - p_miss keeps only its leading digit.
        cfg = ModelConfig(
            n_sensors=100, signal=3.0, noise_var=1.0, byz_frac=0.5, attack_strength=d
        )
        p_d = analytic_error_probs(cfg).p_d
        assert p_d == pytest.approx(exact_tails(cfg)[0], rel=1e-11, abs=0.0)

    def test_matches_power_set_enumeration(self, rng):
        cfg = ModelConfig(
            n_sensors=4, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=6.0
        )
        p_d, p_f = power_set_error_probs(cfg)
        probs = analytic_error_probs(cfg)
        assert probs.p_d == pytest.approx(p_d, abs=1e-12)
        assert probs.p_f == pytest.approx(p_f, abs=1e-12)
        for _ in range(10):
            cfg = random_config(rng, n_sensors=int(rng.integers(1, 13)))
            p_d, p_f = power_set_error_probs(cfg)
            probs = analytic_error_probs(cfg)
            assert probs.p_d == pytest.approx(p_d, abs=1e-12)
            assert probs.p_f == pytest.approx(p_f, abs=1e-12)

    def test_blinding_mirror_symmetry(self):
        # At D = s/(2 alpha0) with equal priors the H0 sum density is the
        # mirror image of the H1 density, so p_d + p_f = 1.
        cfg = ModelConfig(
            n_sensors=6, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=5.0
        )
        zs = np.linspace(-40, 40, 401)
        np.testing.assert_allclose(
            global_sum_pdf(cfg, Hypothesis.H1, zs),
            global_sum_pdf(cfg, Hypothesis.H0, -zs),
            atol=1e-14,
        )
        probs = analytic_error_probs(cfg)
        assert probs.p_d + probs.p_f == pytest.approx(1.0, abs=1e-12)
        # Quadrature oracle for p_d: mass of the H1 sum density above lam.
        p_d_oracle, _ = quad(
            lambda z: global_sum_pdf(cfg, Hypothesis.H1, z), cfg.threshold, 200.0, limit=300
        )
        assert probs.p_d == pytest.approx(p_d_oracle, abs=1e-9)

    def test_large_n_linear_cost(self):
        cfg = ModelConfig(
            n_sensors=100_000, signal=0.5, noise_var=1.0, byz_frac=0.2, attack_strength=1.0
        )
        probs = analytic_error_probs(cfg)
        assert 0.0 <= probs.p_e <= 1.0

    def test_unequal_priors_shift_threshold(self):
        cfg = ModelConfig(n_sensors=1, signal=2.0, prior_h1=0.2)
        probs = analytic_error_probs(cfg)
        lam = math.log(0.8 / 0.2)
        assert probs.threshold == pytest.approx(lam)
        assert probs.p_d == pytest.approx(q_function((lam - 2.0) / 2.0), abs=1e-12)


class TestExpectedTransmissions:
    def test_single_sensor_is_deterministic(self):
        cfg = ModelConfig(n_sensors=1, signal=2.0)
        est = expected_transmissions(cfg, 2000, seed=4)
        assert est.value == 1.0
        assert est.se == 0.0

    def test_sample_floor_enforced(self):
        cfg = ModelConfig(n_sensors=3, signal=2.0)
        with pytest.raises(ValueError):
            expected_transmissions(cfg, 999, seed=1)

    def test_matches_protocol_simulation(self):
        # Independent oracle: mean stop time over simulated trials.
        cfg = ModelConfig(
            n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=6.0
        )
        est = expected_transmissions(cfg, 30_000, seed=11)
        batch = run_batch(cfg, 30_000, seed=3)
        combined = math.hypot(est.se, batch.mean_stop_k.se)
        assert est.value == pytest.approx(batch.mean_stop_k.value, abs=3 * combined)

    def test_transmissions_plus_saved_is_n(self):
        cfg = ModelConfig(
            n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=2.0
        )
        est = expected_transmissions(cfg, 20_000, seed=2)
        batch = run_batch(cfg, 20_000, seed=8)
        combined = math.hypot(est.se, batch.mean_saved.se)
        assert est.value + batch.mean_saved.value == pytest.approx(
            cfg.n_sensors, abs=3 * combined
        )

    def test_deterministic_given_seed(self):
        cfg = ModelConfig(n_sensors=5, signal=2.0, byz_frac=0.4, attack_strength=1.0)
        a = expected_transmissions(cfg, 2000, seed=6)
        b = expected_transmissions(cfg, 2000, seed=6)
        assert a == b

    @pytest.mark.parametrize(
        "n, n_samples, alpha0, prior_h1",
        [
            (n, 1000, alpha0, prior_h1)
            for n in (1, 2, 10, 50)
            for alpha0 in (0.0, 0.3, 1.0)
            for prior_h1 in (0.3, 0.5)
        ]
        + [(10, 4000, 0.3, 0.3)],  # three blocks of rows, the last one partial
    )
    def test_replays_documented_streams(self, n, n_samples, alpha0, prior_h1):
        # Hypothesis h reads RngSpec(seed, 2^63 + 1 + h) in blocks of rows, a
        # block's uniforms before its normals; each row, put in transmission
        # order by hand, goes through the public stopping rule.
        cfg = ModelConfig(
            n_sensors=n, signal=3.0, byz_frac=alpha0, attack_strength=4.0, prior_h1=prior_h1
        )
        seed = n + 7
        est = expected_transmissions(cfg, n_samples, seed=seed)
        rows = max(1, 16384 // n)
        means, variances = [], []
        for h in (Hypothesis.H0, Hypothesis.H1):
            gen = RngSpec(seed, 2**63 + 1 + h).generator()
            stops = []
            for start in range(0, n_samples, rows):
                m = min(rows, n_samples - start)
                byz = gen.random((m, n)) < alpha0
                noise = gen.standard_normal((m, n))
                for r in range(m):
                    y = noise[r] + (3.0 if h else 0.0)
                    y = np.where(byz[r], y + (-4.0 if h else 4.0), y)
                    llrs = (2.0 * y * 3.0 - 3.0 * 3.0) / 2.0
                    ordered = llrs[np.argsort(-np.abs(llrs), kind="stable")]
                    stops.append(stopping_rule(ordered, cfg.threshold)[0])
            stops = np.array(stops)
            means.append(stops.mean())
            variances.append(stops.var(ddof=1))
        priors = np.array([cfg.prior_h0, cfg.prior_h1])
        assert est.value == pytest.approx(priors @ means, abs=1e-12)
        want_se = math.sqrt(priors**2 @ np.array(variances) / n_samples)
        assert est.se == pytest.approx(want_se, rel=1e-9, abs=1e-15)


class TestAbsOrderStatPdf:
    CFG = ModelConfig(n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=6.0)

    def test_single_draw_equals_folded_density(self):
        cfg = ModelConfig(n_sensors=1, signal=2.0, byz_frac=0.3, attack_strength=4.0)
        mix = llr_mixture(cfg, Hypothesis.H1)
        xs = np.linspace(0.0, 12.0, 60)
        np.testing.assert_allclose(
            abs_order_stat_pdf(cfg, Hypothesis.H1, 1, xs), abs_llr_pdf(mix, xs), rtol=1e-12
        )

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            abs_order_stat_pdf(self.CFG, Hypothesis.H1, 0, 1.0)
        with pytest.raises(ValueError):
            abs_order_stat_pdf(self.CFG, Hypothesis.H1, 11, 1.0)
        with pytest.raises(ValueError):
            abs_order_stat_pdf(self.CFG, Hypothesis.H1, 3, -1.0)

    def test_normalization(self):
        mix = llr_mixture(self.CFG, Hypothesis.H1)
        hi = max(abs(mix.mean_honest), abs(mix.mean_byz)) + 12 * mix.std
        total, _ = quad(
            lambda x: abs_order_stat_pdf(self.CFG, Hypothesis.H1, 3, x), 0.0, hi, limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_sampled_histogram(self):
        # Sampling oracle: 10^6 draws of the 3rd-largest magnitude of 10.
        cfg = self.CFG
        mix = llr_mixture(cfg, Hypothesis.H1)
        gen = np.random.default_rng(3)
        m = 1_000_000
        mags = np.abs(mix.sample(gen, m * 10).reshape(m, 10))
        third_largest = np.partition(mags, 10 - 3, axis=1)[:, 10 - 3]
        hi = float(third_largest.max()) * 1.02
        counts, edges = np.histogram(third_largest, bins=120, range=(0.0, hi))
        mids = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        model_mass = abs_order_stat_pdf(cfg, Hypothesis.H1, 3, mids) * width
        iae = np.abs(counts / m - model_mass).sum()
        assert iae < 0.02

    def test_cdf_matches_quadrature_of_density(self):
        # The program uses the binomial tail identity; the oracle integrates the density.
        for k in (1, 3, 10):
            for w in (0.5, 4.0, 9.0, 15.0):
                cdf = abs_order_stat_cdf(self.CFG, Hypothesis.H0, k, w)
                oracle = order_stat_cdf_by_quadrature(self.CFG, Hypothesis.H0, k, w)
                assert cdf == pytest.approx(oracle, abs=1e-12)
        big = self.CFG.replace(n_sensors=300, attack_strength=4.0)
        for k in (1, 30, 150, 299, 300):
            for w in (0.05, 1.0, 5.0, 9.0, 20.0):
                cdf = abs_order_stat_cdf(big, Hypothesis.H1, k, w)
                oracle = order_stat_cdf_by_quadrature(big, Hypothesis.H1, k, w)
                assert cdf == pytest.approx(oracle, abs=1e-11)

    def test_stochastic_ordering_in_k(self):
        # The k-th largest magnitude dominates the (k+1)-th.
        cfg = self.CFG
        xs = np.linspace(0.1, 20.0, 12)
        for k in (1, 4, 7):
            for x in xs:
                cdf_k = abs_order_stat_cdf(cfg, Hypothesis.H1, k, float(x))
                cdf_k1 = abs_order_stat_cdf(cfg, Hypothesis.H1, k + 1, float(x))
                assert cdf_k <= cdf_k1 + 1e-9


class TestSavingsBounds:
    def test_envelope_weight_sum_closed_form(self):
        # Explicit selector-vector oracle for k ones among N.
        n, k = 10, 3
        c = np.array([1.0] * k + [0.0] * (n - k))
        explicit = float(np.sum((c - c.mean()) ** 2))
        assert explicit == pytest.approx(2.1)
        v = 1.7
        assert _envelope_radius(n, k, v) == pytest.approx(math.sqrt(explicit * (n - 1) * v))

    def test_nonpositive_limit_contributes_zero(self):
        cfg = ModelConfig(n_sensors=5, signal=2.0, byz_frac=0.2, attack_strength=1.0)
        mix = llr_mixture(cfg, Hypothesis.H1)
        cdf = _order_stat_cdf(mix, 5, np.array([2, 2, 5, 1]), np.array([0.0, -3.0, -1e-300, 2.0]))
        np.testing.assert_array_equal(cdf[:3], 0.0)
        assert 0.0 < cdf[3] < 1.0

    def test_population_bounds_match_quadrature_sum(self):
        for d in (3.0, 8.0):
            cfg = ModelConfig(
                n_sensors=300, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=d
            )
            rep = transmission_savings_bounds(cfg)
            lb, ub = savings_bounds_by_quadrature(cfg)
            assert rep.lb_saved == pytest.approx(lb, abs=1e-9)
            assert rep.ub_saved == pytest.approx(ub, abs=1e-9)

    def test_lb_below_ub_random_configs(self, rng):
        for _ in range(6):
            cfg = random_config(rng, n_sensors=int(rng.integers(2, 25)))
            rep = transmission_savings_bounds(cfg)
            assert rep.lb_saved <= rep.ub_saved + 1e-12
            assert 0.0 <= rep.lb_saved <= cfg.n_sensors - 1 + 1e-12
            assert 0.0 <= rep.ub_saved <= cfg.n_sensors - 1 + 1e-12

    def test_sandwich_against_simulation(self):
        for d in (0.0, 3.0, 5.0, 8.0):
            cfg = ModelConfig(
                n_sensors=50, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=d
            )
            rep = transmission_savings_bounds(cfg)
            batch = run_batch(cfg, 4000, seed=33)
            ns, se = batch.mean_saved.value, batch.mean_saved.se
            assert rep.lb_saved - 3 * se <= ns <= rep.ub_saved + 3 * se

    def test_two_sensor_edge(self):
        rep = transmission_savings_bounds(ModelConfig(n_sensors=2, signal=4.0))
        assert 0.0 <= rep.lb_saved <= rep.ub_saved <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            transmission_savings_bounds(ModelConfig(n_sensors=1, signal=1.0))
