"""Deflection coefficient of the global statistic and optimal attacks."""

import numpy as np
import pytest

from otdetect import (
    Hypothesis,
    ModelConfig,
    deflection_coefficient,
    llr_mixture,
    optimal_attack_strength,
    optimal_byz_fraction,
)
from conftest import random_config


class TestDeflectionCoefficient:
    def test_no_attack_closed_form(self):
        cfg = ModelConfig(n_sensors=10, signal=1.0, noise_var=1.0)
        a = deflection_coefficient(cfg)
        assert a.mean_z_h1 - a.mean_z_h0 == pytest.approx(10.0)
        assert a.var_z_h0 == pytest.approx(10.0)
        assert a.dc == pytest.approx(10.0)

    def test_blinding_strength_zeroes_dc(self):
        cfg = ModelConfig(
            n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=5.0
        )
        assert deflection_coefficient(cfg).dc == pytest.approx(0.0, abs=1e-12)

    def test_fields_recompose(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            a = deflection_coefficient(cfg)
            assert a.dc == pytest.approx((a.mean_z_h1 - a.mean_z_h0) ** 2 / a.var_z_h0)
            assert a.dc >= 0.0

    def test_matches_simulated_global_statistic(self):
        # Oracle: moments of 10^6 simulated sums of N i.i.d. LLR draws.
        cfg = ModelConfig(
            n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=4.0
        )
        a = deflection_coefficient(cfg)
        gen = np.random.default_rng(12)
        m = 1_000_000
        z_h1 = llr_mixture(cfg, Hypothesis.H1).sample(gen, m * 10).reshape(m, 10).sum(axis=1)
        z_h0 = llr_mixture(cfg, Hypothesis.H0).sample(gen, m * 10).reshape(m, 10).sum(axis=1)
        m1, m0 = z_h1.mean(), z_h0.mean()
        v0 = z_h0.var(ddof=1)
        dc_hat = (m1 - m0) ** 2 / v0
        # Delta-method SE from the three estimated moments.
        sd1 = z_h1.std(ddof=1) / np.sqrt(m)
        sd0 = z_h0.std(ddof=1) / np.sqrt(m)
        centered = z_h0 - m0
        se_v0 = np.sqrt(max(np.mean(centered**4) - v0**2, 0.0) / m)
        grad_mean = 2 * abs(m1 - m0) / v0
        se_dc = np.sqrt((grad_mean * sd1) ** 2 + (grad_mean * sd0) ** 2 + (dc_hat / v0 * se_v0) ** 2)
        assert a.dc == pytest.approx(dc_hat, abs=4 * se_dc)

    def test_n_scaled_overflow_raises_value_error(self):
        # Per-sensor moments are finite (ModelConfig accepts the config), but
        # N times the mean separation, squared, is not.
        cfg = ModelConfig(n_sensors=1000, signal=3.0, byz_frac=0.3, attack_strength=1e150)
        assert np.isfinite(deflection_coefficient(cfg).dc)
        with pytest.raises(ValueError, match="N-scaled"):
            deflection_coefficient(cfg.replace(n_sensors=1_000_000))

    def test_dc_zero_at_d_star_random_configs(self, rng):
        for _ in range(20):
            cfg = random_config(rng, byz_frac=float(rng.uniform(0.05, 1.0)))
            cfg = cfg.replace(attack_strength=optimal_attack_strength(cfg))
            assert abs(deflection_coefficient(cfg).dc) <= 1e-10

    def test_strictly_decreasing_up_to_blinding(self, rng):
        for _ in range(5):
            cfg = random_config(rng, byz_frac=float(rng.uniform(0.05, 0.95)))
            d_star = optimal_attack_strength(cfg)
            ds = np.linspace(0.0, d_star, 1000)
            dcs = [deflection_coefficient(cfg.replace(attack_strength=float(d))).dc for d in ds]
            assert np.all(np.diff(dcs) < 0)

    def test_argmin_on_grid_near_d_star(self):
        cfg = ModelConfig(n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3)
        step = 0.25
        grid = np.arange(0.0, 12.0 + step, step)
        dcs = [deflection_coefficient(cfg.replace(attack_strength=float(d))).dc for d in grid]
        d_min = grid[int(np.argmin(dcs))]
        assert abs(d_min - 5.0) <= step + 1e-12


class TestOptimalAttackStrength:
    def test_values(self):
        assert optimal_attack_strength(
            ModelConfig(n_sensors=3, signal=3.0, byz_frac=0.3)
        ) == pytest.approx(5.0)
        assert optimal_attack_strength(
            ModelConfig(n_sensors=3, signal=3.0, byz_frac=0.5)
        ) == pytest.approx(3.0)

    def test_no_byzantines_rejected(self):
        with pytest.raises(ValueError, match="cannot be blinded"):
            optimal_attack_strength(ModelConfig(n_sensors=3, signal=3.0, byz_frac=0.0))


class TestOptimalByzFraction:
    def test_attainable(self):
        cfg = ModelConfig(n_sensors=3, signal=3.0)
        frac = optimal_byz_fraction(cfg, 5.0)
        assert frac.fraction == pytest.approx(0.3)
        assert frac.attainable
        blinded = cfg.replace(byz_frac=frac.fraction, attack_strength=5.0)
        assert deflection_coefficient(blinded).dc == pytest.approx(0.0, abs=1e-12)

    def test_unattainable_capped(self):
        frac = optimal_byz_fraction(ModelConfig(n_sensors=3, signal=3.0), 1.0)
        assert frac == (1.0, False)

    def test_exact_boundary(self):
        frac = optimal_byz_fraction(ModelConfig(n_sensors=3, signal=2.0), 1.0)
        assert frac == (1.0, True)

    def test_nonpositive_d_rejected(self):
        cfg = ModelConfig(n_sensors=3, signal=2.0)
        for d in (0.0, -1.0):
            with pytest.raises(ValueError):
                optimal_byz_fraction(cfg, d)
