"""Protocol engine: ordering, early stopping, bounds bracket, batches."""

import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest

from otdetect import (
    Hypothesis,
    ModelConfig,
    RngSpec,
    draw_trial,
    expected_transmissions,
    expected_transmissions_each,
    partial_sum_bounds,
    population_moments,
    run_batch,
    run_batches,
    stopping_rule,
)
from otdetect import protocol
from otdetect.protocol import (
    _magnitude_order,
    _simulate,
    _StreamSampler,
    _stop_scan,
    _workspace,
)
from conftest import random_config


class TestStoppingRule:
    def test_worked_example(self):
        # k=2: sum 9, one silent sensor, 9 - 1*4 = 5 > 0 -> H1.
        assert stopping_rule([5.0, 4.0, 1.0], 0.0) == (2, Hypothesis.H1)

    def test_single_sensor(self):
        assert stopping_rule([5.0], 0.0) == (1, Hypothesis.H1)
        assert stopping_rule([-5.0], 0.0) == (1, Hypothesis.H0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            stopping_rule([1.0, 4.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            stopping_rule([], 0.0)

    def test_exact_tie_uses_all_and_decides_h0(self):
        # Full sum equals the threshold: neither strict inequality ever fires.
        assert stopping_rule([2.0, -2.0], 0.0) == (2, Hypothesis.H0)

    def test_always_matches_full_sum_decision(self, rng):
        # Brute-force oracle: the decision the complete sum would produce.
        for _ in range(20_000):
            n = int(rng.integers(1, 12))
            vals = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            ordered = vals[np.argsort(-np.abs(vals), kind="stable")]
            lam = float(rng.uniform(-1.5, 1.5))
            stop_k, decision = stopping_rule(ordered, lam)
            full = ordered.sum()
            expected = Hypothesis.H1 if full > lam else Hypothesis.H0
            assert decision is expected
            assert 1 <= stop_k <= n

    def test_stop_k_is_minimal(self, rng):
        for _ in range(2000):
            n = int(rng.integers(2, 10))
            vals = rng.standard_normal(n) * 2.0
            ordered = vals[np.argsort(-np.abs(vals), kind="stable")]
            lam = float(rng.uniform(-1.0, 1.0))
            stop_k, _ = stopping_rule(ordered, lam)
            for j in range(1, stop_k):
                assert partial_sum_bounds(ordered[:j], n, lam).can_stop == "continue"


class TestPartialSumBounds:
    def test_single_term(self):
        b = partial_sum_bounds([5.0], 3, 0.0)
        assert (b.z_lower, b.z_upper, b.can_stop) == (-5.0, 15.0, "continue")

    def test_decides_h0(self):
        b = partial_sum_bounds([-6.0, -5.0], 3, 0.0)
        assert b.z_upper == -6.0
        assert b.can_stop == "decide_H0"

    def test_decides_h1(self):
        b = partial_sum_bounds([6.0, 5.0], 3, 0.0)
        assert b.z_lower == 6.0
        assert b.can_stop == "decide_H1"

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            partial_sum_bounds([], 3, 0.0)
        with pytest.raises(ValueError):
            partial_sum_bounds([1.0, 0.5], 1, 0.0)

    def test_brackets_every_consistent_completion(self, rng):
        # Sandwich oracle: realized full sums stay inside the bracket at
        # every prefix of the ordered sequence.
        for _ in range(20_000):
            n = int(rng.integers(2, 10))
            vals = rng.standard_normal(n) * rng.uniform(0.5, 4.0)
            ordered = vals[np.argsort(-np.abs(vals), kind="stable")]
            full = ordered.sum()
            for k in range(1, n + 1):
                b = partial_sum_bounds(ordered[:k], n, 0.0)
                assert b.z_lower <= full + 1e-12
                assert full - 1e-12 <= b.z_upper


@pytest.mark.parametrize(
    "llrs, lam",
    [
        ([math.nan, 1.0], 0.0),
        ([1.0, math.nan], 0.0),
        ([math.inf, 1.0], 0.0),
        ([-math.inf, 1.0], 0.0),
        ([1.0, 0.5], math.nan),
    ],
    ids=["nan-first", "nan-last", "+inf", "-inf", "lam-nan"],
)
def test_non_finite_input_rejected(llrs, lam):
    # NaN compares false against everything, so it would pass the ordering
    # check and never fire; an infinite LLR makes the bracket inf - inf.
    with pytest.raises(ValueError, match="finite"):
        stopping_rule(llrs, lam)
    with pytest.raises(ValueError, match="finite"):
        partial_sum_bounds(llrs, 3, lam)


class TestDrawTrial:
    def test_no_byzantines(self):
        cfg = ModelConfig(n_sensors=50, signal=2.0, byz_frac=0.0, attack_strength=9.0)
        rec = draw_trial(cfg, Hypothesis.H1, RngSpec(1, 0))
        assert not rec.byz_mask.any()
        assert rec.stop_k >= 1
        mags = np.abs(rec.llrs_ordered)
        assert np.all(np.diff(mags) <= 0)

    def test_zero_strength_attack_is_honest(self):
        base = dict(n_sensors=40, signal=2.0, noise_var=1.0)
        honest = ModelConfig(byz_frac=0.0, **base)
        attacked = ModelConfig(byz_frac=1.0, attack_strength=0.0, **base)
        r1 = draw_trial(honest, Hypothesis.H0, RngSpec(3, 5))
        r2 = draw_trial(attacked, Hypothesis.H0, RngSpec(3, 5))
        np.testing.assert_allclose(r1.llrs_ordered, r2.llrs_ordered)
        assert r2.byz_mask.all()

    def test_reproducible_bit_for_bit(self):
        cfg = ModelConfig(n_sensors=20, signal=3.0, byz_frac=0.3, attack_strength=6.0)
        a = draw_trial(cfg, Hypothesis.H1, RngSpec(seed=99, stream=12))
        b = draw_trial(cfg, Hypothesis.H1, RngSpec(seed=99, stream=12))
        assert np.array_equal(a.llrs_ordered, b.llrs_ordered)
        assert np.array_equal(a.byz_mask, b.byz_mask)
        assert (a.stop_k, a.decision, a.full_sum) == (b.stop_k, b.decision, b.full_sum)
        c = draw_trial(cfg, Hypothesis.H1, RngSpec(seed=99, stream=13))
        assert not np.array_equal(a.llrs_ordered, c.llrs_ordered)

    def test_llr_mean_matches_population_moments(self):
        # Oracle: population moments; 2*10^5 sensor draws under H1.
        cfg = ModelConfig(
            n_sensors=20, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=6.0
        )
        mom = population_moments(cfg)
        vals = []
        for i in range(10_000):
            vals.append(draw_trial(cfg, Hypothesis.H1, RngSpec(5, i)).llrs_ordered)
        llrs = np.concatenate(vals)
        se = llrs.std(ddof=1) / np.sqrt(llrs.size)
        assert llrs.mean() == pytest.approx(mom.mean_h1, abs=4 * se)

    def test_byz_mask_rate(self):
        cfg = ModelConfig(n_sensors=100, signal=1.0, byz_frac=0.3, attack_strength=1.0)
        hits = sum(
            draw_trial(cfg, Hypothesis.H0, RngSpec(8, i)).byz_mask.sum() for i in range(2000)
        )
        n = 2000 * 100
        se = np.sqrt(0.3 * 0.7 / n)
        assert hits / n == pytest.approx(0.3, abs=4 * se)


class TestTrialInvariants:
    """Structural guarantees checked on every simulated trial."""

    def _trials(self, rng, n_trials=300):
        for _ in range(n_trials):
            cfg = random_config(rng)
            truth = Hypothesis(int(rng.integers(0, 2)))
            yield cfg, draw_trial(cfg, truth, RngSpec(17, int(rng.integers(0, 2**32))))

    def test_early_decision_equals_full_sum_decision(self, rng):
        for cfg, rec in self._trials(rng):
            expected = Hypothesis.H1 if rec.full_sum > cfg.threshold else Hypothesis.H0
            assert rec.decision is expected

    def test_continue_region_is_monotone(self, rng):
        # Once a prefix cannot decide, no shorter prefix can either.
        for cfg, rec in self._trials(rng, 200):
            n = cfg.n_sensors
            states = [
                partial_sum_bounds(rec.llrs_ordered[:k], n, cfg.threshold).can_stop
                for k in range(1, n + 1)
            ]
            first_stop = next((i for i, s in enumerate(states) if s != "continue"), None)
            if first_stop is not None:
                assert all(s == "continue" for s in states[:first_stop])
                assert first_stop + 1 == rec.stop_k
            else:
                assert rec.stop_k == n

    def test_stop_k_minimality(self, rng):
        for cfg, rec in self._trials(rng, 200):
            if rec.stop_k > 1:
                prev = partial_sum_bounds(
                    rec.llrs_ordered[: rec.stop_k - 1], cfg.n_sensors, cfg.threshold
                )
                assert prev.can_stop == "continue"


class TestRunBatch:
    def test_zero_trials_rejected(self):
        cfg = ModelConfig(n_sensors=3, signal=1.0)
        with pytest.raises(ValueError):
            run_batch(cfg, 0, seed=1)

    def test_deterministic(self):
        cfg = ModelConfig(n_sensors=10, signal=3.0, byz_frac=0.3, attack_strength=6.0)
        a = run_batch(cfg, 3000, seed=42)
        b = run_batch(cfg, 3000, seed=42)
        assert a == b
        c = run_batch(cfg, 3000, seed=43)
        assert c.pe != a.pe or c.mean_stop_k != a.mean_stop_k

    def test_matches_per_trial_draws(self):
        # The block path must replay exactly the draw_trial streams: one
        # block, several full blocks plus a partial one, and a single trial.
        cases = [
            (ModelConfig(n_sensors=8, signal=2.0, byz_frac=0.5, attack_strength=1.0), 500, 11),
            (ModelConfig(n_sensors=1000, signal=0.3, byz_frac=0.3, attack_strength=0.5), 50, 3),
            (ModelConfig(n_sensors=10, signal=3.0, byz_frac=0.3, attack_strength=6.0), 5000, 7),
            (ModelConfig(n_sensors=5, signal=1.0, prior_h1=0.3), 1, 4),
        ]
        for cfg, n_trials, seed in cases:
            batch = run_batch(cfg, n_trials, seed=seed)
            truth_gen = np.random.Generator(np.random.Philox(key=seed, counter=1 << 255))
            truths = truth_gen.random(n_trials) < cfg.prior_h1
            recs = [
                draw_trial(cfg, Hypothesis(int(truths[i])), RngSpec(seed, i))
                for i in range(n_trials)
            ]
            errors = sum(rec.decision is not rec.truth for rec in recs)
            assert batch.mean_stop_k.value == sum(rec.stop_k for rec in recs) / n_trials
            assert batch.pe.value == errors / n_trials
            assert batch.n_h1 == int(truths.sum())

    def test_saved_plus_stop_is_n(self):
        cfg = ModelConfig(n_sensors=25, signal=2.0)
        b = run_batch(cfg, 1000, seed=5)
        assert b.mean_saved.value == pytest.approx(25 - b.mean_stop_k.value)
        assert b.mean_saved.se == b.mean_stop_k.se

    def test_strong_signal_saves_over_half(self):
        # With no attack and s = 4*sigma, most trials stop in the first half.
        cfg = ModelConfig(n_sensors=100, signal=4.0, noise_var=1.0)
        b = run_batch(cfg, 10_000, seed=2)
        assert b.mean_saved.value / 100 >= 0.5

    def test_forced_truth_strong_signal_never_errs(self):
        # Strong-signal regime: per-sensor LLR signs almost surely match the
        # truth, so the decision is almost surely correct.
        cfg = ModelConfig(n_sensors=20, signal=6.0, noise_var=1.0)
        errors = sum(
            draw_trial(cfg, Hypothesis.H1, RngSpec(31, i)).decision is not Hypothesis.H1
            for i in range(5000)
        )
        assert errors == 0

    def test_early_stop_fraction_in_strong_signal_regime(self):
        cfg = ModelConfig(n_sensors=40, signal=4.0, noise_var=1.0)
        half = 0
        trials = 4000
        for i in range(trials):
            rec = draw_trial(cfg, Hypothesis.H0, RngSpec(13, i))
            half += rec.stop_k <= (cfg.n_sensors + 1) // 2
        assert half / trials > 0.5


SHARED_BASE = dict(n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=0.0)
# (overrides of SHARED_BASE,
#  run_batch(cfg, 300, seed=5) as (n_h1, pe, pe SE, mean stop_k, its SE),
#  expected_transmissions(cfg, 1000, seed=5) as (value, SE)),
# recorded from the one-config-per-call estimators before they shared draws.
SHARED_PINNED = [
    ({}, (145, 0.0, 0.0, 4.883333333333334, 0.020286868708398735),
     (4.882, 0.007719656280761052)),
    ({"attack_strength": 2.0}, (145, 0.02, 0.00808290376865476, 5.463333333333333,
                                0.05827286242949211), (5.4835, 0.02617341777066566)),
    ({"attack_strength": 5.0}, (145, 0.4533333333333333, 0.028741504380843986,
                                7.043333333333333, 0.09085477077171387),
     (7.083500000000001, 0.03572042411140577)),
    ({"byz_frac": 0.0}, (145, 0.0, 0.0, 4.883333333333334, 0.020286868708398735),
     (4.882, 0.007719656280761052)),
    ({"byz_frac": 0.5, "attack_strength": 4.0}, (145, 0.76, 0.024657656011875907,
                                                 6.973333333333334, 0.09407098215779558),
     (6.9535, 0.036175978928723554)),
    ({"signal": 1.5, "attack_strength": 2.0}, (145, 0.35, 0.02753785273643051,
                                               6.963333333333333, 0.08761656778587033),
     (6.800000000000001, 0.0350891828167991)),
    ({"n_sensors": 20, "attack_strength": 2.0}, (145, 0.0033333333333333335,
                                                 0.003327773140415986, 10.003333333333334,
                                                 0.08048048758212577),
     (9.993500000000001, 0.03507062444124283)),
    ({"prior_h1": 0.3, "attack_strength": 2.0}, (81, 0.016666666666666666,
                                                 0.007391185942027817, 5.38,
                                                 0.05789699845694337),
     (5.4478, 0.02789127144866334)),
    ({"n_sensors": 20, "prior_h1": 0.3}, (81, 0.0, 0.0, 8.923333333333334,
                                          0.028961333286216594),
     (8.943, 0.012367268466776634)),
]


def shared_cases():
    """The pinned cases plus a repeated one, in a fixed shuffled order."""
    cases = SHARED_PINNED + SHARED_PINNED[1:2]
    random.Random(0).shuffle(cases)
    return [(ModelConfig(**{**SHARED_BASE, **over}), b, e) for over, b, e in cases]


def batch_fields(b):
    return b.n_h1, b.pe.value, b.pe.se, b.mean_stop_k.value, b.mean_stop_k.se


class TestSharedDraws:
    # One call over a mixed grid (D, alpha0, s, a second N, a second prior)
    # must return exactly what one call per config returned.
    def test_run_batches_pinned(self):
        cases = shared_cases()
        batches = run_batches([cfg for cfg, _, _ in cases], 300, seed=5)
        assert len(batches) == len(cases)
        for (cfg, want, _), batch in zip(cases, batches):
            assert batch.config == cfg
            assert batch_fields(batch) == want
            assert batch.mean_saved.value == cfg.n_sensors - want[3]
            assert batch == run_batch(cfg, 300, seed=5)

    def test_expected_transmissions_each_pinned(self):
        cases = shared_cases()
        estimates = expected_transmissions_each([cfg for cfg, _, _ in cases], 1000, seed=5)
        assert len(estimates) == len(cases)
        for (cfg, _, want), est in zip(cases, estimates):
            assert (est.value, est.se, est.n_samples) == (*want, 1000)
            assert est == expected_transmissions(cfg, 1000, seed=5)

    def test_single_trial(self):
        cfgs = [ModelConfig(**{**SHARED_BASE, "attack_strength": d}) for d in (0.0, 2.0, 5.0)]
        got = [batch_fields(b) for b in run_batches(cfgs, 1, seed=5)]
        assert got == [(1, 0.0, 0.0, 4.0, 0.0), (1, 0.0, 0.0, 6.0, 0.0), (1, 0.0, 0.0, 10.0, 0.0)]

    def test_empty_config_list(self):
        assert run_batches([], 100, seed=5) == []
        assert expected_transmissions_each([], 1000, seed=5) == []

    def test_budgets_checked_for_empty_list(self):
        with pytest.raises(ValueError, match="n_trials"):
            run_batches([], 0, seed=5)
        with pytest.raises(ValueError, match="n_samples"):
            expected_transmissions_each([], 999, seed=5)


# (signal, noise_var, byz_frac, attack_strength): D steps on one LLR base, then
# a change of s, of sigma^2 and of alpha0 (0, then 1) between D steps, then
# the first base again, after other bases have overwritten the workspace.
BASE_SWITCHES = [
    (3.0, 1.0, 0.3, 0.0), (3.0, 1.0, 0.3, 2.5), (3.0, 1.0, 0.3, 6.0),
    (1.5, 1.0, 0.3, 2.5),
    (1.5, 2.0, 0.3, 2.5), (1.5, 2.0, 0.3, 4.0),
    (1.5, 2.0, 0.0, 3.0),
    (1.5, 2.0, 1.0, 1.0), (1.5, 2.0, 1.0, 5.0),
    (3.0, 1.0, 0.3, 2.5),
]


@pytest.mark.parametrize("n", [1, 10, 300])
def test_shared_base_matches_per_trial_replay(monkeypatch, n):
    # Blocks of 8 rows, so 21 trials end on a partial block of 5.
    monkeypatch.setattr(protocol, "_BLOCK_ELEMENTS", 8 * n)
    configs = [
        ModelConfig(n_sensors=n, signal=s, noise_var=v, byz_frac=a, attack_strength=d)
        for s, v, a, d in BASE_SWITCHES
    ]
    n_trials, seed = 21, 9
    truth_gen = np.random.Generator(np.random.Philox(key=seed, counter=1 << 255))
    truths = [Hypothesis(int(h)) for h in truth_gen.random(n_trials) < 0.5]
    for cfg, batch in zip(configs, run_batches(configs, n_trials, seed)):
        recs = [draw_trial(cfg, truths[i], RngSpec(seed, i)) for i in range(n_trials)]
        ks = np.array([rec.stop_k for rec in recs], dtype=float)
        mean = ks.sum() / n_trials
        se = np.sqrt(max(ks @ ks - n_trials * mean * mean, 0.0) / (n_trials - 1) / n_trials)
        assert batch.pe.value == sum(rec.decision is not rec.truth for rec in recs) / n_trials
        assert (batch.mean_stop_k.value, batch.mean_stop_k.se) == (mean, se)
    # Blocks of 300 rows, so 1000 samples end on a partial block of 100.
    monkeypatch.setattr(protocol, "_BLOCK_ELEMENTS", 300 * n)
    estimates = expected_transmissions_each(configs, 1000, seed)
    for cfg, est in zip(configs, estimates):
        assert est == expected_transmissions(cfg, 1000, seed)


class TestStopKernel:
    def test_block_rows_match_stopping_rule(self):
        # Rows that random draws cannot produce: tied magnitudes, and full
        # sums exactly on the threshold; plus a row that stops early.
        block = np.array(
            [
                [3.0, -3.0, 3.0, 1.0],
                [2.0, -2.0, 0.5, -0.5],
                [5.0, 4.0, 1.0, 0.5],
                [-2.0, 2.0, -2.0, 2.0],
            ]
        )
        lam = 0.0
        ws = _workspace(*block.shape)
        stop_k, decide_h1, full_sum = _stop_scan(block, np.abs(block), lam, ws)
        expected = [(4, Hypothesis.H1), (4, Hypothesis.H0), (2, Hypothesis.H1), (4, Hypothesis.H0)]
        for r, row in enumerate(block):
            assert stopping_rule(row, lam) == expected[r]
            assert (int(stop_k[r]), Hypothesis(int(decide_h1[r]))) == expected[r]
            assert full_sum[r] == row.sum()

    @pytest.mark.parametrize("lam", [0.0, math.log(0.7 / 0.3)], ids=["0", "ln(7/3)"])
    def test_prefix_side_decision_matches_two_branch_scan(self, rng, lam):
        # The decision is the prefix's side of the threshold at the stop; the
        # two-branch scan took the side that fired, or the full sum where
        # nothing fired.  Same stop, decision and full-sum bits on edge rows.
        third = lam / 3.0
        rows = [
            [lam + 2.0, lam - (lam + 2.0)],  # the full sum ties lam: nothing fires
            [3.0, -3.0, 3.0, 1.0],  # fires only at k = N, toward H1
            [-3.0, 3.0, -3.0, -1.0],  # fires only at k = N, toward H0
            [2.0, -2.0, 0.5, -0.5],
            [0.0, -0.0, 0.0, -0.0],
            [-0.0, 0.0, -0.0, 0.0],
            [1.5, -1.5, 1.5, -1.5],
            [1e150, -1e150, 1.0, -0.5],
            [-1e150, 9.999999999999999e149, -1e150 / 3, 1e149],
            [third, third, third],  # sums to lam up to rounding
        ]
        blocks = [np.array(row)[None, :] for row in rows]
        blocks.append(np.array([[5.0], [-5.0], [0.0], [-0.0], [lam], [1e150]]))  # N = 1
        big = rng.standard_normal((200, 8)) * 1e150
        small = rng.standard_normal((200, 8)) + lam / 8
        blocks += [np.vstack([stable_magnitude_order(r) for r in b]) for b in (big, small)]
        assert np.sum(rows[0]) == lam  # the tie row really ties
        for block in blocks:
            got = _stop_scan(block, np.abs(block), lam, _workspace(*block.shape))
            want = two_branch_stop_scan(block, np.abs(block), lam)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert_same_bits(got[2], want[2])

    def test_block_simulation_orders_ties_by_sensor_index(self, rng):
        # With s = 2 and sigma^2 = 1, L = 2z - 2 under H0 and 2z + 2 under H1,
        # and the attack D = 1 moves a compromised L by 2 toward the wrong
        # hypothesis; so z = (k + 2)/2 gives integer LLRs: many magnitude ties
        # of both signs, in a block mixing tied rows with untied ones and rows
        # of signed zeros, under both hypotheses, with uniforms below, on and
        # above byz_frac.  The order must be Python's stable sort on -|L| of
        # the LLRs formed with a masked add of the attack, bit for bit, and
        # each row's stop must be the stopping rule's on that order.
        n = 40
        ints = rng.integers(-6, 7, size=(6, n)).astype(float)
        zeros = rng.choice([0.0, -0.0], size=(4, n))
        normals = np.vstack([(ints + 2.0) / 2.0, zeros, rng.standard_normal((3, n))])
        cuts = [0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.9]
        uniforms = rng.choice(cuts, size=normals.shape)
        h1 = np.arange(len(normals)) % 2 == 1
        for byz_frac in (0.0, 0.5):
            cfg = ModelConfig(n_sensors=n, signal=2.0, byz_frac=byz_frac, attack_strength=1.0)
            ws = _workspace(*normals.shape)
            ordered, byz, stop_k, decide_h1, _ = _simulate(cfg, h1, uniforms, normals, ws)
            assert np.array_equal(byz, uniforms < byz_frac)
            for r, z in enumerate(normals):
                y = z + (cfg.signal if h1[r] else 0.0)
                np.add(y, -1.0 if h1[r] else 1.0, out=y, where=byz[r])
                llrs = (2.0 * y * cfg.signal - cfg.signal**2) / 2.0
                want = stable_magnitude_order(llrs)
                assert_same_bits(ordered[r], want)
                got = (int(stop_k[r]), Hypothesis(int(decide_h1[r])))
                assert got == stopping_rule(want, cfg.threshold)

    def test_magnitude_order_bit_for_bit(self, rng):
        # The packed-key sort against the stable sort on -|L|, on rows of
        # signed zeros, (x, -x) ties, same-sign ties, subnormals and the
        # largest floats, and on rows of one and two sensors; compared as
        # bit patterns, since -0.0 == 0.0.
        tiny, big = 5e-324, 1.7976931348623157e308
        rows = [
            [0.0, -0.0, 1.0, -1.0, 0.0, -0.0],
            [-0.0, 0.0, -0.0, 0.0, 2.0, 2.0],
            [2.5, 2.5, -2.5, 1.0, -2.5, 2.5],
            [-3.0, -3.0, 3.0, 3.0, 0.0, -3.0],
            [tiny, -tiny, 0.0, -big, big, -0.0],
            [4.0, -1.0, 3.0, -2.0, 0.5, -0.25],
        ]
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, tiny, -tiny, 7.0])
        blocks = [np.vstack([rows, rng.choice(values, size=(500, 6))])]
        blocks += [rng.choice(values, size=(100, n)) for n in (1, 2)]
        for block in blocks:
            ordered, mags = _magnitude_order(block.copy(), _workspace(*block.shape))
            for r, row in enumerate(block):
                want = stable_magnitude_order(row)
                assert_same_bits(ordered[r], want)
                assert_same_bits(mags[r], np.abs(want))

    @pytest.mark.parametrize("n", [1, 2])
    def test_draw_trial_short_rows_bit_for_bit(self, n):
        # Replay each stream by hand: N uniforms, then N normals.
        cfg = ModelConfig(n_sensors=n, signal=3.0, byz_frac=0.5, attack_strength=4.0)
        for stream in range(20):
            truth = Hypothesis(stream % 2)
            rec = draw_trial(cfg, truth, RngSpec(17, stream))
            gen = RngSpec(17, stream).generator()
            byz = gen.random(n) < cfg.byz_frac
            y = gen.standard_normal(n) + (cfg.signal if truth else 0.0)
            y = np.where(byz, y + (-4.0 if truth else 4.0), y)
            llrs = (2.0 * y * cfg.signal - cfg.signal**2) / 2.0
            assert_same_bits(rec.llrs_ordered, stable_magnitude_order(llrs))
            assert np.array_equal(rec.byz_mask, byz)


def two_branch_stop_scan(ordered: np.ndarray, mags: np.ndarray, lam: float):
    """The stop scan that decided by the side that fired, else by the full sum (reference)."""
    n = ordered.shape[1]
    prefix = np.cumsum(ordered, axis=1)
    spread = mags * np.arange(n - 1, -1, -1, dtype=float)
    fire_h1 = prefix - spread > lam
    fired = (prefix + spread < lam) | fire_h1
    full_sum = prefix[:, -1].copy()
    first = np.arange(len(fired)), np.argmax(fired, axis=1)
    stopped = fired[first]
    stop_k = np.where(stopped, first[1] + 1, n)
    decide_h1 = np.where(stopped, fire_h1[first], full_sum > lam)
    return stop_k, decide_h1, full_sum


def stable_magnitude_order(llrs: np.ndarray) -> np.ndarray:
    """Transmission order by Python's stable sort on -|L| (ties: lower index first)."""
    return llrs[sorted(range(len(llrs)), key=lambda i: -abs(llrs[i]))]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestStreamSampler:
    def test_at_matches_fresh_generator(self):
        # Repositioning one Philox state must give exactly the stream a
        # fresh RngSpec generator gives, in any visiting order, and whatever
        # the previous stream left in Philox's output buffer.
        sampler = _StreamSampler(123)
        streams = ((7, 5), (0, 9), (2**62, 3), (1, 10), (2**40, 6), (7, 5))
        for stream, n in streams + ((2**63, 4), (2**64 - 1, 7)):
            gen = sampler.at(stream)
            ref = RngSpec(123, stream).generator()
            assert np.array_equal(gen.random(n), ref.random(n))
            assert np.array_equal(gen.standard_normal(n), ref.standard_normal(n))
        partial_draws = (
            lambda g: g.random(1),  # one of the four words of a Philox block
            lambda g: g.random(3),
            lambda g: g.random(dtype=np.float32),  # leaves a spare 32-bit half
        )
        for partial_draw in partial_draws:
            partial_draw(sampler.at(11))
            gen = sampler.at(2**64 - 1)
            ref = RngSpec(123, 2**64 - 1).generator()
            assert np.array_equal(gen.random(6), ref.random(6))
            assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
            assert gen.random(dtype=np.float32) == ref.random(dtype=np.float32)

    def test_read_matches_fresh_generators(self):
        # Row r of a read holds stream start + r: its N uniforms, then its N
        # normals, exactly as a fresh generator of that stream draws them,
        # also right after a draw that left the sampler mid-stream.
        n = 7
        sampler = _StreamSampler(123)
        for start, rows in ((0, 4), (2**63 - 3, 3), (2**64 - 3, 3), (1, 2)):
            for leave_mid_stream in (False, True):
                if leave_mid_stream:
                    sampler.at(1 << 63).random(5)
                uniforms, normals = np.empty((2, rows, n))
                sampler.read(start, uniforms, normals)
                for r in range(rows):
                    ref = RngSpec(123, start + r).generator()
                    assert_same_bits(uniforms[r], ref.random(n))
                    assert_same_bits(normals[r], ref.standard_normal(n))


class TestRngSpec:
    def test_bounds(self):
        with pytest.raises(ValueError):
            RngSpec(seed=-1)
        with pytest.raises(ValueError):
            RngSpec(seed=2**64)
        with pytest.raises(ValueError):
            RngSpec(seed=0, stream=-2)

    def test_streams_differ(self):
        a = RngSpec(0, 0).generator().random(6)
        b = RngSpec(0, 1).generator().random(6)
        assert not np.array_equal(a, b)


def test_protocol_imports_only_core_from_the_package():
    # The simulator rests on the model alone, so the analytic layers stay
    # independent oracles for it.
    tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "otdetect":
                local.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            local.update(a.name for a in node.names if a.name.split(".")[0] == "otdetect")
    assert local == {".core"}
