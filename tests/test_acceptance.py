"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 5 covers both the desk-scale network (N = 100)
and the full-size one (N = 300) of the CLI's --paper-scale flag.
"""

import math
import time

import numpy as np
import pytest

from otdetect import (
    Hypothesis,
    ModelConfig,
    RngSpec,
    abs_order_stat_pdf,
    analytic_error_probs,
    deflection_coefficient,
    draw_trial,
    expected_transmissions,
    llr_mixture,
    optimal_attack_strength,
    run_batch,
    transmission_savings_bounds,
)
from otdetect.cli import main as cli_main
from otdetect.protocol import _BLOCK_ELEMENTS, _simulate, _StreamSampler, _workspace
from scipy.integrate import quad

from conftest import random_config
from test_analysis import power_set_error_probs
from test_protocol import assert_same_bits


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def grid_configs() -> list[ModelConfig]:
    """12 configs spanning N x alpha0 with the attack on whenever possible."""
    configs = []
    for n in (1, 2, 10, 50):
        for alpha in (0.0, 0.3, 0.5):
            configs.append(
                ModelConfig(
                    n_sensors=n,
                    signal=3.0,
                    noise_var=1.0,
                    byz_frac=alpha,
                    attack_strength=6.0 if alpha > 0 else 0.0,
                )
            )
    return configs


def test_criterion_01_early_stop_equals_full_sum_decision():
    # Trial i of config idx is draw_trial(cfg, H1 if i is odd else H0,
    # RngSpec(1000 + idx, i)), replayed in blocks of rows through the kernel
    # that draw_trial runs on one row.  The first trials of each config are
    # also drawn by draw_trial and compared bit for bit.
    t0 = time.time()
    trials_per_config = 9000
    h1 = np.arange(trials_per_config) % 2 == 1
    mismatches = 0
    total = 0
    for idx, cfg in enumerate(grid_configs()):
        n = cfg.n_sensors
        rows = _BLOCK_ELEMENTS // n
        sampler = _StreamSampler(1000 + idx)
        for start in range(0, trials_per_config, rows):
            truth = h1[start : start + rows]
            uniforms, normals = np.empty((2, len(truth), n))
            sampler.read(start, uniforms, normals)
            ordered, byz, stop_k, decide_h1, full_sum = _simulate(
                cfg, truth, uniforms, normals, _workspace(len(truth), n)
            )
            mismatches += int(np.count_nonzero(decide_h1 != (full_sum > cfg.threshold)))
            total += len(truth)
            if start > 0:
                continue
            for i in range(50):
                rec = draw_trial(cfg, Hypothesis(int(truth[i])), RngSpec(1000 + idx, i))
                assert (rec.stop_k, rec.decision) == (stop_k[i], Hypothesis(int(decide_h1[i])))
                assert_same_bits(np.float64(rec.full_sum), full_sum[i])
                assert_same_bits(rec.llrs_ordered, ordered[i])
                assert np.array_equal(rec.byz_mask, byz[i])
    elapsed = time.time() - t0
    ok = mismatches == 0 and total >= 100_000 and elapsed < 60
    report(
        1,
        "early-stop decision equals full-sum decision on every trial",
        ok,
        f"{total} trials, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_analytic_vs_empirical_error_probability():
    t0 = time.time()
    worst_z = 0.0
    for idx, cfg in enumerate(grid_configs()):
        batch = run_batch(cfg, 100_000, seed=2000 + idx)
        p_a = analytic_error_probs(cfg).p_e
        # One-sample z-test standard error under the analytic proportion.
        se = math.sqrt(p_a * (1.0 - p_a) / batch.n_trials)
        z = abs(batch.pe.value - p_a) / se if se > 0 else 0.0
        worst_z = max(worst_z, z)
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 300
    report(
        2,
        "analytic error probability matches simulation within 3 SE (12 configs)",
        ok,
        f"worst z = {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_03_power_set_oracle():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        cfg = random_config(rng, n_sensors=int(rng.integers(1, 13)))
        p_d_oracle, p_f_oracle = power_set_error_probs(cfg)
        probs = analytic_error_probs(cfg)
        worst = max(worst, abs(probs.p_d - p_d_oracle), abs(probs.p_f - p_f_oracle))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 60
    report(
        3,
        "binomial collapse equals literal power-set enumeration (N <= 12)",
        ok,
        f"worst |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_expected_transmissions_consistency():
    t0 = time.time()
    worst_z = 0.0
    for d in (0.0, 2.0, 4.0, 6.0, 8.0):
        cfg = ModelConfig(
            n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=d
        )
        est = expected_transmissions(cfg, 100_000, seed=41)
        batch = run_batch(cfg, 100_000, seed=42)
        combined = math.hypot(est.se, batch.mean_stop_k.se)
        z = abs(est.value - batch.mean_stop_k.value) / combined
        worst_z = max(worst_z, z)
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 300
    report(
        4,
        "per-hypothesis E[k*] estimate matches run_batch within 3 SE",
        ok,
        f"worst z = {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_04_expected_transmissions_at_large_n():
    # The same estimate on long rows, against run_batch and, at N = 300,
    # against the analytic savings bounds.
    t0 = time.time()
    worst_z = 0.0
    outside = []
    for n in (30, 100, 300):
        for d in (0.0, 5.0, 8.0):
            cfg = ModelConfig(
                n_sensors=n, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=d
            )
            est = expected_transmissions(cfg, 20_000, seed=43)
            batch = run_batch(cfg, 20_000, seed=44)
            combined = math.hypot(est.se, batch.mean_stop_k.se)
            worst_z = max(worst_z, abs(est.value - batch.mean_stop_k.value) / combined)
            if n == 300:
                rep = transmission_savings_bounds(cfg)
                saved = n - est.value
                slack = 3 * est.se
                if not rep.lb_saved - slack <= saved <= rep.ub_saved + slack:
                    outside.append((d, rep.lb_saved, saved, rep.ub_saved))
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and not outside and elapsed < 300
    report(
        4,
        "E[k*] estimate matches run_batch within 3 SE at N in {30, 100, 300}, "
        "and its savings lie within the N = 300 bounds",
        ok,
        f"worst z = {worst_z:.2f}, outside bounds: {outside}, {elapsed:.1f}s",
    )


def _sandwich_margins(n_sensors: int, n_trials: int, seed: int) -> tuple[float, bool]:
    worst_margin = float("inf")
    ordered = True
    for alpha in (0.3, 0.5):
        for d in range(13):
            cfg = ModelConfig(
                n_sensors=n_sensors,
                signal=3.0,
                noise_var=1.0,
                byz_frac=alpha,
                attack_strength=float(d),
            )
            rep = transmission_savings_bounds(cfg)
            ordered = ordered and rep.lb_saved <= rep.ub_saved
            batch = run_batch(cfg, n_trials, seed=seed)
            ns, se = batch.mean_saved.value, batch.mean_saved.se
            worst_margin = min(
                worst_margin, ns - (rep.lb_saved - 3 * se), (rep.ub_saved + 3 * se) - ns
            )
    return worst_margin, ordered


def test_criterion_05_savings_bounds_sandwich():
    t0 = time.time()
    margin, ordered = _sandwich_margins(n_sensors=100, n_trials=5000, seed=77)
    desk_elapsed = time.time() - t0
    details = f"desk worst margin = {margin:.3f}, {desk_elapsed:.1f}s"
    ok = margin >= 0.0 and ordered and desk_elapsed < 600
    margin300, ordered300 = _sandwich_margins(n_sensors=300, n_trials=2000, seed=78)
    details += f"; N=300 worst margin = {margin300:.3f}"
    ok = ok and margin300 >= 0.0 and ordered300
    report(
        5,
        "lower/upper bounds sandwich the simulated transmissions saved",
        ok,
        details,
    )


def test_criterion_06_no_attack_strong_signal_saves_half():
    cfg = ModelConfig(n_sensors=100, signal=4.0, noise_var=1.0, byz_frac=0.0)
    batch = run_batch(cfg, 10_000, seed=6)
    frac = batch.mean_saved.value / cfg.n_sensors
    report(
        6,
        "no attack, s = 4 sigma: saved fraction is at least one half",
        frac >= 0.5,
        f"saved/N = {frac:.3f}",
    )


def test_criterion_07_blinding_strength():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_dc = 0.0
    for _ in range(20):
        cfg = random_config(rng, byz_frac=float(rng.uniform(0.05, 1.0)))
        cfg = cfg.replace(attack_strength=optimal_attack_strength(cfg))
        worst_dc = max(worst_dc, abs(deflection_coefficient(cfg).dc))
    analytic_ok = worst_dc <= 1e-10

    pe_ok = True
    argmin_ok = True
    argmin_detail = []
    for alpha in (0.3, 0.5):
        base = ModelConfig(n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=alpha)
        d_star = optimal_attack_strength(base)
        pe_at_zero = run_batch(base, 20_000, seed=71).pe.value
        pe_at_star = run_batch(
            base.replace(attack_strength=d_star), 20_000, seed=71
        ).pe.value
        pe_ok = pe_ok and pe_at_star > pe_at_zero
        step = 0.5
        grid = np.arange(0.0, 12.0 + step, step)
        saved = [
            run_batch(base.replace(attack_strength=float(d)), 20_000, seed=101).mean_saved.value
            for d in grid
        ]
        d_min = float(grid[int(np.argmin(saved))])
        argmin_ok = argmin_ok and abs(d_min - d_star) <= 2 * step + 1e-12
        argmin_detail.append(f"alpha={alpha}: argmin {d_min} vs D* {d_star}")
    elapsed = time.time() - t0
    ok = analytic_ok and pe_ok and argmin_ok
    report(
        7,
        "blinding strength: dc = 0 analytically, worse Pe and near-minimal savings empirically",
        ok,
        f"worst |dc| = {worst_dc:.1e}; {'; '.join(argmin_detail)}; {elapsed:.1f}s",
    )


def test_criterion_08_error_probability_shape_vs_attack_strength():
    t0 = time.time()
    thresholds = {}
    shape_ok = True
    for alpha in (0.3, 0.5):
        grid = np.arange(0.0, 8.5, 0.5)
        pes, ses = [], []
        for d in grid:
            cfg = ModelConfig(
                n_sensors=100, signal=3.0, noise_var=1.0, byz_frac=alpha, attack_strength=float(d)
            )
            b = run_batch(cfg, 10_000, seed=55)
            pes.append(b.pe.value)
            ses.append(b.pe.se)
        pes_arr = np.array(pes)
        reach = np.nonzero(pes_arr >= 0.45)[0]
        assert reach.size > 0, f"plateau never reached for alpha0={alpha}"
        plateau_idx = int(reach[0])
        thresholds[alpha] = float(grid[plateau_idx])
        for i in range(plateau_idx):
            if pes[i + 1] < pes[i] - 3 * math.hypot(ses[i], ses[i + 1]):
                shape_ok = False
    ordering_ok = thresholds[0.3] > thresholds[0.5]
    elapsed = time.time() - t0
    report(
        8,
        "Pe rises monotonically to its plateau; smaller byz fraction needs larger D",
        shape_ok and ordering_ok,
        f"first D with Pe>=0.45: alpha 0.3 -> {thresholds[0.3]}, alpha 0.5 -> {thresholds[0.5]}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_order_statistic_density():
    t0 = time.time()
    cfg = ModelConfig(n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=6.0)
    mix = llr_mixture(cfg, Hypothesis.H1)
    hi = max(abs(mix.mean_honest), abs(mix.mean_byz)) + 12 * mix.std
    gen = np.random.default_rng(9)
    m = 1_000_000
    mags = np.abs(mix.sample(gen, m * 10).reshape(m, 10))
    worst_norm = 0.0
    worst_iae = 0.0
    for k in (1, 3, 10):
        total, _ = quad(
            lambda x: abs_order_stat_pdf(cfg, Hypothesis.H1, k, x), 0.0, hi, limit=300
        )
        worst_norm = max(worst_norm, abs(total - 1.0))
        kth_largest = np.partition(mags, 10 - k, axis=1)[:, 10 - k]
        upper = float(kth_largest.max()) * 1.02
        counts, edges = np.histogram(kth_largest, bins=120, range=(0.0, upper))
        mids = 0.5 * (edges[:-1] + edges[1:])
        model_mass = abs_order_stat_pdf(cfg, Hypothesis.H1, k, mids) * (edges[1] - edges[0])
        worst_iae = max(worst_iae, float(np.abs(counts / m - model_mass).sum()))
    elapsed = time.time() - t0
    ok = worst_norm <= 1e-8 and worst_iae < 0.02
    report(
        9,
        "k-th largest magnitude density normalizes and matches sampling",
        ok,
        f"worst |norm-1| = {worst_norm:.1e}, worst IAE = {worst_iae:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_preset_determinism(tmp_path, capsys):
    t0 = time.time()
    args = ["preset", "fig2", "--trials", "400", "--seed", "9"]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r3"), "--workers", "8"]) == 0
    capsys.readouterr()  # drop the presets' own tables
    identical = True
    for label in ("alpha0.3", "alpha0.5"):
        b1 = (tmp_path / f"r1_{label}.csv").read_bytes()
        b2 = (tmp_path / f"r2_{label}.csv").read_bytes()
        b3 = (tmp_path / f"r3_{label}.csv").read_bytes()
        identical = identical and b1 == b2 == b3
    elapsed = time.time() - t0
    report(
        10,
        "preset fig2 CSV is byte-identical across runs and worker counts",
        identical,
        f"{elapsed:.1f}s",
    )
