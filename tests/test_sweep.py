"""Sweep driver, CSV emission, summaries, presets."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from otdetect import (
    ModelConfig,
    SpecError,
    SweepSpec,
    emit_csv,
    load_csv,
    preset_specs,
    run_sweep,
    run_sweeps,
    summarize,
    sweep,
)
from otdetect.sweep import PRESET_NAMES

BASE = ModelConfig(n_sensors=10, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=0.0)


def small_spec(**over) -> SweepSpec:
    kwargs = dict(
        base=BASE,
        sweep_param="D",
        grid=tuple(np.linspace(0.0, 10.0, 21)),
        metrics=("pe_analytic", "ns_empirical", "dc"),
        n_trials=400,
        seed=7,
    )
    kwargs.update(over)
    return SweepSpec(**kwargs)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSweepSpecValidation:
    def test_valid(self):
        spec = small_spec()
        assert spec.columns() == ("D", "pe_analytic", "ns_empirical", "ns_empirical_se", "dc")
        small_spec(metrics=("nt_analytic",), sweep_param="N", grid=(10.0, 20.0))
        small_spec(base=BASE.replace(n_sensors=300), metrics=("ns_empirical",))
        small_spec(metrics=("nt_analytic",), sweep_param="N", grid=(10.0, 21.0))
        small_spec(base=BASE.replace(n_sensors=300), metrics=("ns_empirical", "nt_analytic"))

    @pytest.mark.parametrize(
        "over",
        [
            dict(grid=()),
            dict(grid=(1.0, 1.0, 2.0)),
            dict(grid=(2.0, 1.0)),
            dict(metrics=()),
            dict(metrics=("pe_analytic", "bogus")),
            dict(sweep_param="sigma"),
            dict(n_trials=0),
            dict(sweep_param="N", grid=(1.5, 2.0)),
            dict(sweep_param="alpha0", grid=(0.2, 1.5)),
            dict(sweep_param="N", grid=(1.0, float("inf"))),
            dict(seed=-1),
            dict(seed=2**64),
        ],
    )
    def test_invalid(self, over):
        with pytest.raises(SpecError):
            small_spec(**over)

    def test_config_at(self):
        spec = small_spec(sweep_param="alpha0", grid=(0.1, 0.4))
        assert spec.config_at(0.4).byz_frac == 0.4
        spec_n = small_spec(sweep_param="N", grid=(2.0, 5.0))
        assert spec_n.config_at(5.0).n_sensors == 5


class TestRunSweep:
    def test_shape(self):
        result = run_sweep(small_spec())
        assert len(result.rows) == 21
        assert all(len(row) == len(result.columns) for row in result.rows)
        assert result.provenance["seed"] == 7
        assert len(result.provenance["config_hash"]) == 64

    def test_deterministic(self):
        spec = small_spec(grid=(0.0, 2.0, 4.0, 6.0))
        assert run_sweep(spec).rows == run_sweep(spec).rows

    def test_worker_invariant(self, monkeypatch):
        # Three usable CPUs, so that three processes split the grid unevenly
        # (points 0 and 3, 1, 2) even on a one-CPU machine.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
        spec = small_spec(grid=(0.0, 2.0, 4.0, 6.0), metrics=("pe_empirical", "nt_analytic", "dc"))
        serial = run_sweep(spec).rows
        for workers in (2, 3, 8):
            assert run_sweep(spec, workers).rows == serial
        assert_no_child_left()

    @pytest.mark.parametrize(
        "over",
        [
            dict(grid=(0.0, 2.0, 4.0, 6.0)),
            dict(sweep_param="alpha0", grid=(0.0, 0.25, 0.5, 1.0),
                 base=BASE.replace(attack_strength=3.0, prior_h1=0.3)),
            dict(sweep_param="N", grid=(1.0, 2.0, 5.0, 10.0)),
        ],
    )
    def test_shared_draws_match_points_alone(self, monkeypatch, over):
        # A share draws each block once for all of its points; every row must
        # equal the row of its point evaluated on its own, at every worker count.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
        spec = small_spec(**over, metrics=sweep.METRICS, n_trials=300)
        alone = [sweep._evaluate_share([(spec, value)])[0] for value in spec.grid]
        for workers in (1, 2, 3):
            assert list(run_sweep(spec, workers).rows) == alone
        assert_no_child_left()

    def test_workers_below_one(self):
        with pytest.raises(SpecError):
            run_sweep(small_spec(), 0)

    def test_process_count_cap(self, monkeypatch):
        cpus = sweep._usable_cpus()
        assert 1 <= sweep._process_count(1_000_000, 25) <= min(cpus, 25)
        assert sweep._process_count(1_000_000, 1) == 1
        assert sweep._process_count(1, 25) == 1
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        assert sweep._process_count(1_000_000, 25) == 2
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 64)
        assert sweep._process_count(1_000_000, 25) == 25
        monkeypatch.delattr(os, "fork")
        assert sweep._process_count(8, 25) == 1

    @pytest.mark.parametrize("grid", [(10.0, 1e6), (1e6, 1e7), (10.0, 1e6, 1e7)])
    def test_failing_point_refused_at_construction(self, grid):
        # The N-scaled dc moments overflow from N = 10^6 at D = 1e150, so the
        # first failing point is always N = 10^6.
        over = dict(base=BASE.replace(attack_strength=1e150), sweep_param="N", grid=grid)
        with pytest.raises(SpecError, match="at N = 1000000: the N-scaled"):
            small_spec(**over, metrics=("pe_analytic", "dc"))
        small_spec(**over, metrics=("pe_analytic",))  # only dc overflows

    # Three processes on the grid's three points: the parent's, child 1's, child 2's.
    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_run_time_error_reaches_caller(self, monkeypatch, failing):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
        spec = small_spec(grid=(0.0, 2.0, 4.0))
        evaluate = sweep._evaluate_share

        def fail_at(points):
            if (spec, spec.grid[failing]) in points:
                raise ArithmeticError(f"point {failing} failed")
            return evaluate(points)

        monkeypatch.setattr(sweep, "_evaluate_share", fail_at)
        with pytest.raises(ArithmeticError, match=f"point {failing} failed"):
            run_sweep(spec, workers=3)
        assert_no_child_left()


    def test_d_star_not_applicable_cell(self):
        spec = small_spec(
            base=BASE.replace(byz_frac=0.0),
            metrics=("d_star", "dc"),
            grid=(0.0, 1.0),
        )
        result = run_sweep(spec)
        assert result.column("d_star") == [None, None]
        assert all(v is not None for v in result.column("dc"))

    def test_bounds_not_applicable_for_single_sensor(self):
        spec = small_spec(sweep_param="N", grid=(1.0, 4.0), metrics=("ns_lb", "ns_ub"))
        result = run_sweep(spec)
        assert result.column("ns_lb")[0] is None
        assert result.column("ns_lb")[1] is not None

    def test_common_random_numbers_across_grid(self):
        # Same per-point seed: the no-attack point of a D sweep replays the
        # batch of a standalone run at D=0.
        from otdetect import run_batch

        spec = small_spec(metrics=("ns_empirical",), grid=(0.0, 5.0))
        result = run_sweep(spec)
        standalone = run_batch(spec.config_at(0.0), spec.n_trials, spec.seed)
        assert result.rows[0][result.columns.index("ns_empirical")] == pytest.approx(
            standalone.mean_saved.value
        )


# Specs that differ in metrics, trials, seed, N, prior and swept parameter;
# the first two share everything the draws depend on, as a preset's curves do.
MIXED_SPECS = [
    small_spec(grid=(0.0, 3.0, 6.0), metrics=("ns_empirical", "nt_analytic")),
    small_spec(grid=(1.0, 4.0), base=BASE.replace(byz_frac=0.5), metrics=("pe_empirical", "dc")),
    small_spec(grid=(0.0, 5.0), n_trials=300, metrics=("ns_empirical", "nt_analytic", "d_star")),
    small_spec(grid=(2.0,), seed=8, metrics=("pe_empirical", "pe_analytic")),
    small_spec(sweep_param="N", grid=(1.0, 2.0, 10.0), metrics=sweep.METRICS),
    small_spec(sweep_param="alpha0", grid=(0.0, 0.5), base=BASE.replace(prior_h1=0.3),
               metrics=("pe_empirical", "ns_empirical")),
    small_spec(sweep_param="s", grid=(1.0, 2.0), base=BASE.replace(n_sensors=5),
               metrics=("ns_empirical", "ns_lb", "ns_ub")),
]


class TestRunSweeps:
    """Several specs evaluated as one grid, as a preset evaluates its curves."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_each_spec_alone(self, monkeypatch, workers):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 3)
        alone = [run_sweep(spec) for spec in MIXED_SPECS]
        assert run_sweeps(MIXED_SPECS, workers) == alone
        assert_no_child_left()

    # Four processes on the five points of two specs; point 4 is the
    # second spec's second point, evaluated by the parent again.
    @pytest.mark.parametrize("failing", range(5))
    def test_run_time_error_reaches_caller(self, monkeypatch, failing):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 4)
        specs = [small_spec(grid=(0.0, 2.0, 4.0)), small_spec(grid=(1.0, 3.0), seed=9)]
        target = [(spec, value) for spec in specs for value in spec.grid][failing]
        evaluate = sweep._evaluate_share

        def fail_at(points):
            if target in points:
                raise ArithmeticError(f"point {failing} failed")
            return evaluate(points)

        monkeypatch.setattr(sweep, "_evaluate_share", fail_at)
        with pytest.raises(ArithmeticError, match=f"point {failing} failed"):
            run_sweeps(specs, workers=4)
        assert_no_child_left()

    def test_workers_below_one(self):
        with pytest.raises(SpecError):
            run_sweeps(MIXED_SPECS, 0)

    def test_empty_spec_list(self):
        assert run_sweeps([], workers=2) == []


class TestEmitCsv:
    def test_line_count_and_endings(self, tmp_path):
        result = run_sweep(small_spec())
        path = emit_csv(result, tmp_path / "sweep.csv")
        raw = path.read_bytes()
        assert raw.count(b"\n") == 22
        assert b"\r" not in raw
        header = raw.split(b"\n", 1)[0].decode()
        assert header == ",".join(result.columns)

    def test_rerun_byte_identical(self, tmp_path):
        spec = small_spec(grid=(0.0, 3.0, 6.0))
        p1 = emit_csv(run_sweep(spec), tmp_path / "a.csv")
        p2 = emit_csv(run_sweep(spec), tmp_path / "b.csv")
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_round_trip_exact(self, tmp_path):
        spec = small_spec(grid=(0.0, 3.0, 6.0), metrics=("pe_analytic", "pe_empirical", "d_star"))
        result = run_sweep(spec)
        path = emit_csv(result, tmp_path / "rt.csv")
        back = load_csv(path)
        assert back.columns == result.columns
        assert back.rows == result.rows

    def test_sidecar_metadata(self, tmp_path):
        spec = small_spec(grid=(0.0, 1.0))
        result = run_sweep(spec)
        path = emit_csv(result, tmp_path / "m.csv")
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["config_hash"] == spec.config_hash()
        assert meta["seed"] == spec.seed

    def test_config_hash_pinned(self):
        # The hash is written into every sidecar, so it must not drift.
        assert small_spec().config_hash() == (
            "78a751b86d94b3d6eb91888ba26d3f88ceec9cc319fdb9e9216d9114995e25eb"
        )
        assert dict(preset_specs("fig2"))["alpha0.3"].config_hash() == (
            "ba36e4428e93d55d962482d7330003aaeace0c5efe57cb0f11b6fb74f5301123"
        )

    def test_na_cells(self, tmp_path):
        spec = small_spec(base=BASE.replace(byz_frac=0.0), metrics=("d_star",), grid=(0.0, 1.0))
        path = emit_csv(run_sweep(spec), tmp_path / "na.csv")
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[1] == "NA"

    def test_unwritable_path_raises_oserror(self, tmp_path):
        result = run_sweep(small_spec(grid=(0.0, 1.0)))
        with pytest.raises(OSError):
            emit_csv(result, tmp_path / "no_such_dir" / "x.csv")


class TestSummarize:
    def test_single_row(self):
        result = run_sweep(small_spec(grid=(2.0,)))
        text = summarize(result)
        assert len(text.splitlines()) >= 3
        assert "nan" not in text.lower()

    def test_extrema_reported_near_blind_point(self):
        spec = small_spec(
            metrics=("ns_empirical", "pe_analytic"),
            grid=tuple(np.arange(0.0, 12.5, 0.5)),
            n_trials=3000,
        )
        text = summarize(run_sweep(spec))
        line = next(l for l in text.splitlines() if l.startswith("min ns_empirical"))
        d_at_min = float(line.rsplit("=", 1)[1])
        assert abs(d_at_min - 5.0) <= 1.0  # near the blinding strength for alpha0=0.3
        assert any(l.startswith("max pe_analytic") for l in text.splitlines())

    def test_empty_rejected(self):
        from otdetect import SweepResult

        with pytest.raises(ValueError):
            summarize(SweepResult(columns=("D",), rows=()))


_DESK_N_GRID = (5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0)
_PAPER_N_GRID = (10.0, 25.0, 50.0, 100.0, 200.0, 300.0)
_D_GRID_HALF = (
    0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0,
    6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 10.5, 11.0, 11.5, 12.0,
)
_D_GRID_ONE = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
_N_CURVES = {
    "s0.5": dict(
        n_sensors=10, signal=0.5, noise_var=1.0, byz_frac=0.3, attack_strength=6.0, prior_h1=0.5
    ),
    "s4": dict(
        n_sensors=10, signal=4.0, noise_var=1.0, byz_frac=0.3, attack_strength=6.0, prior_h1=0.5
    ),
}


def _d_curves(n):
    return {
        "alpha0.3": dict(
            n_sensors=n, signal=3.0, noise_var=1.0, byz_frac=0.3, attack_strength=0.0, prior_h1=0.5
        ),
        "alpha0.5": dict(
            n_sensors=n, signal=3.0, noise_var=1.0, byz_frac=0.5, attack_strength=0.0, prior_h1=0.5
        ),
    }


# (preset, paper_scale) -> (sweep_param, grid, metrics, default trials, base per curve label)
PRESET_PINS = {
    ("fig1a", False): ("N", _DESK_N_GRID, ("ns_empirical",), 4000, _N_CURVES),
    ("fig1a", True): ("N", _PAPER_N_GRID, ("ns_empirical",), 4000, _N_CURVES),
    ("fig1b", False): ("N", _DESK_N_GRID, ("pe_analytic", "pe_empirical"), 4000, _N_CURVES),
    ("fig1b", True): ("N", _PAPER_N_GRID, ("pe_analytic", "pe_empirical"), 4000, _N_CURVES),
    ("fig2", False): ("D", _D_GRID_HALF, ("ns_empirical", "nt_analytic"), 20_000, _d_curves(10)),
    ("fig2", True): ("D", _D_GRID_HALF, ("ns_empirical", "nt_analytic"), 20_000, _d_curves(10)),
    ("fig3", False): (
        "D", _D_GRID_ONE, ("ns_empirical", "ns_lb", "ns_ub"), 4000, _d_curves(100)
    ),
    ("fig3", True): ("D", _D_GRID_ONE, ("ns_empirical", "ns_lb", "ns_ub"), 4000, _d_curves(300)),
    ("fig4", False): ("D", _D_GRID_HALF, ("pe_analytic", "pe_empirical"), 10_000, _d_curves(100)),
    ("fig4", True): ("D", _D_GRID_HALF, ("pe_analytic", "pe_empirical"), 10_000, _d_curves(300)),
}


class TestPresets:
    @pytest.mark.parametrize("name,paper_scale", sorted(PRESET_PINS))
    def test_pinned_specs(self, name, paper_scale):
        param, grid, metrics, trials, curves = PRESET_PINS[name, paper_scale]
        pairs = preset_specs(name, paper_scale=paper_scale, seed=11)
        assert [label for label, _ in pairs] == list(curves)
        for label, spec in pairs:
            assert spec.sweep_param == param
            assert spec.grid == grid
            assert spec.metrics == metrics
            assert spec.n_trials == trials
            assert spec.seed == 11
            base = dataclasses.asdict(spec.base)
            assert base == curves[label]
            # Float fields stay floats: 3 and 3.0 hash differently in the sidecar.
            assert [type(v) for v in base.values()] == [int] + [float] * 5
            assert all(type(v) is float for v in spec.grid)

    def test_names_and_variants(self):
        assert PRESET_NAMES == ("fig1a", "fig1b", "fig2", "fig3", "fig4")
        for name in ("fig1a", "fig1b", "fig2", "fig3", "fig4"):
            pairs = preset_specs(name, n_trials=100)
            assert len(pairs) == 2
            for label, spec in pairs:
                assert spec.n_trials == 100
                assert label

    def test_unknown_preset(self):
        with pytest.raises(SpecError):
            preset_specs("fig9")

    def test_paper_scale_raises_n(self):
        desk = dict(preset_specs("fig3"))["alpha0.3"]
        paper = dict(preset_specs("fig3", paper_scale=True))["alpha0.3"]
        assert desk.base.n_sensors == 100
        assert paper.base.n_sensors == 300

    def test_fig2_matches_blinding_setup(self):
        pairs = dict(preset_specs("fig2"))
        spec = pairs["alpha0.3"]
        assert spec.base.n_sensors == 10
        assert spec.base.signal == 3.0
        assert spec.sweep_param == "D"
        assert "ns_empirical" in spec.metrics
