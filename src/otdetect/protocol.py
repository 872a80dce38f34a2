"""Trial-level simulation of the ordered-transmission (OT) protocol.

Sensors compute LLRs from their (possibly falsified) observations and
transmit them in order of descending magnitude.  After each reception the
fusion center brackets the still-unseen total LLR sum between running
bounds and stops as soon as the bracket clears the Bayesian threshold on
one side; the early decision provably matches the decision the full sum
would have produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .core import EstimateWithError, Hypothesis, ModelConfig

__all__ = [
    "RngSpec",
    "TrialRecord",
    "BatchSummary",
    "PartialSumBounds",
    "StopAction",
    "draw_trial",
    "stopping_rule",
    "partial_sum_bounds",
    "run_batch",
    "run_batches",
    "expected_transmissions",
    "expected_transmissions_each",
]

_U64 = 1 << 64
# _stop_counts runs trials in blocks of max(1, _BLOCK_ELEMENTS // N) rows.  The
# block size fixes how expected_transmissions consumes its streams, so it is
# part of that estimator's output bytes: changing it changes nt_analytic.
_BLOCK_ELEMENTS = 16384

StopAction = Literal["decide_H0", "decide_H1", "continue"]

DECIDE_H0: StopAction = "decide_H0"
DECIDE_H1: StopAction = "decide_H1"
CONTINUE: StopAction = "continue"


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random stream identity: (seed, stream) -> generator.

    Streams are laid out in a Philox counter space 2^192 blocks apart, so
    any number of trials can be generated independently and in any order
    while remaining bit-for-bit reproducible.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < _U64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.stream < _U64:
            raise ValueError(f"stream must be a 64-bit unsigned integer, got {self.stream}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed, counter=self.stream << 192))


@dataclass(frozen=True)
class TrialRecord:
    """One simulated OT run.

    Attributes:
        truth: hypothesis the observations were drawn under.
        llrs_ordered: LLRs sorted by descending magnitude (transmission order).
        byz_mask: per-sensor compromise flags in the original sensor order.
        stop_k: number of transmissions after which the fusion center decided.
        decision: the fusion center's decision.
        full_sum: sum of all N LLRs (what the no-early-stop test would use).
    """

    truth: Hypothesis
    llrs_ordered: np.ndarray
    byz_mask: np.ndarray
    stop_k: int
    decision: Hypothesis
    full_sum: float

    @property
    def n_sensors(self) -> int:
        return self.llrs_ordered.size

    @property
    def saved(self) -> int:
        """Transmissions avoided relative to full reporting."""
        return self.n_sensors - self.stop_k


class PartialSumBounds(NamedTuple):
    z_lower: float
    z_upper: float
    can_stop: StopAction


@dataclass(frozen=True)
class BatchSummary:
    """Aggregates over a batch of independent trials."""

    config: ModelConfig
    n_trials: int
    n_h1: int
    pe: EstimateWithError
    mean_stop_k: EstimateWithError
    mean_saved: EstimateWithError


class _StreamSampler:
    """One reusable Philox generator, repositioned per stream.

    Resetting the counter is much cheaper than constructing a fresh
    generator and yields bit-identical output to
    ``RngSpec(seed, stream).generator()``.  The state dict holds Python
    lists, not arrays: the Philox state setter reads them one element at a
    time, and indexing a list is cheaper than indexing an array.
    """

    def __init__(self, seed: int) -> None:
        self.generator = RngSpec(seed).generator()
        self._bitgen = self.generator.bit_generator
        self._state = self._bitgen.state
        self._state["state"]["key"] = self._state["state"]["key"].tolist()
        # A fresh state has an empty output buffer (buffer_pos 4, no spare
        # 32-bit half); nothing writes to this dict, so every reposition
        # discards whatever the previous stream left buffered.
        self._state["buffer"] = [0] * 4
        self._counter = [0] * 4
        self._state["state"]["counter"] = self._counter

    def at(self, stream: int) -> np.random.Generator:
        self._counter[3] = stream
        self._bitgen.state = self._state
        return self.generator

    def read(self, start: int, uniforms: np.ndarray, normals: np.ndarray) -> None:
        """Write trial stream ``start + r``'s N uniforms, then its N normals, into row r."""
        for r in range(len(uniforms)):
            gen = self.at(start + r)
            gen.random(out=uniforms[r])
            gen.standard_normal(out=normals[r])


def _check_magnitude_sorted(llrs: np.ndarray, lam: float) -> np.ndarray:
    if llrs.ndim != 1:
        raise ValueError("expected a 1-D sequence of LLRs")
    if not (np.isfinite(llrs).all() and math.isfinite(lam)):
        raise ValueError("LLRs and the threshold must be finite")
    mags = np.abs(llrs)
    if np.any(np.diff(mags) > 0):
        raise ValueError("LLRs must be sorted by descending magnitude")
    return mags


class _Workspace(NamedTuple):
    """Scratch buffers for a block of trial rows, so the kernel allocates no (rows, N) array.

    One workspace serves every config simulated on a block.  ``base``,
    ``byz`` and ``toward`` depend on the config only through (signal,
    noise_var, byz_frac), so consecutive configs that agree on those three,
    such as the points of a D sweep, reuse them.
    """

    base: np.ndarray  # float: sigma*z + s*h, in sensor order
    byz: np.ndarray  # bool: compromise mask, in sensor order
    toward: np.ndarray  # float: -1 (H1) or +1 (H0) where compromised, a zero elsewhere
    llrs: np.ndarray  # float: the LLRs in sensor order, then their prefix sums
    key: np.ndarray  # uint64: sort keys, then the bits of the ordered LLRs
    mags: np.ndarray  # float: the ordered magnitudes, ascending (bits, as uint64)
    spread: np.ndarray  # float: (N - k)|L_(k)|
    bracket: np.ndarray  # float: an end of the bracket on the full sum
    stops: np.ndarray  # bool: the bracket clears the threshold (and tie flags in the sort)
    below: np.ndarray  # bool: the bracket lies below the threshold
    weights: np.ndarray  # (N,) float: N - k for k = 1..N


def _workspace(rows: int, n: int) -> _Workspace:
    base, toward, llrs, key, mags, spread, bracket = np.empty((7, rows, n))
    byz, stops, below = np.empty((3, rows, n), dtype=bool)
    return _Workspace(
        base, byz, toward, llrs, key.view(np.uint64), mags, spread, bracket, stops, below,
        weights=np.arange(n - 1, -1, -1, dtype=float),
    )


def _stop_scan(
    ordered: np.ndarray, mags: np.ndarray, lam: float, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise stop scan over a block of magnitude-ordered LLR rows.

    ``ordered`` and ``mags`` are (rows, N) arrays of pre-validated LLRs and
    their magnitudes; they may be views of ``ws.key`` and ``ws.mags``, but
    not of the buffers this scan writes (``ws.llrs``, ``ws.spread``,
    ``ws.bracket``, ``ws.stops``, ``ws.below``).  Returns per-row
    (stop_k, decide_h1, full_sum).
    """
    prefix = np.cumsum(ordered, axis=1, out=ws.llrs)
    spread = np.multiply(mags, ws.weights, out=ws.spread)
    stops = np.greater(np.subtract(prefix, spread, out=ws.bracket), lam, out=ws.stops)
    stops |= np.less(np.add(prefix, spread, out=ws.bracket), lam, out=ws.below)
    # Rounding is monotone, fl(p - s) <= p <= fl(p + s), so a row stops on the
    # side its prefix p is on.  At k = N the spread is 0 and p the full sum:
    # every row stops by N, and a full sum on the threshold goes to H0.
    stops[:, -1] = True
    stop_k = np.argmax(stops, axis=1)
    decide_h1 = prefix[np.arange(len(stops)), stop_k] > lam
    return stop_k + 1, decide_h1, prefix[:, -1].copy()


def stopping_rule(ordered_llrs: Sequence[float], lam: float) -> tuple[int, Hypothesis]:
    """Earliest decision of the OT fusion rule on magnitude-ordered LLRs.

    After k receptions with n_ut = N - k sensors still silent, decide H1
    once  sum_k > lam + n_ut*|L_k|,  H0 once  sum_k < lam - n_ut*|L_k|;
    otherwise wait.  If neither strict inequality ever fires (the full sum
    ties the threshold exactly), all N transmissions are used and the tie
    resolves to H0.

    Returns (stop_k, decision) with stop_k minimal.
    """
    llrs = np.asarray(ordered_llrs, dtype=float)
    if llrs.size == 0:
        raise ValueError("need at least one LLR")
    mags = _check_magnitude_sorted(llrs, lam)
    stop_k, decide_h1, _ = _stop_scan(llrs[None, :], mags[None, :], lam, _workspace(1, llrs.size))
    return int(stop_k[0]), Hypothesis(int(decide_h1[0]))


def partial_sum_bounds(
    ordered_prefix: Sequence[float], n_total: int, lam: float
) -> PartialSumBounds:
    """Bracket the full N-sensor LLR sum from its first k ordered terms.

    Every unseen LLR has magnitude at most |L_k|, so the full sum lies in
    [prefix_sum - (N-k)|L_k|, prefix_sum + (N-k)|L_k|] for every completion
    consistent with the ordering.  The fusion center may stop once the
    bracket is strictly on one side of the threshold.
    """
    prefix = np.asarray(ordered_prefix, dtype=float)
    if prefix.size == 0:
        raise ValueError("prefix must contain at least one LLR")
    if prefix.size > n_total:
        raise ValueError(f"prefix of length {prefix.size} exceeds n_total={n_total}")
    mags = _check_magnitude_sorted(prefix, lam)
    spread = (n_total - prefix.size) * mags[-1]
    total = float(np.cumsum(prefix)[-1])
    z_lower = total - spread
    z_upper = total + spread
    if z_upper < lam:
        action: StopAction = DECIDE_H0
    elif z_lower > lam:
        action = DECIDE_H1
    else:
        action = CONTINUE
    return PartialSumBounds(z_lower, z_upper, action)


def _simulate(
    config: ModelConfig,
    h1: np.ndarray,
    uniforms: np.ndarray,
    normals: np.ndarray,
    ws: _Workspace,
    base_ready: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a block of trials from their raw variates through the stopping engine.

    Row r is one trial under H1 if ``h1[r]`` else H0: ``uniforms[r]`` draw
    the compromise mask and ``normals[r]`` the noise, both in sensor order.
    ``ws`` has exactly one row per trial.  ``base_ready`` says that ``ws``
    already holds this block's ``base``, ``byz`` and ``toward`` for a config
    with the same (signal, noise_var, byz_frac), so only the attack strength
    is applied anew.
    Returns (ordered LLRs, compromise mask, stop_k, decide_h1, full_sum),
    one row or entry per trial; the first two are views of ``ws``.
    """
    s = config.signal
    if not base_ready:
        byz = np.less(uniforms, config.byz_frac, out=ws.byz)
        np.multiply(byz, np.where(h1, -1.0, 1.0)[:, None], out=ws.toward)
        base = np.multiply(normals, math.sqrt(config.noise_var), out=ws.base)
        base += np.where(h1, s, 0.0)[:, None]
    # The LLR (2 y s - s^2) / (2 sigma^2) of y = base + toward * D: a
    # compromised entry moves by D toward the wrong hypothesis (+-1 * D is
    # exact), an honest one adds a signed zero instead of taking a masked add
    # (several times slower).  A signed zero can only flip the sign of a zero
    # y, and y -= s * s (> 0, the config refuses an underflowing s^2) maps
    # both zeros to -s^2.  Multiplying by 2s rounds the same real product as
    # multiplying by 2 and then by s, because doubling is exact: no valid
    # config brings |y| or s near the overflow threshold.
    y = np.multiply(ws.toward, config.attack_strength, out=ws.llrs)
    y += ws.base
    y *= 2.0 * s
    y -= s * s
    y /= 2.0 * config.noise_var
    ordered, mags = _magnitude_order(y, ws)
    stop_k, decide_h1, full_sum = _stop_scan(ordered, mags, config.threshold, ws)
    return ordered, ws.byz, stop_k, decide_h1, full_sum


def _magnitude_order(llrs: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``llrs`` in transmission order, and the magnitudes of that order.

    Transmission order is a stable sort on -|L|: magnitude ties go to the
    lower sensor index.  Rotating a float's bits left by one puts the
    magnitude bits above the sign bit, and for non-negative floats the
    magnitude bits order like the magnitudes; so an ascending sort of the
    rotation, read backwards, sorts by descending |L|, and rotating back
    gives the LLRs.  Equal bit patterns are interchangeable, so the only
    ties this order can get wrong are x against -x (0.0 against -0.0
    included), which have equal magnitudes.  Rows holding adjacent equal
    magnitudes are re-sorted with the stable argsort.  Both results are
    reversed views of ``ws.key`` and ``ws.mags``; ``llrs`` is left as it was.
    """
    bits = llrs.view(np.uint64)
    mags = ws.mags.view(np.uint64)
    key = np.left_shift(bits, 1, out=ws.key)
    key |= np.right_shift(bits, 63, out=mags)
    key.sort(axis=1)
    np.right_shift(key, 1, out=mags)
    key <<= 63
    key |= mags
    ordered = key.view(np.float64)[:, ::-1]
    # The flat check also compares each row's last magnitude with the next
    # row's first; such a match only costs the per-row check.
    flat = mags.reshape(-1)
    if np.equal(flat[1:], flat[:-1], out=ws.stops.reshape(-1)[1:]).any():
        tied = (mags[:, 1:] == mags[:, :-1]).any(axis=1)
        order = np.argsort(-np.abs(llrs[tied]), axis=1, kind="stable")
        ordered[tied] = np.take_along_axis(llrs[tied], order, axis=1)
    return ordered, ws.mags[:, ::-1]


def draw_trial(config: ModelConfig, truth: Hypothesis, rng: RngSpec) -> TrialRecord:
    """Simulate one OT trial under ``truth`` on the stream named by ``rng``.

    Each sensor is independently compromised with probability byz_frac;
    compromised observations are shifted by the attack strength toward the
    wrong hypothesis before the LLR is formed.  The stream is consumed as
    N uniforms (compromise mask), then N normals (noise), so a replay is
    bit-for-bit stable.
    """
    truth = Hypothesis(truth)
    n = config.n_sensors
    uniforms, normals = np.empty((2, 1, n))
    _StreamSampler(rng.seed).read(rng.stream, uniforms, normals)
    ordered, byz, stop_k, decide_h1, full_sum = _simulate(
        config, np.array([truth is Hypothesis.H1]), uniforms, normals, _workspace(1, n)
    )
    return TrialRecord(
        truth=truth,
        llrs_ordered=ordered[0].copy(),
        byz_mask=byz[0],
        stop_k=int(stop_k[0]),
        decision=Hypothesis(int(decide_h1[0])),
        full_sum=float(full_sum[0]),
    )


def _stop_counts(
    configs: Sequence[ModelConfig],
    h1: np.ndarray,
    fill: Callable[[int, np.ndarray, np.ndarray], None],
) -> list[tuple[int, float, float]]:
    """Run one trial per entry of ``h1`` through :func:`_simulate`, in blocks of rows.

    ``fill(start, uniforms, normals)`` writes the raw variates of trials
    ``start``, ``start + 1``, ... into a block's (m, N) buffers.  Each block
    is drawn once and simulated under every config of ``configs``, which
    share ``n_sensors``, in one workspace (a smaller one for a last, partial
    block); a config whose (signal, noise_var, byz_frac) equal the previous
    config's reuses the LLR base that config left in it.  Returns, per
    config, the number of wrong decisions, and the mean stop time with its
    SE, reduced from exact integer counts of the stop times.
    """
    n_trials = len(h1)
    n = configs[0].n_sensors
    rows = min(n_trials, max(1, _BLOCK_ELEMENTS // n))
    uniforms = np.empty((rows, n))
    normals = np.empty((rows, n))
    ws = _workspace(rows, n)
    errors = [0] * len(configs)
    counts = np.zeros((len(configs), n + 1), dtype=np.int64)
    base_keys = [(c.signal, c.noise_var, c.byz_frac) for c in configs]
    for start in range(0, n_trials, rows):
        m = min(rows, n_trials - start)
        fill(start, uniforms[:m], normals[:m])
        truth = h1[start : start + m]
        if m < rows:
            ws = _workspace(m, n)
        for j, config in enumerate(configs):
            same_base = j > 0 and base_keys[j] == base_keys[j - 1]
            _, _, stop_k, decide_h1, _ = _simulate(
                config, truth, uniforms[:m], normals[:m], ws, base_ready=same_base
            )
            errors[j] += int(np.count_nonzero(decide_h1 != truth))
            counts[j] += np.bincount(stop_k, minlength=n + 1)
    ks = np.arange(n + 1)
    results = []
    for wrong, count in zip(errors, counts):
        mean = float(count @ ks) / n_trials
        se = 0.0
        if n_trials >= 2:
            var = max(float(count @ (ks * ks)) - n_trials * mean * mean, 0.0) / (n_trials - 1)
            se = math.sqrt(var / n_trials)
        results.append((wrong, mean, se))
    return results


def _grouped(
    configs: Sequence[ModelConfig], key: Callable[[ModelConfig], object]
) -> list[tuple[list[int], list[ModelConfig]]]:
    """``configs`` split by ``key`` into (indices, configs) pairs, in order of first appearance."""
    groups: dict[object, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(key(config), []).append(i)
    return [(group, [configs[i] for i in group]) for group in groups.values()]


def run_batch(config: ModelConfig, n_trials: int, seed: int) -> BatchSummary:
    """Simulate ``n_trials`` independent trials with truth ~ Bernoulli(prior_h1).

    Trial i uses stream (seed, i), drawn exactly as :func:`draw_trial`
    draws it; the truth labels come from a stream in the upper half of the
    counter space so they never collide with trial streams.  Trials run in
    blocks of rows through the same kernel as :func:`draw_trial`, and the
    reduction is over exact integer counts, so the summary is a pure
    function of (config, n_trials, seed).
    """
    return run_batches([config], n_trials, seed)[0]


def run_batches(
    configs: Sequence[ModelConfig], n_trials: int, seed: int
) -> list[BatchSummary]:
    """:func:`run_batch` of every config in ``configs``, drawing shared trials once.

    Returns one summary per config, in input order, each equal to
    ``run_batch(config, n_trials, seed)``.  Configs with the same
    ``(n_sensors, prior_h1)`` read the same trial streams and truth labels,
    so each block of trials is drawn once and simulated under every config
    of that group; a config that shares them with no other is a group of
    its own.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    sampler = _StreamSampler(seed)
    # Truth labels live on stream 2^63, the first of the upper half, clear
    # of the per-trial streams (stream < 2^63 for any feasible n_trials).
    truth_uniforms = sampler.at(1 << 63).random(n_trials)
    summaries: dict[int, BatchSummary] = {}
    for group, members in _grouped(configs, lambda c: (c.n_sensors, c.prior_h1)):
        truths = truth_uniforms < members[0].prior_h1
        n_h1 = int(truths.sum())
        counted = _stop_counts(members, truths, sampler.read)
        for i, config, (errors, mean_k, se_k) in zip(group, members, counted):
            pe = errors / n_trials
            pe_se = math.sqrt(pe * (1.0 - pe) / n_trials)
            summaries[i] = BatchSummary(
                config=config,
                n_trials=n_trials,
                n_h1=n_h1,
                pe=EstimateWithError(pe, pe_se, n_trials),
                mean_stop_k=EstimateWithError(mean_k, se_k, n_trials),
                mean_saved=EstimateWithError(config.n_sensors - mean_k, se_k, n_trials),
            )
    return [summaries[i] for i in range(len(configs))]


def expected_transmissions(
    config: ModelConfig, n_samples: int = 100_000, seed: int = 0
) -> EstimateWithError:
    """Monte-Carlo estimate of the expected stop time E[k*].

    Runs ``n_samples`` trials under each hypothesis through the stopping
    kernel of :func:`run_batch`; the estimate is pi0 mean(k*|H0) +
    pi1 mean(k*|H1), with its SE from the stop-time variances.
    Hypothesis h draws from the single stream ``RngSpec(seed, 2^63 + 1 + h)``,
    in blocks of max(1, 16384 // N) rows: a block's uniforms (compromise
    masks), then its normals (noise).  ``run_batch`` uses streams below 2^63
    and the stream at 2^63 for its truth labels, so the two estimates at one
    seed are independent.
    """
    return expected_transmissions_each([config], n_samples, seed)[0]


def expected_transmissions_each(
    configs: Sequence[ModelConfig], n_samples: int = 100_000, seed: int = 0
) -> list[EstimateWithError]:
    """:func:`expected_transmissions` of every config in ``configs``, drawing shared rows once.

    Returns one estimate per config, in input order, each equal to
    ``expected_transmissions(config, n_samples, seed)``.  Configs with the
    same ``n_sensors`` read the same rows of each hypothesis's stream, so
    each block is drawn once and simulated under every config of that group.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    estimates: dict[int, EstimateWithError] = {}
    for group, members in _grouped(configs, lambda c: c.n_sensors):
        per_h = []
        for h in (Hypothesis.H0, Hypothesis.H1):
            gen = RngSpec(seed, (1 << 63) + 1 + int(h)).generator()

            def fill(start: int, uniforms: np.ndarray, normals: np.ndarray) -> None:
                gen.random(out=uniforms)
                gen.standard_normal(out=normals)

            per_h.append(_stop_counts(members, np.full(n_samples, bool(h)), fill))
        for i, config, (_, mean0, se0), (_, mean1, se1) in zip(group, members, *per_h):
            priors = np.array([config.prior_h0, config.prior_h1])
            mean = float(priors @ np.array([mean0, mean1]))
            se = math.sqrt(float(np.sum((priors * np.array([se0, se1])) ** 2)))
            estimates[i] = EstimateWithError(mean, se, n_samples)
    return [estimates[i] for i in range(len(configs))]

