"""Acceptance gate: sixteen numbered criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each test
also asserts its criterion so the suite fails loudly.  Statistical criteria
use pinned seeds and are therefore deterministic; tolerance and sigma rules
are stated inline next to each check.
"""

from __future__ import annotations

import math

import numpy as np

from noisycast.analysis import (
    SeriesResult,
    default_grid,
    fit_power,
    fit_power_of_log,
    fit_reciprocal_log,
    theta_sandwich,
)
from noisycast.belief_model import BeliefModel
from noisycast.channels import ErasureSchedule, FlipSchedule, erasure_level
from noisycast.exact_dp import exact_error_series, martingale_check, scan_error_series
from noisycast.montecarlo import (
    ExperimentConfig,
    estimate_chain_success,
    estimate_error_series,
    herding_stats,
)
from noisycast.presets import Overrides, run_preset
from noisycast.recursions import (
    RecursionSpec,
    iterate_recursion,
    lemma3_sandwich,
    lemma4_classify,
    rate_recursion,
    type1_lower_bound,
)
from noisycast.topology import MemorySchedule, backward_search_depth

MODEL = BeliefModel(0.0)
FULL = MemorySchedule("full")
THREADS = 4


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:02d} {label}: {detail}"
    print(line)
    assert ok, line


def test_c01_public_likelihood_ratio_is_a_martingale():
    report = martingale_check(FlipSchedule("constant", q=0.25), MODEL, k_max=12)
    ok = report.max_deviation < 1e-10
    _verdict(1, "martingale defect", ok, f"max deviation {report.max_deviation:.3e} < 1e-10")


def test_c02_bounded_window_flip_error_stays_positive():
    oks, parts = [], []
    for cap in (1, 3):
        series = exact_error_series(
            MODEL,
            FlipSchedule("constant", q=0.2),
            MemorySchedule("bounded", capacity=cap),
            stages=2000,
        )
        tail_gap = abs(series.value_at(2000) - series.value_at(1000))
        limit = series.value_at(2000)
        oks.append(tail_gap < 1e-6 and limit > 0.005)
        parts.append(f"C={cap}: gap {tail_gap:.2e}, limit {limit:.4f}")
    _verdict(2, "flip window error floor", all(oks), "; ".join(parts))


def test_c03_bounded_window_erasure_error_stays_positive():
    series = exact_error_series(
        MODEL,
        ErasureSchedule("constant", level=0.3),
        MemorySchedule("bounded", capacity=2),
        stages=2000,
    )
    tail_gap = abs(series.value_at(2000) - series.value_at(1000))
    limit = series.value_at(2000)
    ok = tail_gap < 1e-6 and limit > 0.005
    _verdict(3, "erasure window error floor", ok, f"gap {tail_gap:.2e}, limit {limit:.4f}")


def test_c04_full_memory_flip_chain_learns():
    config = ExperimentConfig(
        model=MODEL,
        channel=FlipSchedule("constant", q=0.1),
        memory=FULL,
        stages=2000,
        trials=20_000,
        seed=1101,
        grid=(10, 2000),
    )
    series = estimate_error_series(config, threads=THREADS)
    early, late = series.value_at(10), series.value_at(2000)
    ci_gap = series.extra_at("ci_high", 2000) < series.extra_at("ci_low", 10)
    ok = late < early / 5.0 and ci_gap
    _verdict(
        4,
        "flip-chain learning",
        ok,
        f"pe(10)={early:.4f}, pe(2000)={late:.4f}, disjoint CIs {ci_gap}",
    )


def test_c05_constant_channel_rate_exponents():
    spec = rate_recursion(MODEL, FlipSchedule("constant", q=0.1), initial=0.5)
    series = iterate_recursion(spec, 10**6)
    belief_fit = fit_power(series, k_min=1000)
    bound_fit = fit_power(type1_lower_bound(series, MODEL), k_min=1000)
    ok = abs(belief_fit.slope + 1.0) <= 0.05 and abs(bound_fit.slope + 2.0) <= 0.1
    _verdict(
        5,
        "inverse-k belief decay",
        ok,
        f"belief slope {belief_fit.slope:.4f} (-1 +/- 0.05), "
        f"bound slope {bound_fit.slope:.4f} (-2 +/- 0.1)",
    )


def test_c06_square_root_sandwich():
    spec = RecursionSpec(initial=0.5, exponent=2, delta=0.5)
    sand = lemma3_sandwich(spec, k_min=1000, stages=10**6)
    fit = fit_power(iterate_recursion(spec, 10**6), k_min=1000)
    band = sand.high / sand.low
    ok = band < 2.0 and abs(fit.slope + 0.5) <= 0.02
    _verdict(6, "sandwich band", ok, f"band {band:.4f} < 2, slope {fit.slope:.4f} (-0.5 +/- 0.02)")


def test_c07_limit_dichotomy():
    div = lemma4_classify(
        RecursionSpec(initial=0.5, exponent=1, delta=lambda ks: 1.0 / ks), 10**7, tol=1e-3
    )
    summ = lemma4_classify(
        RecursionSpec(initial=0.5, exponent=1, delta=lambda ks: ks**-1.5), 10**7, tol=1e-3
    )
    ok = div.label == "converges_to_zero" and summ.label == "positive_limit"
    _verdict(
        7,
        "divergent/summable split",
        ok,
        f"1/k -> {div.label}, k^-1.5 -> {summ.label} (estimate {summ.estimate:.4f})",
    )


def test_c08_barely_summable_schedule_plateaus():
    spec = rate_recursion(MODEL, FlipSchedule("log_power", p=2.0), initial=0.3)
    cls = lemma4_classify(spec, 10**7, tol=5e-3)
    ok = cls.label == "positive_limit" and cls.estimate > 0.1 * 0.3
    _verdict(
        8,
        "informativeness 1/(k log^2 k)",
        ok,
        f"label {cls.label}, estimate {cls.estimate:.4f} > 0.03",
    )


def test_c09_slowing_schedule_regimes():
    # (i) polynomial slowdown: belief decays like k**(-(1-p))
    spec_i = rate_recursion(MODEL, FlipSchedule("power", p=0.5), initial=0.3)
    fit_i = fit_power(iterate_recursion(spec_i, 10**6), k_min=1000)
    ok_i = abs(fit_i.slope + 0.5) <= 0.05

    # (ii) 1/k slowdown: reciprocal belief is affine in log k
    spec_ii = rate_recursion(MODEL, FlipSchedule("reciprocal"), initial=0.3)
    fit_ii = fit_reciprocal_log(iterate_recursion(spec_ii, 10**6), "log", k_min=1000)
    ok_ii = fit_ii.r2 > 0.999

    # (iii) 1/(k log^p k): growth of the reciprocal belief follows a power
    # of log k.  The anchor constant 1/b_1 is subtracted before fitting and
    # the exponent is compared against 1 - p: no exponent s with
    # 1/s + 1/p = 1 exists for p = 0.5 inside (0, 1), so 1 - p is the
    # usable comparison target.  The unshifted fit is reported alongside.
    spec_iii = rate_recursion(MODEL, FlipSchedule("log_power", p=0.5), initial=0.3)
    series_iii = iterate_recursion(spec_iii, 10**7)
    growth = SeriesResult(series_iii.stages, 1.0 / series_iii.values - 1.0 / series_iii.values[0])
    fit_iii = fit_power_of_log(growth, k_min=1000)
    raw_iii = fit_power_of_log(
        SeriesResult(series_iii.stages, 1.0 / series_iii.values), k_min=1000
    )
    ok_iii = abs(fit_iii.slope - 0.5) <= 0.07

    # (iv) 1/(k log k): reciprocal belief is affine in log log k
    spec_iv = rate_recursion(MODEL, FlipSchedule("log"), initial=0.3)
    fit_iv = fit_reciprocal_log(iterate_recursion(spec_iv, 10**6), "loglog", k_min=1000)
    ok_iv = fit_iv.r2 > 0.99

    ok = ok_i and ok_ii and ok_iii and ok_iv
    _verdict(
        9,
        "slowing-channel regimes",
        ok,
        f"(i) slope {fit_i.slope:.4f} (-0.5 +/- 0.05); "
        f"(ii) r2 {fit_ii.r2:.6f} > 0.999; "
        f"(iii) exponent {fit_iii.slope:.4f} vs 1-p = 0.5 +/- 0.07, unshifted {raw_iii.slope:.4f}; "
        f"(iv) r2 {fit_iv.r2:.6f} > 0.99",
    )


def test_c10_polynomial_tail_exponents():
    model = BeliefModel(1.0)
    spec = rate_recursion(model, FlipSchedule("constant", q=0.1), initial=0.3)
    series = iterate_recursion(spec, 10**6)
    belief_fit = fit_power(series, k_min=1000)
    bound_fit = fit_power(type1_lower_bound(series, model), k_min=1000)
    ok = abs(belief_fit.slope + 0.5) <= 0.05 and abs(bound_fit.slope + 1.5) <= 0.1
    _verdict(
        10,
        "heavier signal tails",
        ok,
        f"belief slope {belief_fit.slope:.4f} (-0.5 +/- 0.05), "
        f"bound slope {bound_fit.slope:.4f} (-1.5 +/- 0.1)",
    )


def test_c11_backward_search_depths():
    bad = sum(
        1 for k in range(1, 10**6 + 1) if backward_search_depth(FULL, k) != math.isqrt(k - 1)
    )
    grid = default_grid(10**6)

    def depth_series(sigma):
        sched = MemorySchedule("power", sigma=sigma)
        return SeriesResult(grid, np.asarray([backward_search_depth(sched, int(k)) for k in grid], dtype=float))

    lo3, hi3 = theta_sandwich(depth_series(0.3), lambda k: k**0.3, k_min=1000)
    lo7, hi7 = theta_sandwich(depth_series(0.7), lambda k: np.sqrt(k), k_min=1000)
    ok = bad == 0 and hi3 / lo3 < 3.0 and hi7 / lo7 < 3.0
    _verdict(
        11,
        "relay-depth laws",
        ok,
        f"full-memory mismatches {bad}, sigma=0.3 band {hi3 / lo3:.3f} < 3, "
        f"sigma=0.7 band {hi7 / lo7:.3f} < 3",
    )


def test_c12_relay_chain_success_bounds():
    est_a = estimate_chain_success(0.5, 10, 10**5, seed=1104)
    sig_a = math.sqrt(max(est_a.p_hat * (1 - est_a.p_hat), 1e-12) / est_a.trials)
    ok_a = est_a.p_hat >= 0.990 - 3 * sig_a

    level = erasure_level(ErasureSchedule("theorem4", c=1.0, eps=2.0), 10)
    est_b = estimate_chain_success(level, 10, 10**5, seed=1105)
    sig_b = math.sqrt(max(est_b.p_hat * (1 - est_b.p_hat), 1e-12) / est_b.trials)
    ok_b = est_b.p_hat >= 0.904 - 3 * sig_b

    _verdict(
        12,
        "relay chain success",
        ok_a and ok_b,
        f"level 0.5: {est_a.p_hat:.5f} >= {0.990 - 3 * sig_a:.5f}; "
        f"growing level {level:.4f}: {est_b.p_hat:.5f} >= {0.904 - 3 * sig_b:.5f}",
    )


def test_c13_monte_carlo_matches_exact_recursion():
    model = MODEL
    channel = FlipSchedule("constant", q=0.2)
    memory = MemorySchedule("bounded", capacity=1)
    stages, trials = 100, 10**5
    exact = exact_error_series(model, channel, memory, stages)
    config = ExperimentConfig(
        model=model,
        channel=channel,
        memory=memory,
        stages=stages,
        trials=trials,
        seed=1105,
        grid=tuple(range(1, stages + 1)),
    )
    est = estimate_error_series(config, threads=THREADS)
    p0 = exact.extra["p0_type1"]
    p1 = exact.extra["p1_type2"]
    sigma = np.sqrt(0.25 * p0 * (1 - p0) / trials + 0.25 * p1 * (1 - p1) / trials)
    coverage = float((np.abs(est.values - exact.values) <= 3.0 * sigma).mean())
    ok = coverage >= 0.95
    _verdict(13, "simulation vs oracle", ok, f"3-sigma coverage {coverage:.3f} >= 0.95 over {stages} stages")


def test_c14_late_error_contrast():
    def late(channel, stages):
        config = ExperimentConfig(
            model=MODEL,
            channel=channel,
            memory=FULL,
            stages=stages,
            trials=10**4,
            seed=1104,
        )
        return herding_stats(config, k0_fraction=0.5, threads=THREADS).combined_late_fraction

    slowing = FlipSchedule("power", p=0.4)
    slow_half, slow_full = late(slowing, 2500), late(slowing, 5000)
    ok_slow = slow_full >= slow_half - 0.05

    constant = FlipSchedule("constant", q=0.05)
    const_half, const_full = late(constant, 2500), late(constant, 5000)
    ok_const = const_full < const_half

    _verdict(
        14,
        "late-error contrast",
        ok_slow and ok_const,
        f"slowing: {slow_half:.4f} -> {slow_full:.4f} (allowed drop 0.05); "
        f"constant: {const_half:.4f} -> {const_full:.4f} (must drop)",
    )


def test_c15_erasure_chain_learns_with_calibration():
    """Heavy erasure with full memory keeps learning; the exact series of the
    same scan is recorded next to the Monte Carlo fit."""
    channel = ErasureSchedule("constant", level=0.9)
    config = ExperimentConfig(model=MODEL, channel=channel, memory=FULL, stages=2000, trials=20_000, seed=1102)
    series = estimate_error_series(config, threads=THREADS)
    early, late = series.value_at(10), series.value_at(2000)
    ci_gap = series.extra_at("ci_high", 2000) < series.extra_at("ci_low", 10)
    fit = fit_power(series, k_min=100)  # reported, no threshold
    exact, _ = scan_error_series(MODEL, channel, FULL, 2000)
    exact_fit = fit_power(exact, k_min=100)  # reported, no threshold
    ok = late < early and ci_gap
    _verdict(
        15,
        "heavy-erasure learning",
        ok,
        f"pe(10)={early:.4f} -> pe(2000)={late:.4f}, disjoint CIs {ci_gap}, "
        f"decay exponent (informational) {fit.slope:.3f}; "
        f"exact pe(2000)={exact.value_at(2000):.5f}, exact exponent {exact_fit.slope:.3f}",
    )


def test_c16_byte_identical_reruns(tmp_path):
    a = run_preset("thm_flip_bounded", tmp_path / "a", Overrides())
    b = run_preset("thm_flip_bounded", tmp_path / "b", Overrides())
    same_exact = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("series_c1.csv", "series_c3.csv")
    )
    c = run_preset("mc_vs_exact", tmp_path / "c", Overrides(threads=1))
    d = run_preset("mc_vs_exact", tmp_path / "d", Overrides(threads=4))
    same_mc = (tmp_path / "c" / "series.csv").read_bytes() == (
        tmp_path / "d" / "series.csv"
    ).read_bytes()
    ok = same_exact and same_mc and a["passed"] and b["passed"] and c["passed"] and d["passed"]
    _verdict(
        16,
        "deterministic artifacts",
        ok,
        f"window-chain rerun identical {same_exact}, "
        f"simulation thread counts 1 vs 4 identical {same_mc}",
    )
