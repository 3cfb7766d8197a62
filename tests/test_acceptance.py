"""Acceptance gate: sixteen numbered criteria, each asserted through the
verdicts of the named presets that state it.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per verdict check.  Every threshold, seed and trial count lives in the
preset registry; this module only names which presets carry which
criterion and pins the sha256 of every CSV each one writes at its defaults,
so a change to any preset output shows up here.
"""

from __future__ import annotations

import hashlib

from noisycast.presets import Overrides, list_presets, run_preset

THREADS = 4

# criterion -> preset -> CSV file -> sha256 of its bytes at the preset defaults
CRITERIA = {
    1: {  # the noisy public likelihood ratio is a martingale
        "lemma1_martingale": {"series.csv": "b1db9d7236dd7536e5e3644cc41e7c083a63d60046f66a82649ad4083f20af39"},
    },
    2: {  # bounded window over flips: the error stays above a floor
        "thm_flip_bounded": {
            "series_c1.csv": "5c97e4124a9e2ed1ecea0ecfebcdb44bd81bf45784b40baa31b92f72cd3546e5",
            "series_c3.csv": "42a36def1182815518593c538ea90b50138966b7792343235f8e68651b1a0e9f",
        },
    },
    3: {  # bounded window over erasures: the error stays above a floor
        "thm_erasure_bounded": {"series.csv": "3e1038c246c52798e7587cb13eed2d9f302fc2aa030e26b05bdb2d15109bfeec"},
    },
    4: {  # full memory over flips learns
        "thm_flip_learning": {"series.csv": "17620a656fa71ff3bb2960ec80d46eecf54058b18e08101bff883f0c0e99151a"},
    },
    5: {  # constant channel: belief like 1/k, bound like 1/k**2
        "thm_rate_k2": {"series.csv": "b5081f24d8327764c1a51b08228a9113be0703dffb809c1904812479eb709446"},
    },
    6: {  # constant-delta recursions stay in tight sandwich bands
        "lemma3_n1": {"series.csv": "89decf97afa84f0e5223d2c447857612ef6bcdd4d061192ce27aaeda8b4a127c"},
        "lemma3_n2": {"series.csv": "0940d572f68d5f0dd3aee5731f8455169f9b4a55375defcac77037f5e5babddf"},
    },
    7: {  # divergent delta sums go to zero, summable ones do not
        "lemma4_div": {"series.csv": "a982b19f343746a00a43d9aa3ac6d8b8af28a26ff93021a561f59a69b112bd04"},
        "lemma4_sum": {"series.csv": "437c322a098301008951c67dc6cea40c5d5c3a72d0b286f1f17ecdd21ec334d1"},
    },
    8: {  # informativeness 1/(k log**2 k) leaves a plateau
        "thm7_plateau": {"series.csv": "1b5deb6555f42aaaa4cc48ee27003652fb837437747d686b51657c0693305fd1"},
    },
    9: {  # the four slowing-channel regimes
        "thm8_i": {"series.csv": "24e13441229377477792262a9508ec9100d36da83d6d1d54b3f784abc61fe5e9"},
        "thm8_ii": {"series.csv": "947024cd16bd300d922b73bf227b17248d03c1e33a97795de9df43d57011e656"},
        "thm8_iii": {"series.csv": "3c3af4454270855a96b0088c90c1ad4222b5e222f339fbd1b6ac453a619779e8"},
        "thm8_iv": {"series.csv": "eeb853b72444fb568985465fbb964c53ee93af048d3ad4752a5705b0487a3c71"},
    },
    10: {  # heavier signal tails: belief like 1/sqrt(k), bound like k**-1.5
        "thm10_poly": {"series.csv": "3977948e43cfdf35ae5196af21dbc38d6756c69cc544118c736c6766fac19e48"},
    },
    11: {  # relay-depth laws
        "prop1_full": {"series.csv": "3b792eb21ef912bf17103cc89178cc47acf6ea8080a83a1a21ed67e69091d986"},
        "prop1_sigma03": {"series.csv": "a04c8bf3d4a395a51cb40edb255bbe7e93b2a72bcd36367f1e5590b346377149"},
        "prop1_sigma05": {"series.csv": "c765890d094b5cd17fbbe6cd0160d6897b4c709c8c1153b0aedb082efb0a0da4"},
    },
    12: {  # over erasure levels that climb to one the exact scan error keeps falling
        "thm_erasure_to_one": {"series.csv": "b1b566e43d4a15f8590d3db747444ba4da0c7379842445b2bfaddade6fa733db"},
    },
    13: {  # Monte Carlo agrees with the exact window recursion
        "mc_vs_exact": {
            "series.csv": "a86ab3bf5db29d72fd7c61046a559f5dd0a472f90404a76d305b06b9e38e66ef",
            "exact.csv": "1f8f920e8410cd8b9ff97e896568567733875e76ec4ee582f21f4041a2ca1ab7",
        },
    },
    14: {  # late errors persist under slowing flips, vanish under constant ones
        "thm9_herding": {"series.csv": "5af8ac2613c4085df58eee95d7a59751d68dcbae638b35b854e75bf648ceec08"},
    },
    15: {  # full memory keeps learning through heavy erasure
        "thm_erasure_unbounded": {"series.csv": "cbef51a1e3b3778f9fac07183022b3468ad1082537db736fbba1d02cabb86e35"},
    },
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_presets(label: str, presets: dict, tmp_path, threads: int = THREADS) -> None:
    failed = []
    for name, pinned in presets.items():
        out = tmp_path / name
        verdict = run_preset(name, out, Overrides(threads=threads))
        for chk in verdict["checks"]:
            tag = "info" if chk["informational"] else ("PASS" if chk["passed"] else "FAIL")
            print(f"[{tag}] {label} {name}.{chk['name']}: {chk['value']} (target {chk['comparator']} {chk['target']})")
        digests = {f: _sha256(out / f) for f in verdict["files"]}
        if not verdict["passed"]:
            failed.append(f"{name}: verdict failed")
        if digests != pinned:
            failed.append(f"{name}: CSV digests {digests} != pinned {pinned}")
    assert not failed, failed


def _assert_criterion(num: int, tmp_path) -> None:
    _assert_presets(f"criterion {num:02d}", CRITERIA[num], tmp_path)


def test_every_preset_is_asserted_by_one_criterion():
    named = [name for presets in CRITERIA.values() for name in presets]
    assert sorted(named) == list_presets()


def test_c01_public_likelihood_ratio_is_a_martingale(tmp_path):
    _assert_criterion(1, tmp_path)


def test_c02_bounded_window_flip_error_stays_positive(tmp_path):
    _assert_criterion(2, tmp_path)


def test_c03_bounded_window_erasure_error_stays_positive(tmp_path):
    _assert_criterion(3, tmp_path)


def test_c04_full_memory_flip_chain_learns(tmp_path):
    _assert_criterion(4, tmp_path)


def test_c05_constant_channel_rate_exponents(tmp_path):
    _assert_criterion(5, tmp_path)


def test_c06_square_root_sandwich(tmp_path):
    _assert_criterion(6, tmp_path)


def test_c07_limit_dichotomy(tmp_path):
    _assert_criterion(7, tmp_path)


def test_c08_barely_summable_schedule_plateaus(tmp_path):
    _assert_criterion(8, tmp_path)


def test_c09_slowing_schedule_regimes(tmp_path):
    _assert_criterion(9, tmp_path)


def test_c10_polynomial_tail_exponents(tmp_path):
    _assert_criterion(10, tmp_path)


def test_c11_backward_search_depths(tmp_path):
    _assert_criterion(11, tmp_path)


def test_c12_relay_chain_success_bounds(tmp_path):
    _assert_criterion(12, tmp_path)


def test_c13_monte_carlo_matches_exact_recursion(tmp_path):
    _assert_criterion(13, tmp_path)


def test_c14_late_error_contrast(tmp_path):
    _assert_criterion(14, tmp_path)


def test_c15_erasure_chain_learns_with_calibration(tmp_path):
    _assert_criterion(15, tmp_path)


def test_c16_byte_identical_reruns(tmp_path):
    """Reruns on one thread write the bytes that criteria 02 and 13 pin for
    four threads: an exact window chain and a Monte Carlo run."""
    _assert_presets("criterion 16", {**CRITERIA[2], **CRITERIA[13]}, tmp_path, threads=1)
