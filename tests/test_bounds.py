import hashlib
import json

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import copsrobbers.bounds
from copsrobbers.bounds import (
    bound_params,
    check_eq1_chain,
    trivial_margin_log,
    trivial_region_boundary,
)

from oracles import boundary_bisection_oracle


def mid(x):
    return (mpmath.mpf(x.a) + mpmath.mpf(x.b)) / 2


def test_params_exact_at_l1024():
    p = bound_params(1024)
    for name, want in (
        ("t", 2), ("p_log", -12), ("diameter_threshold_log", 2),
        ("lambda_log", 32), ("log2_L", 10), ("sqrt_L", 32), ("f_log", 1023),
    ):
        assert p.is_exact(name), name
        assert mid(getattr(p, name)) == want, name


def test_params_at_general_l():
    p = bound_params(1600)
    assert abs(mid(p.t) - (40 - 3 * mpmath.log(1600, 2))) < 1e-40
    with pytest.raises(ValueError):
        bound_params(0)
    with pytest.raises(ValueError):
        bound_params(-3)


def test_trivial_margin_signs():
    # 2 L^3 2^{-sqrt L} crosses 1 between 900 and 1024
    assert mpmath.mpf(trivial_margin_log(900).a) > 0
    assert mpmath.mpf(trivial_margin_log(1024).b) < 0


def test_boundary_bracketed_to_tolerance():
    b = trivial_region_boundary(tol=1e-6)
    assert 900 < b.low < b.high < 1024
    assert b.high - b.low <= 1e-6
    # the margin really changes sign across the bracket
    assert mpmath.mpf(trivial_margin_log(b.low - 1).a) > 0
    assert mpmath.mpf(trivial_margin_log(b.high + 1).b) < 0


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_boundary_rejects_tolerance_not_positive_and_finite(tol):
    # -1 used to return an inverted bracket and nan the unrefined [2, 4096]
    with pytest.raises(ValueError):
        trivial_region_boundary(tol=tol)


def _same_bracket(got, want):
    # mpf equality: every one of the 192 bits
    return got.low == want.low and got.high == want.high


@pytest.mark.parametrize("tol", [0.5, 1e-3, 1e-6, 3e-7, 1e-9, 1e-12, 1e-15, 1e-20, 1e-30,
                                 1e-54])
def test_boundary_matches_interval_bisection(tol):
    assert _same_bracket(trivial_region_boundary(tol), boundary_bisection_oracle(tol))


def test_boundary_keeps_two_ends_just_above_its_resolution():
    # 1e-54 stops at a midpoint interval evaluation cannot sign; tol/4 to
    # each side is still more than half an ulp of L* at 192 bits
    b = trivial_region_boundary(1e-54)
    assert b.low < b.high
    assert b.high - b.low <= 1e-54


@pytest.mark.parametrize("tol", [3e-55, 1e-55, 1e-60])
def test_boundary_rejects_a_tolerance_below_its_resolution(tol):
    # the midpoint shrunk by tol/4 to each side rounds back onto itself, so
    # the bracket would be one point: low == high
    assert boundary_bisection_oracle(tol).low == boundary_bisection_oracle(tol).high
    with pytest.raises(ValueError, match="below the 192-bit resolution"):
        trivial_region_boundary(tol)


@seed(2025)
@settings(max_examples=60, deadline=None)
@given(st.floats(-40, 3))
def test_boundary_matches_interval_bisection_at_drawn_tolerances(log_tol):
    tol = 10.0 ** log_tol
    assert _same_bracket(trivial_region_boundary(tol), boundary_bisection_oracle(tol))


def test_boundary_screens_most_midpoints_in_float(monkeypatch):
    calls = []
    margin = copsrobbers.bounds.trivial_margin_log

    def counting_margin(x):
        calls.append(x)
        return margin(x)

    monkeypatch.setattr(copsrobbers.bounds, "trivial_margin_log", counting_margin)
    trivial_region_boundary(1e-6)
    # the interval-only bisection makes 34 evaluations here
    assert len(calls) <= 6


@pytest.mark.parametrize("tol", [0.5, 1e-6, 1e-30])
def test_boundary_falls_back_when_the_float_screen_lies(monkeypatch, tol):
    # the screen's first midpoint is 2049, far above L*; its sign flipped
    # sends the bisection up the wrong side, and only the interval re-sign of
    # the bracket's float-signed endpoints notices
    margin = copsrobbers.bounds._float_margin
    calls = []

    def lying_margin(x):
        calls.append(x)
        m = margin(x)
        return -m if len(calls) == 1 else m

    monkeypatch.setattr(copsrobbers.bounds, "_float_margin", lying_margin)
    want = boundary_bisection_oracle(tol)
    raw, _ = copsrobbers.bounds._bisect(mpmath.mpf(2), mpmath.mpf(4096), tol, screen=True)
    assert not _same_bracket(raw, want)
    calls.clear()
    assert _same_bracket(trivial_region_boundary(tol), want)


def test_chain_holds_at_threshold_sweep():
    for L in (1100, 1600, 2000, 10**4, 10**6):
        r = check_eq1_chain(L)
        assert not r.out_of_regime
        for s in r.steps:
            assert s.holds, (L, s.name)
        assert r.end_to_end.holds and r.end_to_end.slack_lo > 0, L
        assert r.step("final_margin").slack_lo > 0


def test_chain_degenerate_d_zero():
    r = check_eq1_chain(1600, float("-inf"))
    # substitution steps collapse to equalities: f(n) <= f(n) etc.
    assert r.step("shrink_logcube").holds and r.step("shrink_logcube").slack_lo == 0
    assert r.step("log_shift").slack_lo == 0
    assert r.step("sqrt_shift").slack_lo == 0
    # the -2 absorption needs D > 0
    assert r.step("absorb_two").holds is False
    # the only remaining margin is "-2 versus -1"
    fm = r.step("final_margin")
    assert fm.holds and fm.slack_lo == 1 == fm.slack_hi
    assert r.end_to_end.holds is False


@pytest.mark.parametrize("L, D_log, match", [
    # the series envelopes need D/n < 1/2, so D = n/2 is refused
    (1600, 1599.0, "D/n may reach 0.5, not below 1/2"),
    # at the threshold, D/n grows to 1 as L falls to 1
    (1, None, "D/n may reach 1.0, not below 1/2"),
    (1.5, None, "1 - 2\\^-delta may be as low as"),
    (1, -0.05, "log2\\(n - D\\) may be as low as"),
], ids=["d-half-n", "L1-threshold", "L1.5-threshold", "log-n-minus-d-below-0"])
def test_chain_rejects_envelope_out_of_range(L, D_log, match):
    with pytest.raises(ValueError, match="series envelope invalid: " + match):
        check_eq1_chain(L, D_log)


def test_chain_flags_out_of_regime():
    assert check_eq1_chain(100).out_of_regime
    # D above the threshold is reported, not a fault
    r = check_eq1_chain(1600, D_log=50.0)
    assert r.out_of_regime


def test_chain_premise_d_small():
    r = check_eq1_chain(1600)
    s = r.step("d_small")
    assert s.holds and s.slack_lo > 900  # threshold_log ~ 8, L - 20 = 1580


def test_report_serializes():
    doc = check_eq1_chain(1100).to_dict()
    assert doc["at_threshold"] is True
    assert {s["name"] for s in doc["steps"]} >= {
        "shrink_logcube", "absorb_two", "d_small", "log_shift",
        "sqrt_shift", "exp_linearize", "assemble", "final_margin",
    }


def test_rigorous_directed_rounding():
    # slack bounds are genuine two-sided interval enclosures
    r = check_eq1_chain(2000)
    for s in r.steps:
        assert s.slack_lo <= s.slack_hi
    e = r.end_to_end
    assert e.slack_lo <= e.slack_hi


@pytest.mark.parametrize("L", [
    413, 1023.25, 4097, 12345.678, 99991, 2**19 + 3, 314159.2653,
])
def test_chain_holds_at_irregular_scales(L):
    # nothing about the verification depends on round powers of two
    r = check_eq1_chain(L)
    assert not r.out_of_regime
    for s in r.steps:
        assert s.holds, (L, s.name)
    assert r.end_to_end.holds


# SHA-256 of the canonical JSON of `check_eq1_chain(L, D_log).to_dict()` over
# L in CHAIN_PIN_SCALES, one digest per D_log, taken when D = 0 was still its
# own code path.  Any edit to a step's note, holds or slack changes a digest.
CHAIN_PIN_SCALES = (413, 1024, 1600, 99991, 10**6)
PINNED_CHAIN_SHA256 = {
    None: "08ad9c8b46218fd9614239c00a6efcc9311f7b04f8a50f046f402ad2ed08a196",
    float("-inf"): "7f11eff70cb2957539226eff87109cb5e656914f02c769ce0eb88feb62b7c3c3",
    -5.0: "3bcda498b09ebe07ca62e05c0c6f9f45d23edfeb3b679297cce1da7dc413aff0",
    5.0: "4a5f83a5ff56be04bfd4cb860f4aac5208deeac74af8d7eb0af38b054c327ae8",
    50.0: "bef40142f06a0968e20bec89f49277d7d07d958c3d429a2d5cb3ba7a93380b1a",
}


@pytest.mark.parametrize("d_log", list(PINNED_CHAIN_SHA256))
def test_chain_report_pinned(d_log):
    docs = [check_eq1_chain(L, d_log).to_dict() for L in CHAIN_PIN_SCALES]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CHAIN_SHA256[d_log]
