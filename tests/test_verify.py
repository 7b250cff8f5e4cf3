"""Fault matrix for ``verify``: each planted fault fails at least one check.

Each fault is a small patch of one package function, applied by
monkeypatching the name its caller looks up. The exact engine's caches are
cleared before and after, so no value computed without the fault hides it
and none computed with it outlives the test.
"""

import pytest

from freechoice import core, exact, noise, verify


def _scaled_w2(mp):
    original = exact._choice_bias

    def faulty(n, first, choice, is_exact):
        bias, w2 = original(n, first, choice, is_exact)
        return bias, w2 * (1 + 1e-7)

    mp.setattr(exact, "_choice_bias", faulty)


def _scaled_cw2(mp):
    original = exact._conditional_kernel

    def faulty(n, p, is_exact):
        cw1, cw2, g2 = original(n, p, is_exact)
        return cw1, cw2 * (1 + 1e-6), g2

    mp.setattr(exact, "_conditional_kernel", faulty)


def _shifted_gap(mp):
    original = exact._base_vectors

    def faulty(n, is_exact):
        cons, gap = original(n, is_exact)
        gap = gap.copy()
        gap[0] += 1
        return cons, gap

    mp.setattr(exact, "_base_vectors", faulty)


def _scaled_mix_weight(mp):
    original = noise.mix_apply

    def faulty(n, p, vectors, exact=False):
        return original(n, p if exact else p * (1 - 1e-6), vectors, exact=exact)

    for module in (noise, exact):
        mp.setattr(module, "mix_apply", faulty)


def _plain_round(mp):
    for module in (verify, exact):
        mp.setattr(module, "round_half_away", lambda value: f"{round(float(value), 3):.3f}")


def _reversal_sign(mp):
    original = core.spread_simplified

    def faulty(pair, s2, s3):
        value = original(pair, s2, s3)
        return value if s2[0] < s2[1] else -value

    mp.setattr(core, "spread_simplified", faulty)


def _moved_swap_mass(mp):
    original = exact._swap_distribution

    def faulty(n, p):
        perms, probs = original(n, p)
        probs = probs.copy()
        probs[0] -= 1e-6
        probs[1] += 1e-6
        return perms, probs

    mp.setattr(exact, "_swap_distribution", faulty)


def _control_weights_swapped(mp):
    # the control arm's (P, p, P) becomes (P, P, p)
    original = exact.stage_weights

    def faulty(p, P, arm):
        first, choice, final = original(p, P, arm)
        return (first, final, choice) if arm == "control" else (first, choice, final)

    mp.setattr(exact, "stage_weights", faulty)


# the fault matrix: w2 of _choice_bias scaled by 1 + 1e-7, cw2 of
# _conditional_kernel scaled by 1 + 1e-6, one gap entry + 1, the float
# mix_apply weight scaled by 1 - 1e-6, round_half_away replaced by round,
# spread_simplified's sign flipped on reversals, 1e-6 moved between two
# rankings of the swap law, and the control arm's stage weights swapped
FAULTS = {
    "choice-bias-w2": _scaled_w2,
    "conditional-cw2": _scaled_cw2,
    "gap-entry": _shifted_gap,
    "mix-weight": _scaled_mix_weight,
    "plain-round": _plain_round,
    "reversal-sign": _reversal_sign,
    "swap-law-mass": _moved_swap_mass,
    "control-arm-weights": _control_weights_swapped,
}


def _clear_exact_caches():
    for value in vars(exact).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
def test_full_verify_catches_fault(fault):
    _clear_exact_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            fault(mp)
            failed = [result.name for result in verify.run_checks("full") if not result.passed]
    finally:
        _clear_exact_caches()
    assert failed
