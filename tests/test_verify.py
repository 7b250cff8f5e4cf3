"""Fault matrix for ``verify``: each planted fault fails exactly its pinned checks.

Each fault is a small patch of one package function, applied by
monkeypatching the name its caller looks up. The exact engine's caches are
cleared before and after, so no value computed without the fault hides it
and none computed with it outlives the test.
"""

from fractions import Fraction

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


def _no_arm_choice_weight(mp):
    # the experimental and no-arm stages (P, p, p) become (P, P, p)
    original = exact.stage_weights

    def faulty(p, P, arm):
        first, choice, final = original(p, P, arm)
        return (first, choice, final) if arm == "control" else (first, first, final)

    mp.setattr(exact, "stage_weights", faulty)


def _negated_spread(mp):
    original = core.spread
    mp.setattr(core, "spread", lambda rank1, choice, rank3: -original(rank1, choice, rank3))


def _neighbor_bonus(mp):
    # one more on consistent choices between neighboring positions
    original = core.spread_simplified

    def faulty(pair, s2, s3):
        return original(pair, s2, s3) + (s2[0] < s2[1] and pair.j - pair.i == 1)

    mp.setattr(core, "spread_simplified", faulty)


def _flipped_cons(mp):
    original = exact._base_vectors

    def faulty(n, is_exact):
        cons, gap = original(n, is_exact)
        return 1 - cons, gap

    mp.setattr(exact, "_base_vectors", faulty)


def _rotated_table(mp):
    # every pair takes the value of the pair after it
    original = exact._table

    def faulty(kernel, n, p, is_exact):
        table = original(kernel, n, p, is_exact)
        pairs, values = list(table.values), list(table.values.values())
        rotated = dict(zip(pairs, values[1:] + values[:1]))
        return exact.ExpectedSpreadTable(n=n, p=p, values=rotated, exact=is_exact)

    mp.setattr(exact, "_table", faulty)


def _scaled_stencil_entry(mp):
    # the slot of held float factors starts empty, and the faulty factors
    # it takes are dropped when the slot is restored
    original = noise._stencil

    def faulty(n):
        rows, cols, counts, entries = original(n)
        entries = entries.copy()
        entries[0] *= 1 + 1e-6
        return rows, cols, counts, entries

    mp.setattr(noise, "_factors", None)
    mp.setattr(noise, "_stencil", faulty)


def _scaled_sector_solve(mp):
    original = noise._sector_solve

    def faulty(n, p, v):
        out = original(n, p, v)
        out[0] *= 1 + Fraction(1, 10**9)
        return out

    mp.setattr(noise, "_sector_solve", faulty)


def _scaled_g2(mp):
    original = exact._conditional_kernel

    def faulty(n, p, is_exact):
        cw1, cw2, g2 = original(n, p, is_exact)
        return cw1, cw2, g2 * (1 + 1e-6)

    mp.setattr(exact, "_conditional_kernel", faulty)


def _negated_pair_spread(mp):
    original = exact._pair_spread
    mp.setattr(exact, "_pair_spread", lambda *args: -original(*args))


def _oracle_drops_last_pair(mp):
    # e2 and e3 average over every position pair but the last
    original = exact.expected_spread_oracle

    def faulty(dist, design, *, object_pair=None):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(exact, "all_position_pairs", lambda n: core.all_position_pairs(n)[:-1])
            return original(dist, design, object_pair=object_pair)

    for module in (exact, verify):
        mp.setattr(module, "expected_spread_oracle", faulty)


def _mix_ignores_uniform_limit(mp):
    # at p = 1 the input comes back, as at p = 0
    original = noise.mix_apply

    def faulty(n, p, vectors, exact=False):
        return original(n, 0 if p == 1 else p, vectors, exact=exact)

    for module in (noise, exact):
        mp.setattr(module, "mix_apply", faulty)


def _stretched_swap_law(mp):
    original = exact._swap_distribution
    mp.setattr(exact, "_swap_distribution", lambda n, p: original(n, p * 1.001))


def _scaled_build_m(mp):
    original = noise.build_M

    def faulty(n, p, exact=False):
        return original(n, p, exact=exact) * (1 + 1e-6)

    for module in (noise, exact, verify):
        mp.setattr(module, "build_M", faulty)


def _unsigned_small_negatives(mp):
    # "-0.00x" loses its sign
    original = exact.round_half_away

    def faulty(value):
        text = original(value)
        return text[1:] if text.startswith("-0.00") else text

    for module in (exact, verify):
        mp.setattr(module, "round_half_away", faulty)


# The fault matrix, one small patch of one package function each, with the
# checks it fails at level full; at level quick it fails their quick part.
# The first eight: w2 of _choice_bias scaled by 1 + 1e-7, cw2 of
# _conditional_kernel scaled by 1 + 1e-6, one gap entry + 1, the float
# mix_apply weight scaled by 1 - 1e-6, round_half_away replaced by round,
# spread_simplified's sign flipped on reversals, 1e-6 moved between two
# rankings of the swap law, and the control arm's stage weights swapped.
FAULTS = {
    "choice-bias-w2": (_scaled_w2, {"factored-vs-enumeration", "zero-sum", "exact-backend",
        "brute-force"}),
    "conditional-cw2": (_scaled_cw2, {"conditional"}),
    "gap-entry": (_shifted_gap, {"factored-vs-enumeration", "zero-sum", "reversal-symmetry",
        "uniform-limit", "reference-table", "conditional", "exact-backend", "brute-force"}),
    "mix-weight": (_scaled_mix_weight, {"mix-closed-form", "uniform-limit", "conditional",
        "brute-force", "lumping"}),
    "plain-round": (_plain_round, {"display-rounding"}),
    "reversal-sign": (_reversal_sign, {"definition-glue", "factored-vs-enumeration"}),
    "swap-law-mass": (_moved_swap_mass, {"brute-force", "lumping"}),
    "control-arm-weights": (_control_weights_swapped, {"factored-vs-enumeration", "brute-force"}),
    "no-arm-choice-weight": (_no_arm_choice_weight, {"factored-vs-enumeration", "uniform-limit",
        "brute-force"}),
    "negated-spread": (_negated_spread, {"definition-glue"}),
    "neighbor-bonus": (_neighbor_bonus, {"definition-glue", "factored-vs-enumeration"}),
    "flipped-cons": (_flipped_cons, {"factored-vs-enumeration", "uniform-limit", "reference-table",
        "conditional", "exact-backend", "brute-force"}),
    "rotated-table": (_rotated_table, {"reversal-symmetry", "reference-table", "exact-backend",
        "brute-force"}),
    "stencil-entry": (_scaled_stencil_entry, {"mix-closed-form", "factored-vs-enumeration",
        "zero-sum", "reversal-symmetry", "conditional", "brute-force", "lumping"}),
    "sector-solve": (_scaled_sector_solve, {"exact-backend"}),
    "conditional-g2": (_scaled_g2, {"conditional"}),
    "negated-pair-spread": (_negated_pair_spread, {"brute-force"}),
    "oracle-last-pair": (_oracle_drops_last_pair, {"design-oracle", "random-distributions"}),
    "uniform-limit-input": (_mix_ignores_uniform_limit, {"uniform-limit"}),
    "swap-law-weight": (_stretched_swap_law, {"brute-force", "lumping"}),
    "scaled-build-m": (_scaled_build_m, {"mix-closed-form", "factored-vs-enumeration", "lumping"}),
    "small-negative-sign": (_unsigned_small_negatives, {"reference-table", "display-rounding",
        "exact-backend"}),
}


def _clear_exact_caches():
    for value in vars(exact).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.mark.parametrize("fault, pinned", FAULTS.values(), ids=FAULTS.keys())
def test_full_verify_catches_fault(fault, pinned):
    # the pinned checks fail at level full, and their quick part at quick
    results = {}
    for level in verify.LEVELS:
        _clear_exact_caches()
        try:
            with pytest.MonkeyPatch.context() as mp:
                fault(mp)
                results[level] = verify.run_checks(level)
        finally:
            _clear_exact_caches()
    failed = {level: {r.name for r in checks if not r.passed} for level, checks in results.items()}
    assert failed["full"] == pinned
    assert failed["quick"] == pinned & {r.name for r in results["quick"]}
