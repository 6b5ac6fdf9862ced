import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from structrl.cli import DEFAULTS
from structrl.grpo import (
    TokenLogProbs,
    clipped_term,
    group_advantages,
    kl_term,
    mean,
    objective,
    write_training_signals,
)


def group_record(rewards, logprobs, query_id="q"):
    """A group record as ``rollouts.jsonl`` holds it, reduced to what scoring
    reads; a logprobs entry of None is a pair without log-probs."""
    return {
        "query": {"id": query_id},
        "pairs": [
            {
                "breakdown": {"total": reward},
                "logprobs": (
                    None if lp is None
                    else {"policy": list(lp[0]), "reference": list(lp[1]), "behavior": list(lp[2])}
                ),
            }
            for reward, lp in zip(rewards, logprobs)
        ],
    }


def brute_force_objective(groups, epsilon, beta):
    """Direct loop over the per-sample surrogate, written independently of
    the library: flat mean over every sample of
    min(ratio*A, clip(ratio)*A) - beta * mean_t(exp(r_t) - r_t - 1)."""
    terms = []
    for rewards, logprob_list in groups:
        mu = sum(rewards) / len(rewards)
        for reward, lp in zip(rewards, logprob_list):
            policy, reference, behavior = lp
            adv = reward - mu
            if policy:
                log_ratio = sum(p - b for p, b in zip(policy, behavior)) / len(policy)
            else:
                log_ratio = 0.0
            ratio = math.exp(log_ratio)
            if ratio < 1 - epsilon:
                clipped_ratio = 1 - epsilon
            elif ratio > 1 + epsilon:
                clipped_ratio = 1 + epsilon
            else:
                clipped_ratio = ratio
            surrogate = min(ratio * adv, clipped_ratio * adv)
            if policy:
                kls = [
                    math.exp(refv - pv) - (refv - pv) - 1
                    for pv, refv in zip(policy, reference)
                ]
                kl = sum(kls) / len(kls)
            else:
                kl = 0.0
            terms.append(surrogate - beta * kl)
    return sum(terms) / len(terms)


def random_logprobs(rng, n_tokens):
    policy = tuple(float(x) for x in -rng.uniform(0.01, 3.0, n_tokens))
    reference = tuple(float(x) for x in -rng.uniform(0.01, 3.0, n_tokens))
    behavior = tuple(float(x) for x in -rng.uniform(0.01, 3.0, n_tokens))
    return policy, reference, behavior


SIGNAL_KEYS = ["query_id", "sample_index", "reward", "advantage", "ratio", "clipped_term", "kl_term"]


def test_mean_sums_left_to_right():
    """Every reported mean rounds the same on every Python: a compensated
    sum(), as Python >= 3.12 has, keeps the 1.0 and would give 1/3."""
    assert mean([1e16, 1.0, -1e16]) == 0.0


class TestAdvantages:
    def test_hand_example(self):
        adv = group_advantages((1.2, 0.0, 1.0, 0.0)).advantages
        assert adv == pytest.approx((0.65, -0.55, 0.45, -0.55))

    def test_equal_rewards_center_to_zero(self):
        adv = group_advantages((0.7, 0.7, 0.7)).advantages
        assert adv == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        # dyadic rewards have an exact mean, so centering is exact too
        assert group_advantages([0.5, 0.5]).advantages == (0.0, 0.0)

    def test_singleton_group(self):
        assert group_advantages((0.7,)).advantages == (0.0,)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="reward group needs at least one sample"):
            group_advantages(())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_reward_that_is_not_finite_rejected(self, value):
        with pytest.raises(ValueError, match="rewards must be finite"):
            group_advantages([1.0, value])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_sum_is_zero(self, rewards):
        adv = group_advantages(rewards).advantages
        assert abs(sum(adv)) <= 1e-12 * len(rewards)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8), st.floats(-5, 5))
    def test_reward_shift_invariance(self, rewards, shift):
        base = group_advantages(rewards).advantages
        shifted = group_advantages([r + shift for r in rewards]).advantages
        assert base == pytest.approx(shifted, abs=1e-9)


class TestClippedTerm:
    def test_high_ratio_positive_advantage(self):
        assert clipped_term(1.5, 1.0, 0.2) == 1.2

    def test_low_ratio_negative_advantage(self):
        assert clipped_term(0.5, -1.0, 0.2) == -0.8

    def test_identity_ratio_never_clips(self):
        for adv in (-2.0, 0.0, 3.5):
            assert clipped_term(1.0, adv, 0.2) == adv

    def test_non_positive_ratio_rejected(self):
        with pytest.raises(ValueError, match="importance ratio must be positive, got 0.0"):
            clipped_term(0.0, 1.0, 0.2)
        with pytest.raises(ValueError, match="importance ratio must be positive, got -1.0"):
            clipped_term(-1.0, 1.0, 0.2)

    @given(
        st.floats(0.01, 5.0),
        st.floats(-3, 3),
        st.floats(0.01, 0.9),
    )
    def test_min_structure(self, ratio, adv, eps):
        value = clipped_term(ratio, adv, eps)
        assert value <= ratio * adv + 1e-12
        bound = max(abs((1 - eps) * adv), abs((1 + eps) * adv), abs(ratio * adv))
        assert abs(value) <= bound + 1e-12


class TestKL:
    def test_identical_vectors_are_zero(self):
        vec = (-0.5, -1.2, -0.01)
        assert kl_term(vec, vec) == 0.0

    def test_single_token_hand_value(self):
        assert kl_term([-2.0], [-1.0]) == pytest.approx(math.e - 2.0)

    def test_empty_sequences_are_zero(self):
        assert kl_term((), ()) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must align token-for-token"):
            TokenLogProbs((-1.0,), (-1.0, -2.0), (-1.0,))

    @given(st.lists(st.tuples(st.floats(-8, 0), st.floats(-8, 0)), min_size=1, max_size=20))
    # exp(r) rounds to 1.0 for this log-ratio r, which once left kl_term at -r
    @example([(-1.1102230246251565e-16, 0.0)])
    def test_non_negative(self, pairs):
        policy = [p for p, _ in pairs]
        reference = [r for _, r in pairs]
        assert kl_term(policy, reference) >= 0.0


class TestObjective:
    def test_identity_ratios_and_zero_beta(self):
        rng = np.random.default_rng(0)
        records = []
        for _ in range(3):
            k = int(rng.integers(2, 5))
            rewards = [float(x) for x in rng.uniform(0, 1.2, k)]
            vec = random_logprobs(rng, 4)[0]
            records.append(group_record(rewards, [(vec, vec, vec)] * k))
        j, signals = objective(records, {"epsilon": 0.2, "beta": 0.0})
        assert j == pytest.approx(0.0, abs=1e-12)
        for group in signals:
            for sig in group:
                assert sig["ratio"] == 1.0
                assert sig["clipped_term"] == pytest.approx(sig["advantage"])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            records = []
            raw = []
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(1, 6))
                rewards = tuple(float(x) for x in rng.uniform(0, 1.2, k))
                lps = [random_logprobs(rng, int(rng.integers(1, 7))) for _ in range(k)]
                records.append(group_record(rewards, lps))
                raw.append((rewards, lps))
            eps = float(rng.uniform(0.05, 0.5))
            beta = float(rng.uniform(0.0, 0.1))
            j, _ = objective(records, {"epsilon": eps, "beta": beta})
            expected = brute_force_objective(raw, eps, beta)
            assert j == pytest.approx(expected, rel=1e-9)

    def test_pair_without_logprobs_counts_as_no_tokens(self):
        rng = np.random.default_rng(5)
        lp = random_logprobs(rng, 3)
        record = group_record((1.0, 0.0, 0.5), [lp, None, lp])
        # an absent key reads as null does
        del record["pairs"][2]["logprobs"]
        j, (group,) = objective([record], {**DEFAULTS, "beta": 0.1})
        assert [(s["ratio"], s["kl_term"]) for s in group[1:]] == [(1.0, 0.0), (1.0, 0.0)]
        empty = ((), (), ())
        assert j == pytest.approx(
            brute_force_objective([((1.0, 0.0, 0.5), [lp, empty, empty])], 0.2, 0.1), rel=1e-12
        )

    def test_beta_monotonically_penalizes(self):
        rng = np.random.default_rng(7)
        rewards = [float(x) for x in rng.uniform(0, 1, 4)]
        record = group_record(rewards, [random_logprobs(rng, 5) for _ in range(4)])
        values = [
            objective([record], {**DEFAULTS, "beta": b})[0]
            for b in (0.0, 0.01, 0.1, 1.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_permutation_within_group_invariant(self):
        rng = np.random.default_rng(3)
        rewards = tuple(float(x) for x in rng.uniform(0, 1.2, 5))
        lps = [random_logprobs(rng, 4) for _ in range(5)]
        order = [3, 1, 4, 0, 2]
        j1, _ = objective([group_record(rewards, lps)], DEFAULTS)
        j2, _ = objective(
            [group_record([rewards[i] for i in order], [lps[i] for i in order])],
            DEFAULTS,
        )
        assert j1 == pytest.approx(j2, rel=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [("epsilon", -0.1), ("beta", -1.0), ("epsilon", math.nan), ("beta", math.nan),
         ("epsilon", math.inf), ("beta", math.inf), ("beta", -math.inf)],
    )
    def test_config_out_of_range_rejected(self, field, value):
        message = "must be finite" if value == math.inf else "must be >= 0"
        with pytest.raises(ValueError, match=f"^{field} {message}, got {value}$"):
            objective([group_record((1.0,), [None])], {**DEFAULTS, field: value})

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError, match="objective needs at least one group"):
            objective([], DEFAULTS)


class TestExport:
    def test_jsonl_contract(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [
            group_record((1.2, 0.0), [random_logprobs(rng, 3) for _ in range(2)], "q1"),
            group_record((0.5,), [None], "q2"),
        ]
        _, signals = objective(records, DEFAULTS)
        path = tmp_path / "signals.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_training_signals(fh, signals)

        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert lines == signals[0] + signals[1]
        assert all(list(line) == SIGNAL_KEYS for line in lines)
        assert [(x["query_id"], x["sample_index"], x["reward"]) for x in lines] == [
            ("q1", 0, 1.2), ("q1", 1, 0.0), ("q2", 0, 0.5)
        ]
        assert [x["advantage"] for x in lines] == pytest.approx([0.6, -0.6, 0.0])
