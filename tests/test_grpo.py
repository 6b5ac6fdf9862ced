import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structrl.grpo import (
    ObjectiveConfig,
    RewardGroup,
    TokenLogProbs,
    clipped_term,
    group_advantages,
    kl_term,
    objective,
    write_training_signals,
)


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


class TestAdvantages:
    def test_hand_example(self):
        adv = group_advantages(RewardGroup((1.2, 0.0, 1.0, 0.0))).advantages
        assert adv == pytest.approx((0.65, -0.55, 0.45, -0.55))

    def test_equal_rewards_center_to_zero(self):
        adv = group_advantages(RewardGroup((0.7, 0.7, 0.7))).advantages
        assert adv == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        # dyadic rewards have an exact mean, so centering is exact too
        assert group_advantages(RewardGroup((0.5, 0.5))).advantages == (0.0, 0.0)

    def test_singleton_group(self):
        assert group_advantages(RewardGroup((0.7,))).advantages == (0.0,)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="reward group needs at least one sample"):
            RewardGroup(())

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_sum_is_zero(self, rewards):
        adv = group_advantages(RewardGroup(tuple(rewards))).advantages
        assert abs(sum(adv)) <= 1e-12 * len(rewards)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8), st.floats(-5, 5))
    def test_reward_shift_invariance(self, rewards, shift):
        base = group_advantages(RewardGroup(tuple(rewards))).advantages
        shifted = group_advantages(
            RewardGroup(tuple(r + shift for r in rewards))
        ).advantages
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
        assert kl_term(TokenLogProbs(vec, vec, vec)) == 0.0

    def test_single_token_hand_value(self):
        t = TokenLogProbs(policy=(-2.0,), reference=(-1.0,), behavior=(-2.0,))
        assert kl_term(t) == pytest.approx(math.e - 2.0)

    def test_empty_sequences_are_zero(self):
        assert kl_term(TokenLogProbs((), (), ())) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="must align token-for-token"):
            TokenLogProbs((-1.0,), (-1.0, -2.0), (-1.0,))

    @given(st.lists(st.tuples(st.floats(-8, 0), st.floats(-8, 0)), min_size=1, max_size=20))
    def test_non_negative(self, pairs):
        policy = tuple(p for p, _ in pairs)
        reference = tuple(r for _, r in pairs)
        assert kl_term(TokenLogProbs(policy, reference, policy)) >= 0.0


class TestObjective:
    def test_identity_ratios_and_zero_beta(self):
        rng = np.random.default_rng(0)
        groups = []
        for _ in range(3):
            k = int(rng.integers(2, 5))
            rewards = RewardGroup(tuple(float(x) for x in rng.uniform(0, 1.2, k)))
            vec = random_logprobs(rng, 4)[0]
            lps = [TokenLogProbs(vec, vec, vec) for _ in range(k)]
            groups.append((rewards, lps))
        j, signals = objective(groups, ObjectiveConfig(epsilon=0.2, beta=0.0))
        assert j == pytest.approx(0.0, abs=1e-12)
        for group in signals:
            for sig in group:
                assert sig.ratio == 1.0
                assert sig.clipped == pytest.approx(sig.advantage)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            groups = []
            raw = []
            for _ in range(int(rng.integers(1, 4))):
                k = int(rng.integers(1, 6))
                rewards = tuple(float(x) for x in rng.uniform(0, 1.2, k))
                lps = [random_logprobs(rng, int(rng.integers(1, 7))) for _ in range(k)]
                groups.append(
                    (RewardGroup(rewards), [TokenLogProbs(*lp) for lp in lps])
                )
                raw.append((rewards, lps))
            eps = float(rng.uniform(0.05, 0.5))
            beta = float(rng.uniform(0.0, 0.1))
            j, _ = objective(groups, ObjectiveConfig(epsilon=eps, beta=beta))
            expected = brute_force_objective(raw, eps, beta)
            assert j == pytest.approx(expected, rel=1e-9)

    def test_beta_monotonically_penalizes(self):
        rng = np.random.default_rng(7)
        rewards = RewardGroup(tuple(float(x) for x in rng.uniform(0, 1, 4)))
        lps = [TokenLogProbs(*random_logprobs(rng, 5)) for _ in range(4)]
        values = [
            objective([(rewards, lps)], ObjectiveConfig(beta=b))[0]
            for b in (0.0, 0.01, 0.1, 1.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_permutation_within_group_invariant(self):
        rng = np.random.default_rng(3)
        rewards = tuple(float(x) for x in rng.uniform(0, 1.2, 5))
        lps = [random_logprobs(rng, 4) for _ in range(5)]
        order = [3, 1, 4, 0, 2]
        j1, _ = objective(
            [(RewardGroup(rewards), [TokenLogProbs(*lp) for lp in lps])],
            ObjectiveConfig(),
        )
        j2, _ = objective(
            [
                (
                    RewardGroup(tuple(rewards[i] for i in order)),
                    [TokenLogProbs(*lps[i]) for i in order],
                )
            ],
            ObjectiveConfig(),
        )
        assert j1 == pytest.approx(j2, rel=1e-12)

    @pytest.mark.parametrize(
        "field, value", [("epsilon", -0.1), ("beta", -1.0), ("epsilon", math.nan), ("beta", math.nan)]
    )
    def test_config_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
            ObjectiveConfig(**{field: value})

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError, match="objective needs at least one group"):
            objective([], ObjectiveConfig())

    def test_group_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one log-prob record per group sample"):
            objective(
                [(RewardGroup((1.0, 0.0)), [TokenLogProbs((), (), ())])],
                ObjectiveConfig(),
            )


class TestExport:
    def test_jsonl_contract(self, tmp_path):
        rng = np.random.default_rng(1)
        groups = [
            (
                RewardGroup((1.2, 0.0)),
                [TokenLogProbs(*random_logprobs(rng, 3)) for _ in range(2)],
            )
        ]
        _, signals = objective(groups, ObjectiveConfig())
        path = tmp_path / "signals.jsonl"
        write_training_signals(path, ["q1"], signals)
        import json

        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(lines) == 2
        assert set(lines[0]) == {
            "query_id",
            "sample_index",
            "reward",
            "advantage",
            "ratio",
            "clipped_term",
            "kl_term",
        }
        assert lines[0]["query_id"] == "q1"
        assert lines[1]["sample_index"] == 1

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one query id per signal group required"):
            write_training_signals(tmp_path / "x.jsonl", ["a", "b"], [[]])
