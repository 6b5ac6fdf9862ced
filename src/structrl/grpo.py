"""Group-relative advantages, the clipped surrogate, and KL regularization.

Everything here is scalar math over supplied log-probabilities; no weights
live in this package. Per-sample components are exported as JSONL for an
external trainer. Summations run in a fixed left-to-right order so results
are bit-identical regardless of caller parallelism.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class RewardGroup:
    rewards: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.rewards:
            raise ValueError("reward group needs at least one sample")
        if not all(math.isfinite(r) for r in self.rewards):
            raise ValueError("rewards must be finite")


@dataclass(frozen=True)
class AdvantageSet:
    advantages: tuple[float, ...]


@dataclass(frozen=True)
class TokenLogProbs:
    """Per-token log-probabilities under the current, reference, and sampling policies."""

    policy: tuple[float, ...]
    reference: tuple[float, ...]
    behavior: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.policy) == len(self.reference) == len(self.behavior)):
            raise ValueError(
                "policy, reference, and behavior sequences must align token-for-token"
            )


@dataclass(frozen=True)
class ObjectiveConfig:
    epsilon: float = 0.2
    beta: float = 0.001

    def __post_init__(self) -> None:
        # written so that NaN fails too
        for name in ("epsilon", "beta"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


def _mean(xs: tuple[float, ...] | list[float]) -> float:
    # plain left-to-right sum: the documented deterministic order
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)


def group_advantages(g: RewardGroup) -> AdvantageSet:
    """Center rewards on the group mean; a singleton group gets [0]."""
    mean = _mean(g.rewards)
    return AdvantageSet(tuple(r - mean for r in g.rewards))


def clipped_term(ratio: float, advantage: float, epsilon: float) -> float:
    """min of the unclipped and clipped surrogate for one sample."""
    if ratio <= 0:
        raise ValueError(f"importance ratio must be positive, got {ratio}")
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
    return min(ratio * advantage, clipped * advantage)


def kl_term(t: TokenLogProbs) -> float:
    """Mean per-token exp(r) - r - 1 with r = reference - policy; always >= 0."""
    if not t.policy:
        return 0.0
    per_token = []
    for p, ref in zip(t.policy, t.reference):
        r = ref - p
        per_token.append(math.exp(r) - r - 1.0)
    return _mean(per_token)


def sequence_ratio(t: TokenLogProbs) -> float:
    """exp of the mean per-token log-ratio policy - behavior; length-normalized by design."""
    if not t.policy:
        return 1.0
    return math.exp(_mean([p - b for p, b in zip(t.policy, t.behavior)]))


@dataclass(frozen=True)
class SampleSignal:
    """Per-sample training components, the export contract for a trainer."""

    reward: float
    advantage: float
    ratio: float
    clipped: float
    kl: float

    def to_dict(self) -> dict:
        return {
            "reward": self.reward,
            "advantage": self.advantage,
            "ratio": self.ratio,
            "clipped_term": self.clipped,
            "kl_term": self.kl,
        }


def objective(
    groups: list[tuple[RewardGroup, list[TokenLogProbs]]],
    cfg: ObjectiveConfig = ObjectiveConfig(),
) -> tuple[float, list[list[SampleSignal]]]:
    """Scalar objective J and per-sample components, grouped as the input.

    J is the mean over all samples of clipped_term - beta * kl_term, with the
    ratio computed at sequence level from length-normalized log-ratios.
    """
    if not groups:
        raise ValueError("objective needs at least one group")
    signals: list[list[SampleSignal]] = []
    terms: list[float] = []
    for rewards, logprobs in groups:
        if len(rewards.rewards) != len(logprobs):
            raise ValueError("one log-prob record per group sample required")
        advantages = group_advantages(rewards).advantages
        group_signals: list[SampleSignal] = []
        for reward, adv, t in zip(rewards.rewards, advantages, logprobs):
            ratio = sequence_ratio(t)
            surrogate = clipped_term(ratio, adv, cfg.epsilon)
            kl = kl_term(t)
            terms.append(surrogate - cfg.beta * kl)
            group_signals.append(SampleSignal(reward, adv, ratio, surrogate, kl))
        signals.append(group_signals)
    return _mean(terms), signals


def write_training_signals(
    path: str | Path,
    query_ids: list[str],
    signals: list[list[SampleSignal]],
) -> None:
    """One JSONL record per sample, keyed by query id and sample index."""
    if len(query_ids) != len(signals):
        raise ValueError("one query id per signal group required")
    with open(path, "w", encoding="utf-8") as fh:
        for qid, group in zip(query_ids, signals):
            for i, sig in enumerate(group):
                record = {"query_id": qid, "sample_index": i, **sig.to_dict()}
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
