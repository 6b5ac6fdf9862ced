"""Group-relative advantages, the clipped surrogate, and KL regularization.

Everything here is scalar math over supplied log-probabilities; no weights
live in this package. ``objective`` reads group records, the lines of
``rollouts.jsonl``, and returns the ``training_signals.jsonl`` record of
every sample for an external trainer. Summations run in a fixed
left-to-right order so results are bit-identical regardless of caller
parallelism.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, ClassVar, Sequence

from .errors import check_least


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
    # the least value of each bounded field, in the order they are checked
    LEAST: ClassVar[dict[str, float]] = {"epsilon": 0, "beta": 0}

    def __post_init__(self) -> None:
        for name, least in self.LEAST.items():
            check_least(name, getattr(self, name), least)


def mean(xs: Sequence[float]) -> float:
    """A plain left-to-right sum over the count, the documented deterministic
    order; every float mean the package reports is this one. ``sum()`` of
    floats is compensated since Python 3.12, so it rounds differently there."""
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)


def group_advantages(rewards: Sequence[float]) -> AdvantageSet:
    """Center rewards on the group mean; a singleton group gets [0]."""
    if not rewards:
        raise ValueError("reward group needs at least one sample")
    if not all(math.isfinite(r) for r in rewards):
        raise ValueError("rewards must be finite")
    center = mean(rewards)
    return AdvantageSet(tuple(r - center for r in rewards))


def clipped_term(ratio: float, advantage: float, epsilon: float) -> float:
    """min of the unclipped and clipped surrogate for one sample."""
    if ratio <= 0:
        raise ValueError(f"importance ratio must be positive, got {ratio}")
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon)
    return min(ratio * advantage, clipped * advantage)


def kl_term(policy: Sequence[float], reference: Sequence[float]) -> float:
    """Mean per-token exp(r) - r - 1 with r = reference - policy; always >= 0."""
    if not policy:
        return 0.0
    per_token = []
    for p, ref in zip(policy, reference):
        r = ref - p
        per_token.append(math.exp(r) - r - 1.0)
    # exp(r) rounds to 1.0 for |r| near 1e-16, which leaves -r: clamp it
    return max(0.0, mean(per_token))


def sequence_ratio(policy: Sequence[float], behavior: Sequence[float]) -> float:
    """exp of the mean per-token log-ratio policy - behavior; length-normalized by design."""
    if not policy:
        return 1.0
    return math.exp(mean([p - b for p, b in zip(policy, behavior)]))


# a pair without log-probs (a failed sample) counts as no tokens
_NO_TOKENS = {"policy": (), "reference": (), "behavior": ()}


def objective(
    records: Sequence[dict], cfg: ObjectiveConfig = ObjectiveConfig()
) -> tuple[float, list[list[dict]]]:
    """Scalar objective J and each sample's ``training_signals.jsonl`` record,
    grouped as the input group records.

    J is the mean over all samples of clipped_term - beta * kl_term, with the
    ratio computed at sequence level from length-normalized log-ratios. The
    reward is each pair's ``breakdown.total``.
    """
    if not records:
        raise ValueError("objective needs at least one group")
    signals: list[list[dict]] = []
    terms: list[float] = []
    for record in records:
        pairs = record["pairs"]
        rewards = [p["breakdown"]["total"] for p in pairs]
        advantages = group_advantages(rewards).advantages
        group = []
        for i, (pair, reward, adv) in enumerate(zip(pairs, rewards, advantages)):
            lp = pair.get("logprobs") or _NO_TOKENS
            ratio = sequence_ratio(lp["policy"], lp["behavior"])
            surrogate = clipped_term(ratio, adv, cfg.epsilon)
            kl = kl_term(lp["policy"], lp["reference"])
            terms.append(surrogate - cfg.beta * kl)
            group.append({"query_id": record["query"]["id"], "sample_index": i, "reward": reward,
                          "advantage": adv, "ratio": ratio, "clipped_term": surrogate, "kl_term": kl})
        signals.append(group)
    return mean(terms), signals


def write_training_signals(fh: IO[str], signals: list[list[dict]]) -> None:
    """One JSONL line per sample record, in group and sample order, appended
    to an open text file."""
    for group in signals:
        for record in group:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
