"""Answer metrics, their means over a prediction set, and the two-term reward.

The reward is R = direct + lambda * reinf: exact match of the primary answer,
plus a weighted exact match of the answer produced from the structured content
alone. A trajectory that emitted no format block earns reinf = 0 by rule, so
structuring is never free.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ._textnorm import normalize_text, norm_tokens
from .errors import check_least
from .grpo import mean
from .trajectory import Trajectory


def _require_golds(golds: list[str]) -> None:
    if not golds:
        raise ValueError("metric needs at least one gold answer")


def exact_match(pred: str, golds: list[str]) -> float:
    """1.0 iff the normalized prediction equals any normalized gold."""
    _require_golds(golds)
    p = normalize_text(pred)
    return max(1.0 if p == normalize_text(g) else 0.0 for g in golds)


def _f1_single(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    return 2.0 * overlap / (len(pred_tokens) + len(gold_tokens))


def f1(pred: str, golds: list[str]) -> float:
    """Token-multiset F1, max over golds; both-empty counts as a match."""
    _require_golds(golds)
    pred_tokens = norm_tokens(pred)
    return max(_f1_single(pred_tokens, norm_tokens(g)) for g in golds)


def evaluate(pairs: list[tuple[str, list[str]]]) -> dict:
    """``{n, em, f1, error}``: mean per-instance EM and max-F1 over
    (prediction, golds) pairs; error is 1 - EM exactly."""
    if not pairs:
        raise ValueError("evaluation needs at least one (prediction, golds) pair")
    em = mean([exact_match(pred, golds) for pred, golds in pairs])
    f1_mean = mean([f1(pred, golds) for pred, golds in pairs])
    return {"n": len(pairs), "em": em, "f1": f1_mean, "error": 1.0 - em}


def direct_reward(traj: Trajectory, golds: list[str]) -> float:
    """Exact match of the primary answer; 0 when no answer block exists."""
    if traj.answer is None:
        return 0.0
    return exact_match(traj.answer, golds)


def reinference_reward(reinf_traj: Trajectory | None, golds: list[str]) -> float:
    """Exact match of the structure-only answer.

    ``reinf_traj`` is None when the primary pass emitted no formats, so there
    was nothing to re-infer from; that scores 0 by rule.
    """
    if reinf_traj is None or reinf_traj.answer is None:
        return 0.0
    return exact_match(reinf_traj.answer, golds)


@dataclass(frozen=True)
class RewardBreakdown:
    direct: float
    reinf: float
    lambda_: float
    total: float

    def to_dict(self) -> dict:
        return {
            "direct": self.direct,
            "reinf": self.reinf,
            "lambda": self.lambda_,
            "total": self.total,
        }


LAMBDA_LEAST = 0


def combined_reward(direct: float, reinf: float, lambda_: float) -> RewardBreakdown:
    check_least("lambda", lambda_, LAMBDA_LEAST)
    return RewardBreakdown(direct, reinf, lambda_, direct + lambda_ * reinf)


@dataclass(frozen=True)
class LambdaSchedule:
    """Mixing weight over training steps: a linear ramp from ``start`` at step
    0 to ``end`` at step ``steps``, held after that. A constant V is (V, V, 1)."""

    start: float
    end: float
    steps: int

    def __post_init__(self) -> None:
        check_schedule(self.start, self.end, self.steps)


def check_schedule(start: float, end: float, steps: int, name: str = "lambda") -> None:
    """The range rule of a schedule; every message calls the weight ``name``."""
    check_least(f"{name} steps", steps, 1)
    # lowest first, so a schedule below zero reports its minimum
    for value in sorted((start, end)):
        check_least(name, value, LAMBDA_LEAST)


def lambda_at(schedule: LambdaSchedule, step: int) -> float:
    """Weight at a step index; past ``steps`` the schedule holds at ``end``."""
    if schedule.start == schedule.end:
        return schedule.start
    return schedule.start + (schedule.end - schedule.start) * min(
        step, schedule.steps
    ) / schedule.steps
