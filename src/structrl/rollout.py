"""Two-stage rollout: sample K trajectories per query, then re-infer from
the extracted structures alone and score both passes.

The re-inference prompt is built from format bodies only, never the source
documents, so its reward measures whether the structures carry the answer.
Failed samples stay in the group (scored 0 and flagged) to keep group size
and advantage semantics stable. All seeds derive from (query id, sample
index, base seed), which makes output independent of parallelism degree.
At parallelism N > 1 the samples of up to 2N started groups share one pool
of N x K threads, each re-inference call starting as soon as its own primary
call returns, so a slow sample holds only its own thread.

Both passes of every sample are validated against one `DocIndex` per query:
the normalised text of its documents, built when the group starts and
shared by all K samples. It is dropped with the group, so at most one index
per started group is alive.

`run_rollouts` yields each group once it and every group before it are done,
so a caller can write the group's record and drop it before the next one
arrives, as `structrl rollout` does: `write_rollout_jsonl` appends to an open
file. If the loop stops early, samples that have not started are cancelled.
At N > 1, the first error that a sample raises on a pool thread also stops
every sample that has not yet called the backend: each raises that error
instead, so it reaches the caller with the oldest group still waiting.
``concurrent.futures`` is imported only then.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass
from operator import sub
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .backends import Generation, GenerationBackend, SamplingParams
from .dataset import QueryInstance, check, is_finite_number, read_records
from .errors import BackendError, check_settings
from .grpo import AdvantageSet, TokenLogProbs, group_advantages
from .prompting import build_main_prompt, build_reinference_prompt
from .reward import (
    RewardBreakdown,
    combined_reward,
    direct_reward,
    lambda_at,
    parse_schedule,
    reinference_reward,
)
from .trajectory import (
    DocIndex,
    Trajectory,
    ValidationReport,
    extract_formats,
    parse_trajectory,
    validate,
)

def derive_seed(query_id: str, sample_index: int, base_seed: int) -> int:
    """Stable per-sample seed from (query id, sample index, base seed)."""
    h = hashlib.sha256(f"{query_id}:{sample_index}:{base_seed}".encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


@dataclass(frozen=True)
class TrajectoryPair:
    primary: Trajectory
    reinferred: Trajectory | None
    breakdown: RewardBreakdown
    primary_validation: ValidationReport
    reinferred_validation: ValidationReport | None
    logprobs: TokenLogProbs | None
    seed: int
    failed: bool = False
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "primary": self.primary.to_dict(),
            "primary_validation": self.primary_validation.to_dict(),
            "reinferred": self.reinferred.to_dict() if self.reinferred else None,
            "reinferred_validation": (
                self.reinferred_validation.to_dict()
                if self.reinferred_validation
                else None
            ),
            "breakdown": self.breakdown.to_dict(),
            "logprobs": (
                {
                    "policy": list(self.logprobs.policy),
                    "reference": list(self.logprobs.reference),
                    "behavior": list(self.logprobs.behavior),
                }
                if self.logprobs
                else None
            ),
            "seed": self.seed,
            "failed": self.failed,
            "failure": self.failure,
        }


@dataclass(frozen=True)
class RolloutGroup:
    query: QueryInstance
    pairs: tuple[TrajectoryPair, ...]
    advantages: AdvantageSet
    lambda_: float
    step: int

    def to_dict(self) -> dict:
        return {
            "query": self.query.to_dict(),
            "lambda": self.lambda_,
            "step": self.step,
            "pairs": [p.to_dict() for p in self.pairs],
            "advantages": list(self.advantages.advantages),
        }


def _generate_with_retries(
    backend: GenerationBackend, prompt: str, sampling: SamplingParams, retries: int
) -> Generation:
    """Up to ``retries`` more attempts, stopping at an error that is not retryable."""
    for attempt in range(retries + 1):
        try:
            return backend.generate(prompt, sampling)
        except BackendError as exc:
            if not exc.retryable or attempt == retries:
                raise


_NO_DOCS = DocIndex(())


def _failed_pair(seed: int, lambda_: float, reason: str) -> TrajectoryPair:
    empty = parse_trajectory("")
    return TrajectoryPair(
        primary=empty,
        reinferred=None,
        breakdown=combined_reward(0.0, 0.0, lambda_),
        primary_validation=validate(empty, _NO_DOCS),
        reinferred_validation=None,
        logprobs=None,
        seed=seed,
        failed=True,
        failure=reason,
    )


def _rollout_sample(
    query: QueryInstance,
    index: int,
    prompt: str,
    lambda_: float,
    backend: GenerationBackend,
    config: dict,
    doc_index: DocIndex,
) -> TrajectoryPair:
    """One sample: primary call, then its re-inference call as soon as it returns."""
    seed = derive_seed(query.id, index, config["seed"])
    sampling = SamplingParams(
        temperature=config["temperature"], max_tokens=config["max_tokens"], seed=seed
    )
    try:
        gen = _generate_with_retries(backend, prompt, sampling, config["retries"])
    except BackendError as exc:
        return _failed_pair(seed, lambda_, f"primary generation: {exc}")

    primary = parse_trajectory(gen.text)
    primary_report = validate(primary, doc_index)

    reinferred = None
    reinferred_report = None
    if primary.has_formats():
        reinf_prompt = build_reinference_prompt(query.question, extract_formats(primary))
        try:
            reinf_gen = _generate_with_retries(
                backend, reinf_prompt, sampling, config["retries"]
            )
        except BackendError as exc:
            return _failed_pair(seed, lambda_, f"re-inference generation: {exc}")
        reinferred = parse_trajectory(reinf_gen.text)
        reinferred_report = validate(reinferred, doc_index)

    direct = direct_reward(primary, list(query.golds))
    reinf = reinference_reward(reinferred, list(query.golds))
    return TrajectoryPair(
        primary=primary,
        reinferred=reinferred,
        breakdown=combined_reward(direct, reinf, lambda_),
        primary_validation=primary_report,
        reinferred_validation=reinferred_report,
        logprobs=gen.logprobs,
        seed=seed,
    )


def _start(
    query: QueryInstance,
    lambda_: float,
    backend: GenerationBackend,
    config: dict,
    run: Callable[..., Iterator[TrajectoryPair]],
) -> Iterator[TrajectoryPair]:
    """The query's K samples, started by ``run``, the builtin or a pool's
    ``map``, on one prompt and ``DocIndex``; yields the pairs in order."""
    doc_index = DocIndex(query.docs)
    # the K primary prompts are byte-identical
    prompt = build_main_prompt(query.question, list(query.docs))

    def sample(i: int) -> TrajectoryPair:
        return _rollout_sample(query, i, prompt, lambda_, backend, config, doc_index)

    return run(sample, range(config["k"]))


def rollout_one(
    query: QueryInstance, step: int, lambda_: float, pairs: Iterable[TrajectoryPair]
) -> RolloutGroup:
    """One group: the query's sampled pairs, in sample order as
    ``run_rollouts`` started them, plus centered advantages; ``lambda_`` is
    the schedule's weight at ``step``."""
    pairs = tuple(pairs)
    advantages = group_advantages([p.breakdown.total for p in pairs])
    return RolloutGroup(query, pairs, advantages, lambda_, step)


def run_rollouts(
    dataset: Iterable[QueryInstance],
    config: dict,
    backend: GenerationBackend,
) -> Iterator[RolloutGroup]:
    """One group per query, in dataset order regardless of completion order.

    ``config`` is a settings record such as ``resolved_config.json`` holds;
    this reads its ``k``, ``lambda``, ``seed``, ``parallel``, ``temperature``,
    ``max_tokens`` and ``retries``, and checks them before the first query.
    The query's position is its step index for the lambda schedule. One
    loop keeps a window of started groups, 2N deep at parallelism N > 1 and
    1 deep at 1, where the samples run in the caller's thread; each group is
    assembled by ``rollout_one`` when it is the oldest one in the window.
    """
    check_settings(config)
    schedule = parse_schedule(config["lambda"])
    pool = None
    run, depth = map, 1
    if config["parallel"] > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(config["parallel"] * config["k"])
        failed: list[BaseException] = []  # what the samples on the pool have raised

        def pool_run(
            sample: Callable[[int], TrajectoryPair], indices: range
        ) -> Iterator[TrajectoryPair]:
            def stoppable(i: int) -> TrajectoryPair:
                if failed:
                    raise failed[0]  # before this sample calls the backend
                try:
                    return sample(i)
                except BaseException as exc:
                    failed.append(exc)
                    raise

            return pool.map(stoppable, indices)

        run, depth = pool_run, 2 * config["parallel"]
    window: deque[tuple] = deque()  # rollout_one's arguments, oldest group first
    try:
        for step, query in enumerate(dataset):
            lambda_ = lambda_at(schedule, step)
            window.append((query, step, lambda_, _start(query, lambda_, backend, config, run)))
            if len(window) == depth:
                yield rollout_one(*window.popleft())
        while window:
            yield rollout_one(*window.popleft())
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def write_rollout_jsonl(fh: IO[str], records: Iterable[dict]) -> int:
    """One group record (``RolloutGroup.to_dict()``) per line, appended to an
    open text file; returns the count."""
    n = 0
    for record in records:
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        n += 1
    return n


def read_rollout_jsonl(path: str | Path) -> list[dict]:
    """Group records, each checked to hold what scoring reads.

    Every line is decoded before any record is checked. A record that cannot
    be scored fails with a ``ParseError`` naming the file and its line, so
    the scoring code can trust every record returned.
    """
    numbered = list(read_records(path))
    for lineno, record in numbered:
        _check_record(record, path, lineno)
    return [record for _, record in numbered]


# a larger per-token gap between two roles' log-probs could make exp() in the
# objective overflow, or round an importance ratio to zero
_MAX_LOG_GAP = 700.0


def _logprobs_ok(lp: object) -> bool:
    """null, or three equal-length lists of numbers whose per-token gaps are bounded."""
    if lp is None:
        return True
    if not isinstance(lp, dict):
        return False
    policy, reference, behavior = vectors = [lp.get(r) for r in ("policy", "reference", "behavior")]
    if not (all(isinstance(v, list) for v in vectors) and len(set(map(len, vectors))) == 1):
        return False
    try:
        gaps = [*map(sub, policy, behavior), *map(sub, reference, policy)]
        # a finite sum rules out the NaN and infinities that min() and max() mishandle
        return not gaps or (
            math.isfinite(sum(gaps)) and -_MAX_LOG_GAP <= min(gaps) and max(gaps) <= _MAX_LOG_GAP
        )
    except (TypeError, OverflowError):
        return False


def _check_record(record: object, path: object, line: int) -> None:
    """Fail unless a stored group record holds what scoring reads."""
    check(isinstance(record, dict), "record is not a JSON object", path, line)
    query = record.get("query")
    check(isinstance(query, dict) and isinstance(query.get("id"), str),
          "field 'query.id' must be a string", path, line)
    pairs = record.get("pairs")
    check(isinstance(pairs, list) and bool(pairs) and all(isinstance(p, dict) for p in pairs),
          "field 'pairs' must be a non-empty list of objects", path, line)
    for i, pair in enumerate(pairs):
        breakdown = pair.get("breakdown")
        check(isinstance(breakdown, dict), f"field 'pairs[{i}].breakdown' must be an object",
              path, line)
        # direct and reinf are match scores; bounding them keeps every
        # re-scored total finite at any finite lambda
        for name in ("direct", "reinf"):
            check(is_finite_number(breakdown.get(name)) and 0 <= breakdown[name] <= 1,
                  f"field 'pairs[{i}].breakdown.{name}' must be a number in [0, 1]", path, line)
        check(is_finite_number(breakdown.get("total")),
              f"field 'pairs[{i}].breakdown.total' must be a finite number", path, line)
        check(_logprobs_ok(pair.get("logprobs")),
              f"field 'pairs[{i}].logprobs' must be null or lists 'policy', 'reference' "
              f"and 'behavior' of one length, within {_MAX_LOG_GAP:g} of each other per token",
              path, line)


def rescore_records(records: list[dict], lambda_: float) -> list[dict]:
    """Recompute breakdowns and advantages under a new lambda.

    Pure re-scoring: generation is reused, the backend is never invoked.
    Each output record is a shallow copy of its input with new ``lambda``,
    ``pairs`` and ``advantages``; each output pair is a shallow copy of its
    input pair with a new ``breakdown``. Every other field (``query``,
    ``step``, ``primary``, ``reinferred``, both validations, ``logprobs``,
    ``seed``, ``failed``, ``failure``) is shared with the input, not copied,
    so callers must treat those fields as read-only. The input records are
    never mutated.
    """
    out = []
    for record in records:
        pairs = []
        for pair in record["pairs"]:
            b = pair["breakdown"]
            breakdown = combined_reward(b["direct"], b["reinf"], lambda_)
            pairs.append({**pair, "breakdown": breakdown.to_dict()})
        advantages = list(group_advantages([p["breakdown"]["total"] for p in pairs]).advantages)
        out.append({**record, "lambda": lambda_, "pairs": pairs, "advantages": advantages})
    return out
