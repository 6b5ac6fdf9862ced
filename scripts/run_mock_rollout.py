#!/usr/bin/env python3
"""Run the two-stage rollout pipeline end to end on a canned mock backend.

Builds a three-query demo dataset covering the interesting reward cases
(structure + self-contained, no structure, structure that fails re-inference),
rolls out K samples per query, writes the JSONL artifacts, and prints the
reward sweep over several lambda values through `structrl sweep-lambda`.
Everything is deterministic, so two invocations with the same flags produce
byte-identical outputs.
"""
import argparse
import json
import sys
from pathlib import Path

from structrl import cli
from structrl.backends import MockBackend
from structrl.reward import LambdaSchedule
from structrl.rollout import QueryInstance, RolloutConfig, run_rollouts, write_rollout_jsonl

STRUCTURED_TRACE = """<think>
Two birth dates are buried in prose; a table makes the comparison trivial.
</think>
<format: table>
| person | born |
| --- | --- |
| Ada Brook | 1897 |
| Noa Field | 1947 |
</format: table>
<answer> Noa Field </answer>"""

STRUCTURED_REINF = "<think>1947 beats 1897.</think>\n<answer> Noa Field </answer>"

LEAKY_TRACE = """<think>
I will keep the dates in my head instead of the structure.
</think>
<format: table>
| person | note |
| --- | --- |
| Ada Brook | elder |
| Noa Field | younger |
</format: table>
<answer> Noa Field </answer>"""

LEAKY_REINF = "<think>No dates here, guessing.</think>\n<answer> Ada Brook </answer>"

PLAIN_TRACE = "<think>The capital is stated verbatim.</think>\n<answer> Oslo </answer>"


def build_demo(workdir: Path):
    """Write the demo dataset and the mock rules that answer it."""
    queries = [
        QueryInstance(
            id="structured",
            question="Who was born later, Ada Brook or Noa Field?",
            docs=(
                "Ada Brook\nAda Brook was a director born on 1897-07-15.",
                "Noa Field\nNoa Field was a director born on 1947-02-18.",
            ),
            golds=("Noa Field",),
        ),
        QueryInstance(
            id="plain",
            question="What is the capital of Norway?",
            docs=("Norway\nThe capital of Norway is Oslo.",),
            golds=("Oslo",),
        ),
        QueryInstance(
            id="leaky",
            question="Who was born later, Ada Brook or Noa Field?",
            docs=(
                "Ada Brook dates\nAda Brook: born 1897.",
                "Noa Field dates\nNoa Field: born 1947.",
            ),
            golds=("Noa Field",),
        ),
    ]
    rules = [
        {"contains": "Doc 1: Ada Brook\n", "response": STRUCTURED_TRACE},
        {"contains": "| Ada Brook | 1897 |", "response": STRUCTURED_REINF},
        {"contains": "Doc 1: Norway", "response": PLAIN_TRACE},
        {"contains": "Doc 1: Ada Brook dates", "response": LEAKY_TRACE},
        {"contains": "| Ada Brook | elder |", "response": LEAKY_REINF},
    ]
    fixtures = workdir / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    (fixtures / "rules.json").write_text(json.dumps(rules, indent=2), "utf-8")
    return queries, fixtures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/mock_demo")
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lambda", dest="lambda_", type=float, default=0.2)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    queries, fixtures = build_demo(workdir)
    backend = MockBackend(fixtures)
    config = RolloutConfig(
        k=args.k,
        lambda_schedule=LambdaSchedule.constant(args.lambda_),
        base_seed=args.seed,
    )

    groups = list(run_rollouts(queries, config, backend))
    rollouts_path = workdir / "rollouts.jsonl"
    write_rollout_jsonl(rollouts_path, groups)

    print(f"wrote {rollouts_path} ({sum(len(g.pairs) for g in groups)} samples)")
    for group in groups:
        pair = group.pairs[0]
        b = pair.breakdown
        print(
            f"  {group.query.id:>10}: direct={b.direct:.1f} reinf={b.reinf:.1f} "
            f"total={b.total:.2f} formats={len(pair.primary.format_blocks())} "
            f"clean={pair.primary_validation.is_clean}"
        )

    print("\nlambda sweep (mean over all samples):")
    return cli.main(["sweep-lambda", "--rollouts", str(rollouts_path), "--values", "0,0.1,0.2,0.3"])


if __name__ == "__main__":
    sys.exit(main())
