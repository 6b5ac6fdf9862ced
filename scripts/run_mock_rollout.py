#!/usr/bin/env python3
"""Run the two-stage rollout pipeline end to end on a canned mock backend.

Writes a three-query demo dataset covering the interesting reward cases
(structure + self-contained, no structure, structure that fails re-inference)
and the mock rules that answer it, runs `structrl rollout` over it, prints
the first sample of each group from the written `rollouts.jsonl`, and prints
the reward sweep over several lambda values through `structrl sweep-lambda`.
Everything is deterministic, so two invocations with the same flags produce
byte-identical outputs.
"""
import argparse
import json
import sys
from pathlib import Path

from structrl import cli

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


def build_demo(workdir: Path) -> tuple[Path, Path]:
    """Write the demo dataset and the mock rules that answer it."""
    queries = [
        {
            "id": "structured",
            "question": "Who was born later, Ada Brook or Noa Field?",
            "docs": [
                "Ada Brook\nAda Brook was a director born on 1897-07-15.",
                "Noa Field\nNoa Field was a director born on 1947-02-18.",
            ],
            "golden_answers": ["Noa Field"],
        },
        {
            "id": "plain",
            "question": "What is the capital of Norway?",
            "docs": ["Norway\nThe capital of Norway is Oslo."],
            "golden_answers": ["Oslo"],
        },
        {
            "id": "leaky",
            "question": "Who was born later, Ada Brook or Noa Field?",
            "docs": [
                "Ada Brook dates\nAda Brook: born 1897.",
                "Noa Field dates\nNoa Field: born 1947.",
            ],
            "golden_answers": ["Noa Field"],
        },
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
    dataset = workdir / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(q) + "\n" for q in queries), "utf-8")
    return dataset, fixtures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/mock_demo")
    parser.add_argument("--k", default="4")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--lambda", dest="lambda_", default="0.2")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    dataset, fixtures = build_demo(workdir)
    code = cli.main(
        ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
         "--k", args.k, "--seed", args.seed, "--lambda", args.lambda_,
         "--out", str(workdir)]
    )
    if code:
        return code

    rollouts = workdir / "rollouts.jsonl"
    for line in rollouts.read_text("utf-8").splitlines():
        group = json.loads(line)
        pair = group["pairs"][0]
        b = pair["breakdown"]
        formats = sum(1 for block in pair["primary"]["blocks"] if block["kind"] == "format")
        print(
            f"  {group['query']['id']:>10}: direct={b['direct']:.1f} reinf={b['reinf']:.1f} "
            f"total={b['total']:.2f} formats={formats} "
            f"clean={pair['primary_validation']['is_clean']}"
        )

    print("\nlambda sweep (mean over all samples):")
    return cli.main(["sweep-lambda", "--rollouts", str(rollouts), "--values", "0,0.1,0.2,0.3"])


if __name__ == "__main__":
    sys.exit(main())
