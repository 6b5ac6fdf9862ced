#!/usr/bin/env python3
"""Check the information-density ordering on a seeded synthetic corpus.

Runs `structrl density --synthetic`, which measures, for each generated
instance, the raw documents, the best predefined structure and a self-defined
structure as rho = matched facts / tokens, and verifies the chain
rho(raw) < max(predefined) <= max(all candidates). The first instances and a
summary are printed from the report it writes. The script exits nonzero if
any instance fails or misses the premise, so it can gate automation.
"""
import argparse
import json
import sys
import tempfile
from pathlib import Path

from structrl import cli


def describe(instance):
    best = max(instance["candidates"], key=lambda c: c["rho"])
    return (
        f"rho(raw)={instance['rho_raw']:.4f} < "
        f"max(predefined)={instance['max_predefined_rho']:.4f} <= "
        f"max(all)={instance['max_overall_rho']:.4f} "
        f"[best: {best['label']}]"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default="100")
    parser.add_argument("--seed", default="7")
    parser.add_argument("--show", type=int, default=3, help="instances to print")
    parser.add_argument("--out", default=None, help="write the full JSON report here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(args.out) if args.out else Path(tmp) / "density_report.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        code = cli.main(
            ["density", "--synthetic", "--n", args.n, "--seed", args.seed, "--out", str(out)]
        )
        if code:
            return code
        report = json.loads(out.read_text("utf-8"))

    for instance in report["instances"][: args.show]:
        print(describe(instance))
    summary = report["summary"]
    print(
        f"\nsummary: n={summary['n']} pass={summary['pass']} "
        f"fail={summary['fail']} premise_unmet={summary['premise_unmet']}"
    )
    if args.out:
        print(f"report written to {out}")

    return 0 if summary["fail"] == 0 and summary["premise_unmet"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
