"""Operator entry point: rollouts, scoring export, evaluation, density
checks, trajectory validation, dataset plumbing, and a lambda sweep.

Config precedence is flags > config file > defaults; ``endpoint``, the one
setting with an environment variable (``STRUCTRL_ENDPOINT``), reads it
between its flag and the config file. Every run that writes outputs also
writes its resolved config beside them so reruns are reproducible.
Timestamps go to a sidecar log only, never into outputs.
Artifacts are streamed: ``rollout`` writes each group's record and signal
lines as the group finishes, in dataset order, and the resolved config only
after the last one, so an interrupted run keeps its finished groups and has
no ``resolved_config.json``; ``density`` encodes its report straight into
the file.
Low scores are data, not failures: exit codes are nonzero only for
structural, schema, or I/O errors (and for --strict validation findings).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import IO

from . import dataset as ds
from .density import MATCHERS, generate_synthetic, run_corpus
from ._textnorm import norm_tokens
from .backends import BACKEND_KINDS, ENDPOINT_ENV, make_backend
from .errors import LEAST, StructRLError, check_least, check_settings
from .grpo import mean, objective, write_training_signals
from .reward import evaluate, parse_schedule
from .rollout import read_rollout_jsonl, rescore_records, run_rollouts, write_rollout_jsonl
from .trajectory import DocIndex, Rule, parse_trajectory, validate

def _lambda_arg(text: str) -> float | str:
    """``--lambda``: a bare number stays a number, anything else is a schedule."""
    try:
        return float(text)
    except ValueError:
        return text


# every run setting: name -> (type, default). The rollout flags, score-export's
# --epsilon and --beta, the config-file checks and resolved_config.json all
# come from this table; a bounded setting's least value is in errors.LEAST.
# run_rollouts and objective read each setting by name from the record that
# resolve_config builds.
SETTINGS = {
    "backend": (str, "mock"),
    "endpoint": (str, None),
    "fixtures": (str, None),
    "model": (str, "default"),
    "k": (int, 8),
    "lambda": (_lambda_arg, 0.2),
    "epsilon": (float, 0.2),
    "beta": (float, 0.001),
    "seed": (int, 0),
    "parallel": (int, 1),
    "temperature": (float, 1.0),
    "max_tokens": (int, 1024),
    "retries": (int, 2),
}
# the record resolve_config starts from; a library caller of run_rollouts or
# objective passes {**DEFAULTS, name: value, ...}
DEFAULTS = {name: default for name, (_, default) in SETTINGS.items()}
_SETTING_FLAGS = {f"--{name.replace('_', '-')}" for name in SETTINGS}
# the JSON values a config file may give a setting of each type, never a bool;
# a setting whose default is None may also be null
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    _lambda_arg: ((int, float, str), "a number or a string"),
}
# keys resolved_config.json holds beside SETTINGS ("config": older versions);
# a config file may carry them, unread, so a run's record can be passed back
SIDECAR_KEYS = {"command", "config", "dataset", "out"}

STRICT_RULES = {Rule.NO_ANSWER, Rule.PLACEHOLDER_FORMAT, Rule.PLACEHOLDER_ANSWER}


def _config_value(path: str, name: str, value: object) -> object:
    """A config-file value checked against its setting's type, then against
    its least value if it has one, as a schedule if it is lambda, or as a
    kind of backend if it is backend; floats are stored as float."""
    kind, default = SETTINGS[name]
    accepted, want = _CONFIG_TYPES[kind]
    if value is None and default is None:
        return value
    if isinstance(value, accepted) and not isinstance(value, bool):
        try:
            value = float(value) if kind is float else value
        except OverflowError:
            pass
        else:
            where = f"{path}: config key {name!r}"
            if name == "lambda":
                parse_schedule(value, where)
            elif name in LEAST:
                check_least(where, value, LEAST[name])
            elif name == "backend" and value not in BACKEND_KINDS:
                kinds = " or ".join(map(json.dumps, BACKEND_KINDS))
                raise ValueError(f"{where} must be {kinds}, got {json.dumps(value)}")
            return value
    raise ValueError(f"{path}: config key {name!r} must be {want}, got {json.dumps(value)}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Overlay defaults <- config file <- environment <- explicit flags, then
    check the bounded settings, so a bad flag fails before anything is read
    or built."""
    resolved = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = ds.read_json(config_path)
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
        for key, value in loaded.items():
            if key in SETTINGS:
                resolved[key] = _config_value(config_path, key, value)
            elif key not in SIDECAR_KEYS:
                raise ValueError(f"{config_path}: unknown config key {key!r}")
    if os.environ.get(ENDPOINT_ENV):
        resolved["endpoint"] = os.environ[ENDPOINT_ENV]
    for key in (*SETTINGS, "dataset", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    check_settings(resolved)
    parse_schedule(resolved["lambda"])
    return resolved


def _write_sidecar(out_dir: Path, command: str, resolved: dict) -> None:
    serializable = {"command": command, **resolved}
    (out_dir / "resolved_config.json").write_text(
        json.dumps(serializable, indent=2, ensure_ascii=False) + "\n", "utf-8"
    )
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(out_dir / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {command}\n")


def _export_signals(out: IO[str], records: list[dict], config: dict) -> float | None:
    """The one path from group records to training signal lines, for
    ``rollout`` (one group at a time) and ``score-export`` (every record at
    once) alike; returns the objective, or None for no records."""
    if not records:
        return None
    j, signals = objective(records, config)
    write_training_signals(out, signals)
    return j


def cmd_rollout(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    queries = ds.load_jsonl(resolved["dataset"])
    backend = make_backend(
        resolved["backend"],
        fixtures=resolved["fixtures"],
        endpoint=resolved["endpoint"],
        model=resolved["model"],
    )
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # each group's record and signal lines are written as soon as it is done,
    # in dataset order; only the summary line's running sums are kept
    groups = samples = with_formats = self_contained = 0
    total = 0.0
    with (
        open(out_dir / "rollouts.jsonl", "w", encoding="utf-8") as rollouts,
        open(out_dir / "training_signals.jsonl", "w", encoding="utf-8") as signals,
    ):
        for group in run_rollouts(queries, resolved, backend):
            record = group.to_dict()
            write_rollout_jsonl(rollouts, [record])
            _export_signals(signals, [record], resolved)
            groups += 1
            for p in record["pairs"]:
                samples += 1
                total += p["breakdown"]["total"]
                with_formats += any(b["kind"] == "format" for b in p["primary"]["blocks"])
                self_contained += p["breakdown"]["reinf"] == 1.0
    _write_sidecar(out_dir, "rollout", resolved)

    if samples:
        print(
            f"groups={groups} samples={samples} "
            f"mean_reward={total / samples:.4f} "
            f"with_formats={100 * (with_formats / samples):.1f}% "
            f"self_contained={100 * (self_contained / samples):.1f}%"
        )
    else:
        print("groups=0 samples=0")
    return 0


def cmd_score_export(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    records = read_rollout_jsonl(args.rollouts)
    with open(args.out, "w", encoding="utf-8") as out:
        j = _export_signals(out, records, resolved)
    if j is None:
        print("objective=n/a groups=0")
    else:
        print(f"objective={j:.6f} groups={len(records)}")
    return 0


def _lambda_values(text: str) -> list[float]:
    """``--values``: comma-separated lambdas, each a number in lambda's range."""
    values = []
    for item in text.split(","):
        try:
            values.append(float(item))
        except ValueError:
            raise ValueError(f"--values: bad lambda {item!r} in {text!r}") from None
        check_least("lambda", values[-1], LEAST["lambda"])
    return values


def cmd_sweep_lambda(args: argparse.Namespace) -> int:
    values = _lambda_values(args.values)
    records = read_rollout_jsonl(args.rollouts)
    rows = []
    for lam in values:
        rescored = rescore_records(records, lam)
        breakdowns = [p["breakdown"] for r in rescored for p in r["pairs"]]
        row = {"lambda": lam}
        for name in ("total", "direct", "reinf"):
            # no records: every mean is 0.0
            row[f"mean_{name}"] = mean([b[name] for b in breakdowns]) if breakdowns else 0.0
        rows.append(row)
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["lambda,mean_total,mean_direct,mean_reinf"]
        lines += [
            f"{r['lambda']},{r['mean_total']},{r['mean_direct']},{r['mean_reinf']}"
            for r in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{'lambda':>8}  {'mean_total':>10}  {'mean_direct':>11}  {'mean_reinf':>10}"]
        lines += [
            f"{r['lambda']:8.3f}  {r['mean_total']:10.6f}  "
            f"{r['mean_direct']:11.6f}  {r['mean_reinf']:10.6f}"
            for r in rows
        ]
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, "utf-8")
    print(text, end="")
    return 0


def format_percent(value: float) -> str:
    """Two-decimal percentage with round-half-even, e.g. 0.7424 -> '74.24'."""
    from decimal import ROUND_HALF_EVEN, Decimal  # only eval renders percentages

    return str((Decimal(value) * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def eval_report(name: str, summary: dict, format: str) -> str:
    """The EM/F1 table of one dataset's ``evaluate`` record; columns are n,
    EM, F1 and error, the last three as percentages."""
    n = summary["n"]
    em, f1, error = (format_percent(summary[key]) for key in ("em", "f1", "error"))
    if format == "json":
        payload = {name: {"n": n, "em": em, "f1": f1, "error": error}}
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    if format == "csv":
        return f"dataset,n,em,f1,error\n{name},{n},{em},{f1},{error}\n"
    width = max(len("dataset"), len(name))
    header = f"{'dataset'.ljust(width)}      n     EM     F1  error"
    return f"{header}\n{name.ljust(width)}  {n:5d}  {em:>5}  {f1:>5}  {error:>5}\n"


def cmd_eval(args: argparse.Namespace) -> int:
    instances = {q.id: q for q in ds.load_jsonl(args.dataset)}
    # id -> (prediction, golds), in file order
    pairs: dict[str, tuple[str, list[str]]] = {}
    for lineno, record in ds.read_records(args.predictions):
        qid = str(ds.field(record, "id", args.predictions, lineno))
        ds.check(qid in instances, f"unknown prediction id {qid!r}", args.predictions, lineno)
        prediction = ds.field(record, "prediction", args.predictions, lineno)
        ds.check(isinstance(prediction, str), "field 'prediction' must be a string",
                 args.predictions, lineno)
        ds.check(qid not in pairs, f"duplicate prediction id {qid!r}", args.predictions, lineno)
        pairs[qid] = (prediction, list(instances[qid].golds))
    ds.check(bool(pairs), "evaluation needs at least one (prediction, golds) pair",
             args.predictions, None)
    summary = evaluate(list(pairs.values()))
    print(eval_report(Path(args.dataset).stem, summary, args.format), end="")
    return 0


def _corpus_instances(path: str) -> list[dict]:
    """Density instances from a corpus file, each its checked record with
    ``raw_docs`` a string and every optional field filled in; every text and
    every fact must have a token."""
    instances = []
    for lineno, record in ds.read_records(path):
        raw = ds.field(record, "raw_docs", path, lineno)
        if ds.is_string_list(raw):
            raw = "\n".join(raw)
        ds.check(isinstance(raw, str), "field 'raw_docs' must be a string or a list of strings",
                 path, lineno)
        ds.check(bool(norm_tokens(raw)), "field 'raw_docs' has no tokens", path, lineno)
        candidates = record.get("candidates", [])
        ds.check(isinstance(candidates, list), "field 'candidates' must be a list", path, lineno)
        for c in candidates:
            label, body = ds.field(c, "label", path, lineno), ds.field(c, "body", path, lineno)
            ds.check(isinstance(label, str) and bool(label),
                     "candidate 'label' must be a non-empty string", path, lineno)
            ds.check(isinstance(body, str) and bool(norm_tokens(body)),
                     "candidate 'body' must be a string with a token", path, lineno)
        matcher = record.get("matcher", MATCHERS[0])
        ds.check(matcher in MATCHERS, f"field 'matcher' must be one of {list(MATCHERS)}",
                 path, lineno)
        facts = ds.field(record, "facts", path, lineno)
        ds.check(ds.is_string_list(facts), "field 'facts' must be a list of strings", path, lineno)
        ds.check(bool(facts), "field 'facts' must not be empty", path, lineno)
        for fact in facts:
            ds.check(bool(norm_tokens(fact)), f"fact {fact!r} has no tokens", path, lineno)
        instances.append(
            {"raw_docs": raw, "candidates": candidates, "facts": facts, "matcher": matcher}
        )
    return instances


def cmd_density(args: argparse.Namespace) -> int:
    if args.synthetic == bool(args.corpus):
        raise ValueError("density needs either --corpus or --synthetic")
    if args.synthetic:
        instances = generate_synthetic(args.n, args.seed)
    else:
        instances = _corpus_instances(args.corpus)
    report = run_corpus(instances)
    if args.out:
        # encoded straight into the file, never held whole as one string
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
    s = report["summary"]
    print(
        f"instances={s['n']} pass={s['pass']} fail={s['fail']} "
        f"premise_unmet={s['premise_unmet']}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    docs: list[str] = []
    if args.docs:
        docs = ds.read_json(args.docs)
        ds.check(ds.is_string_list(docs), "docs must be a JSON list of strings", args.docs, None)
    doc_index = DocIndex(docs)
    strict_hit = False
    for lineno, record in ds.read_records(args.trajectories):
        raw = (record if isinstance(record, str)
               else ds.field(record, "raw", args.trajectories, lineno))
        ds.check(isinstance(raw, str), "field 'raw' must be a string", args.trajectories, lineno)
        report = validate(parse_trajectory(raw), doc_index)
        if report.rules() & STRICT_RULES:
            strict_hit = True
        print(
            json.dumps(
                {"index": lineno - 1, "is_clean": report.is_clean,
                 "violations": [v.to_dict() for v in report.violations]},
                ensure_ascii=False,
            )
        )
    return 1 if (args.strict and strict_hit) else 0


def cmd_convert_dataset(args: argparse.Namespace) -> int:
    n = ds.convert_file(args.src, args.out)
    print(f"wrote {n} instances to {args.out}")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    instances = ds.load_jsonl(args.dataset)
    sampled = ds.sample(instances, args.n, args.seed)
    ds.write_jsonl(args.out, sampled)
    print(f"sampled {len(sampled)} of {len(instances)} instances to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structrl",
        description="Rollout, reward, and verification engine for structured retrieval QA reasoning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rollout", help="two-stage rollout over a dataset")
    p.add_argument("--dataset", required=True)
    # one flag per setting, of its type; a flag not given stays None
    for name, (kind, _) in SETTINGS.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=kind)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("score-export", help="recompute training signals from rollouts")
    p.add_argument("--rollouts", required=True)
    for name in ("epsilon", "beta"):
        p.add_argument(f"--{name}", type=SETTINGS[name][0])
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score_export)

    p = sub.add_parser("sweep-lambda", help="re-score rollouts under several lambdas")
    p.add_argument("--rollouts", required=True)
    p.add_argument("--values", default="0,0.1,0.2,0.3")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("eval", help="EM/F1 report for a prediction file")
    p.add_argument("--predictions", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("density", help="density ordering report")
    p.add_argument("--corpus", default=None)
    p.add_argument("--synthetic", action="store_true")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("validate", help="parse and validate trajectories")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--docs", default=None)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert-dataset", help="convert a raw QA dump to the package schema")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_dataset)

    p = sub.add_parser("sample", help="deterministic subsample of a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)
    return parser


def _join_setting_values(argv: list[str]) -> list[str]:
    """Each setting flag followed by a value that starts with ``-`` joined to
    it as ``--flag=VALUE``: argparse would read ``-inf`` or ``-1e3`` as an
    option and fail with a usage error, not with the setting's own message."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _SETTING_FLAGS and arg.startswith("-"):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_setting_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (StructRLError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
