"""Acceptance gate: eight criteria, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines.
Each criterion is a separate test so a failure pinpoints the broken contract;
the printed line carries the elapsed time for the runtime-bounded criteria.
"""
import json
import math
import random
import time
from contextlib import contextmanager
from importlib import resources

import jsonschema
import pytest

from structrl.cli import DEFAULTS, main
from structrl.dataset import QueryInstance, load_jsonl, sample, write_jsonl
from structrl.density import generate_synthetic, run_corpus
from structrl.grpo import (
    clipped_term,
    group_advantages,
    kl_term,
    objective,
)
from structrl.prompting import build_reinference_prompt, reinference_template, splice
from structrl.reward import exact_match, f1
from structrl.rollout import (
    read_rollout_jsonl,
    rescore_records,
    run_rollouts,
    write_rollout_jsonl,
)
from structrl.trajectory import (
    DocIndex,
    extract_formats,
    parse_trajectory,
    validate,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] criterion {number} ({label}): PASS ({elapsed:.3f}s)")


def test_criterion_1_golden_parse(golden_trace, golden_docs, golden_golds):
    with criterion(1, "golden parse"):
        start = time.perf_counter()
        traj = parse_trajectory(golden_trace)
        assert len(traj.blocks) == 6
        format_names = [
            b["format_name"] for b in traj.blocks if b["kind"] == "format"
        ]
        assert format_names == ["table", "date_comparison"]
        report = validate(traj, DocIndex(golden_docs))
        assert report.is_clean, [v.rule_id for v in report.violations]
        assert exact_match(traj.answer, golden_golds) == 1.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_metric_oracle(metric_oracle):
    with criterion(2, "metric oracle"):
        start = time.perf_counter()
        assert len(metric_oracle) == 20
        for case in metric_oracle:
            pred, golds = case["pred"], case["golds"]
            assert exact_match(pred, golds) == float(case["em"]), case
            num, den = case["f1"]
            assert f1(pred, golds) == pytest.approx(num / den, abs=1e-9), case
        assert time.perf_counter() - start < 1.0


def _reward_contract_fixture(tmp_path):
    """200 rollouts with a randomized mix of format and no-format outputs."""
    rng = random.Random(20240816)
    rules, queries = [], []
    for i in range(200):
        gold = f"gold{i}"
        doc = f"srcdoc{i} background passage that mentions {gold} in prose."
        question = f"What is fact number {i}?"
        queries.append(QueryInstance(f"rq{i}", question, (doc,), (gold,)))
        direct_answer = gold if rng.random() < 0.55 else f"wrong{i}"
        if rng.random() < 0.65:
            primary = (
                "<think>reformat then answer</think>\n"
                f"<format: notes>\nstruct{i} distilled statement of {gold}\n"
                "</format: notes>\n"
                f"<answer> {direct_answer} </answer>"
            )
            reinf_answer = gold if rng.random() < 0.5 else f"off{i}"
            rules.append({"contains": f"srcdoc{i} ", "response": primary})
            rules.append(
                {
                    "contains": f"struct{i} ",
                    "response": f"<think>read structure</think>\n<answer> {reinf_answer} </answer>",
                }
            )
        else:
            primary = f"<think>direct</think>\n<answer> {direct_answer} </answer>"
            rules.append({"contains": f"srcdoc{i} ", "response": primary})
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "rules.json").write_text(json.dumps(rules), "utf-8")
    return queries, fixtures


def test_criterion_3_reward_contract(tmp_path):
    with criterion(3, "reward contract"):
        from structrl.backends import MockBackend

        queries, fixtures = _reward_contract_fixture(tmp_path)
        config = {**DEFAULTS, "k": 1, "lambda": 0.2, "seed": 0}
        groups = list(run_rollouts(queries, config, MockBackend(fixtures)))
        pairs = [p for g in groups for p in g.pairs]
        assert len(pairs) == 200
        no_format = [p for p in pairs if not p.primary.has_formats()]
        with_format = [p for p in pairs if p.primary.has_formats()]
        assert no_format and with_format
        for pair in no_format:
            assert pair.breakdown.reinf == 0.0
            assert pair.reinferred is None
        for pair in pairs:
            assert pair.breakdown.total == pytest.approx(
                pair.breakdown.direct + 0.2 * pair.breakdown.reinf, abs=1e-12
            )

        path = tmp_path / "rollouts.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_rollout_jsonl(fh, [g.to_dict() for g in groups])
        records = read_rollout_jsonl(path)

        def sweep_row(lam):
            rescored = rescore_records(records, lam)
            rows = [p["breakdown"] for r in rescored for p in r["pairs"]]
            n = len(rows)
            return (
                sum(b["total"] for b in rows) / n,
                sum(b["reinf"] for b in rows) / n,
            )

        total_02, mean_reinf = sweep_row(0.2)
        total_00, _ = sweep_row(0.0)
        assert total_02 - total_00 == pytest.approx(0.2 * mean_reinf, abs=1e-12)
        assert mean_reinf > 0.0


def _brute_force_objective(raw_groups, epsilon, beta):
    """Independent re-derivation of the objective from raw tuples."""
    terms = []
    for rewards, triples in raw_groups:
        mu = sum(rewards) / len(rewards)
        for reward, (pol, ref, beh) in zip(rewards, triples):
            adv = reward - mu
            if pol:
                ratio = math.exp(sum(p - b for p, b in zip(pol, beh)) / len(pol))
            else:
                ratio = 1.0
            clipped = min(ratio * adv, min(max(ratio, 1 - epsilon), 1 + epsilon) * adv)
            if pol:
                kls = [math.exp(r - p) - (r - p) - 1.0 for p, r in zip(pol, ref)]
                kl = sum(kls) / len(kls)
            else:
                kl = 0.0
            terms.append(clipped - beta * kl)
    return sum(terms) / len(terms)


def test_criterion_4_grpo_math():
    with criterion(4, "grpo math"):
        rng = random.Random(4)

        for _ in range(1000):
            k = rng.randint(2, 8)
            rewards = tuple(rng.uniform(-2.0, 2.0) for _ in range(k))
            advantages = group_advantages(rewards).advantages
            assert abs(sum(advantages)) <= 1e-12 * k

        def random_triple(n):
            pol = tuple(-rng.uniform(0.05, 2.0) for _ in range(n))
            ref = tuple(p + rng.uniform(-0.1, 0.1) for p in pol)
            beh = tuple(p + rng.uniform(-0.05, 0.05) for p in pol)
            return pol, ref, beh

        for _ in range(100):
            raw_groups = []
            for _ in range(rng.randint(1, 4)):
                k = rng.randint(2, 5)
                rewards = tuple(rng.uniform(-1.0, 1.0) for _ in range(k))
                triples = [random_triple(rng.randint(0, 6)) for _ in range(k)]
                raw_groups.append((rewards, triples))
            epsilon = rng.choice([0.1, 0.2, 0.3])
            beta = rng.choice([0.0, 0.001, 0.01])
            records = [
                {
                    "query": {"id": f"g{i}"},
                    "pairs": [
                        {"breakdown": {"total": reward},
                         "logprobs": dict(zip(("policy", "reference", "behavior"), triple))}
                        for reward, triple in zip(rewards, triples)
                    ],
                }
                for i, (rewards, triples) in enumerate(raw_groups)
            ]
            got, _ = objective(records, {"epsilon": epsilon, "beta": beta})
            want = _brute_force_objective(raw_groups, epsilon, beta)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

        for _ in range(10_000):
            n = rng.randint(1, 8)
            pol = tuple(-rng.uniform(0.01, 3.0) for _ in range(n))
            ref = tuple(p + rng.uniform(-0.5, 0.5) for p in pol)
            assert kl_term(pol, ref) >= 0.0
        identical = tuple(-rng.uniform(0.01, 3.0) for _ in range(16))
        assert kl_term(identical, identical) == 0.0

        assert clipped_term(1.5, 1.0, 0.2) == 1.2
        assert clipped_term(0.5, -1.0, 0.2) == -0.8


def test_criterion_5_self_containment():
    with criterion(5, "self-containment"):
        rng = random.Random(5)
        docs = [
            " ".join(f"srcA{j}" for j in range(40)),
            " ".join(f"srcB{j}" for j in range(40)),
        ]
        copied_run = " ".join(f"srcA{j}" for j in range(3, 38))
        for i in range(100):
            question = f"Synthetic question {i}?"
            n_formats = rng.randint(1, 3)
            parts = [f"<think>notes while reading: {copied_run}</think>"]
            for j in range(n_formats):
                parts.append(
                    f"<format: view{j}>\nfact{i} item {j} condensed restatement"
                    f"\n</format: view{j}>"
                )
            parts.append(f"<answer> answer {i} </answer>")
            raw = "\n".join(parts)
            assert DocIndex(docs).copied_in(raw)

            traj = parse_trajectory(raw)
            formats = extract_formats(traj)
            assert len(formats) == n_formats
            prompt = build_reinference_prompt(question, formats)
            joined = "\n\n".join(body for _, body in formats)
            assert prompt == splice(reinference_template(), joined, question)
            assert not DocIndex(docs).copied_in(prompt)


def _determinism_fixture(tmp_path, golden_trace, golden_docs, golden_golds):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    reinf = (
        "<think>1947 is later than 1897</think>\n"
        "<answer> Así en el cielo como en la tierra </answer>"
    )
    rules = [
        {"contains": "Doc 1: The Girl in Possession", "response": golden_trace},
        {"contains": "- Monty Banks: 1897-07-15", "response": reinf},
        {"contains": "Doc 1: plain doc", "response": "<think>x</think>\n<answer> Rome </answer>"},
    ]
    (fixtures / "rules.json").write_text(json.dumps(rules), "utf-8")
    dataset = tmp_path / "dataset.jsonl"
    records = [
        {
            "id": "case-study",
            "question": "Which director was born later?",
            "docs": list(golden_docs),
            "golden_answers": list(golden_golds),
        },
        {
            "id": "plain",
            "question": "Capital of Italy?",
            "docs": ["plain doc"],
            "golden_answers": ["Rome"],
        },
    ]
    dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
    return dataset, fixtures


def test_criterion_6_determinism(tmp_path, golden_trace, golden_docs, golden_golds):
    with criterion(6, "determinism"):
        dataset, fixtures = _determinism_fixture(
            tmp_path, golden_trace, golden_docs, golden_golds
        )

        def run(name, parallel):
            out = tmp_path / name
            code = main(
                [
                    "rollout",
                    "--dataset", str(dataset),
                    "--fixtures", str(fixtures),
                    "--k", "4",
                    "--parallel", str(parallel),
                    "--out", str(out),
                ]
            )
            assert code == 0
            return out

        serial = run("serial", 1)
        wide = run("wide", 8)
        again = run("again", 8)
        for name in ("rollouts.jsonl", "training_signals.jsonl"):
            reference = (serial / name).read_bytes()
            assert reference == (wide / name).read_bytes()
            assert reference == (again / name).read_bytes()


def test_criterion_7_density_theory():
    with criterion(7, "density theory"):
        start = time.perf_counter()
        instances = generate_synthetic(100, 7)
        report = run_corpus(instances)
        summary = report["summary"]
        assert summary["n"] == 100
        assert summary["pass"] == 100
        assert summary["fail"] == 0
        assert summary["premise_unmet"] == 0
        for inst in report["instances"]:
            assert inst["left_inequality"] is True
            assert inst["right_inequality"] is True
            assert inst["status"] == "pass"
            assert any(not c["predefined"] for c in inst["candidates"])
        schema = json.loads(
            resources.files("structrl.schemas")
            .joinpath("density_report.schema.json")
            .read_text("utf-8")
        )
        jsonschema.validate(report, schema)
        assert time.perf_counter() - start < 5.0


def test_criterion_8_dataset_plumbing(tmp_path):
    with criterion(8, "dataset plumbing"):
        source = tmp_path / "big.jsonl"
        with open(source, "w", encoding="utf-8") as fh:
            for i in range(12_576):
                fh.write(
                    json.dumps(
                        {
                            "id": f"q{i:05d}",
                            "question": f"Question {i}?",
                            "docs": [f"passage {i} alpha", f"passage {i} beta"],
                            "golden_answers": [f"answer {i}"],
                        }
                    )
                    + "\n"
                )
        instances = load_jsonl(source)
        assert len(instances) == 12_576

        first = sample(instances, 1000, seed=123)
        second = sample(instances, 1000, seed=123)
        assert [q.id for q in first] == [q.id for q in second]
        assert len({q.id for q in first}) == 1000
        assert [q.id for q in sample(instances, 1000, seed=124)] != [
            q.id for q in first
        ]

        out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        write_jsonl(out1, first)
        reloaded = load_jsonl(out1)
        assert reloaded == first
        write_jsonl(out2, reloaded)
        assert out1.read_bytes() == out2.read_bytes()
