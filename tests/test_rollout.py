import copy
import dataclasses
import json
import math
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrl import rollout
from structrl.backends import MockBackend, prompt_digest
from structrl.cli import main
from structrl.dataset import QueryInstance
from structrl.errors import BackendError
from structrl.grpo import group_advantages
from structrl.prompting import build_main_prompt
from structrl.reward import LambdaSchedule, combined_reward
from structrl.rollout import (
    RolloutConfig,
    derive_seed,
    read_rollout_jsonl,
    rescore_records,
    rollout_one,
    run_rollouts,
    write_rollout_jsonl,
)
from structrl.trajectory import DocIndex

QUESTION = (
    "Which film has the director born later, The Girl In Possession "
    "or Así En El Cielo Como En La Tierra?"
)

REINF_ANSWER = (
    "<think>The dates show 1947 is later than 1897, so the second film's "
    "director was born later.</think>\n"
    "<answer> Así en el cielo como en la tierra </answer>"
)


def golden_backend(tmp_path, golden_trace, extra_rules=()):
    rules = [
        {"contains": "Doc 1: The Girl in Possession", "response": golden_trace},
        {"contains": "- Monty Banks: 1897-07-15", "response": REINF_ANSWER},
        *extra_rules,
    ]
    (tmp_path / "rules.json").write_text(json.dumps(rules), "utf-8")
    return MockBackend(tmp_path)


def golden_query(golden_docs, golden_golds):
    return QueryInstance(
        id="case-study",
        question=QUESTION,
        docs=tuple(golden_docs),
        golds=tuple(golden_golds),
    )


class TestSeeds:
    def test_derived_seed_is_stable(self):
        assert derive_seed("q1", 0, 0) == derive_seed("q1", 0, 0)

    def test_derived_seed_varies_per_component(self):
        seeds = {
            derive_seed("q1", 0, 0),
            derive_seed("q1", 1, 0),
            derive_seed("q2", 0, 0),
            derive_seed("q1", 0, 1),
        }
        assert len(seeds) == 4


class TestRolloutOne:
    def test_golden_group_rewards(self, tmp_path, golden_trace, golden_docs, golden_golds):
        backend = golden_backend(tmp_path, golden_trace)
        group = rollout_one(
            golden_query(golden_docs, golden_golds), 0, backend, RolloutConfig(k=4)
        )
        assert len(group.pairs) == 4
        for pair in group.pairs:
            assert pair.breakdown.direct == 1.0
            assert pair.breakdown.reinf == 1.0
            assert pair.breakdown.total == pytest.approx(1.2)
            assert pair.reinferred is not None
            assert pair.primary_validation.is_clean
        assert group.advantages.advantages == pytest.approx((0.0,) * 4, abs=1e-12)

    def test_no_format_trajectory_skips_reinference(self, tmp_path):
        rules = [{"contains": "Doc 1:", "response": "<think>easy</think><answer> Rome </answer>"}]
        (tmp_path / "rules.json").write_text(json.dumps(rules), "utf-8")
        query = QueryInstance("q", "capital?", ("some doc",), ("Rome",))
        group = rollout_one(query, 0, MockBackend(tmp_path), RolloutConfig(k=2))
        for pair in group.pairs:
            assert pair.reinferred is None
            assert pair.breakdown.reinf == 0.0
            assert pair.breakdown.total == 1.0

    def test_no_answer_scores_zero(self, tmp_path):
        rules = [{"contains": "Doc 1:", "response": "<think>stuck</think>"}]
        (tmp_path / "rules.json").write_text(json.dumps(rules), "utf-8")
        query = QueryInstance("q", "capital?", ("some doc",), ("Rome",))
        group = rollout_one(query, 0, MockBackend(tmp_path), RolloutConfig(k=2))
        assert tuple(p.breakdown.total for p in group.pairs) == (0.0, 0.0)

    def test_backend_failure_flags_sample_keeps_group_size(self, tmp_path):
        query = QueryInstance("q", "capital?", ("some doc",), ("Rome",))
        group = rollout_one(query, 0, MockBackend(tmp_path), RolloutConfig(k=3))
        assert len(group.pairs) == 3
        for pair in group.pairs:
            assert pair.failed
            assert pair.breakdown.total == 0.0
            assert "primary generation" in pair.failure

    def test_mock_miss_is_not_retried(self, tmp_path):
        backend = MockBackend(tmp_path)
        calls = []
        original = backend.generate
        backend.generate = lambda prompt, sampling: calls.append(1) or original(prompt, sampling)
        query = QueryInstance("q", "capital?", ("some doc",), ("Rome",))
        group = rollout_one(query, 0, backend, RolloutConfig(k=2, retries=2))
        assert all(p.failed for p in group.pairs)
        assert len(calls) == 2

    def test_fixture_that_is_not_utf8_fails_only_its_pair(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        queries = [{"id": f"q{q}", "question": "capital?", "docs": [f"doc {q}"],
                    "golden_answers": ["Rome"]} for q in range(2)]
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("".join(json.dumps(r) + "\n" for r in queries), "utf-8")
        digests = {}
        for r in queries:
            prompt = build_main_prompt(r["question"], r["docs"])
            for s in range(2):
                digests[r["id"], s] = digest = prompt_digest(prompt, derive_seed(r["id"], s, 0))
                (fixtures / f"{digest}.txt").write_text(f"<answer> Rome {s} </answer>", "utf-8")

        def pairs(out):
            args = ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
                    "--k", "2", "--out", str(tmp_path / out)]
            assert main(args) == 0
            records = read_rollout_jsonl(tmp_path / out / "rollouts.jsonl")
            return {(r["query"]["id"], s): p for r in records for s, p in enumerate(r["pairs"])}

        valid = pairs("valid")
        bad = digests["q0", 1]
        (fixtures / f"{bad}.txt").write_bytes(b"<answer> Rome \xff </answer>")
        broken = pairs("broken")
        assert broken.pop(("q0", 1))["failure"] == (
            f"primary generation: fixture {bad}.txt is not UTF-8 text"
        )
        del valid["q0", 1]
        assert broken == valid
        assert not any(p["failed"] for p in valid.values())

    @pytest.mark.parametrize("parallel", [1, 2], ids=["serial", "pool"])
    def test_main_prompt_built_once_per_query(
        self, tmp_path, monkeypatch, golden_trace, golden_docs, golden_golds, parallel
    ):
        builds = []
        original = rollout.build_main_prompt
        monkeypatch.setattr(
            rollout, "build_main_prompt", lambda *a: builds.append(a) or original(*a)
        )
        backend = golden_backend(tmp_path, golden_trace)
        golden = golden_query(golden_docs, golden_golds)
        queries = [dataclasses.replace(golden, id=f"case-{i}") for i in range(3)]
        groups = list(run_rollouts(queries, RolloutConfig(k=4, parallel=parallel), backend))
        assert len(builds) == len(queries)
        for query, group in zip(queries, groups):
            assert all(p.breakdown.reinf == 1.0 for p in group.pairs)
            assert [p.seed for p in group.pairs] == [derive_seed(query.id, i, 0) for i in range(4)]

    def test_retry_budget(self, tmp_path):
        from structrl.backends import Generation

        class Flaky:
            def __init__(self, fail_times):
                self.remaining = fail_times

            def generate(self, prompt, sampling):
                if self.remaining > 0:
                    self.remaining -= 1
                    raise BackendError("transient")
                return Generation("<answer> Rome </answer>", None)

        query = QueryInstance("q", "capital?", ("some doc",), ("Rome",))
        ok = rollout_one(query, 0, Flaky(2), RolloutConfig(k=1, retries=2))
        assert not ok.pairs[0].failed
        failed = rollout_one(query, 0, Flaky(2), RolloutConfig(k=1, retries=1))
        assert failed.pairs[0].failed

    def test_pair_serialization_shape(self, tmp_path, golden_trace, golden_docs, golden_golds):
        backend = golden_backend(tmp_path, golden_trace)
        group = rollout_one(
            golden_query(golden_docs, golden_golds), 0, backend, RolloutConfig(k=1)
        )
        d = group.to_dict()
        assert set(d) == {"query", "lambda", "step", "pairs", "advantages"}
        pair = d["pairs"][0]
        assert set(pair) == {
            "primary",
            "primary_validation",
            "reinferred",
            "reinferred_validation",
            "breakdown",
            "logprobs",
            "seed",
            "failed",
            "failure",
        }


class TestRunRollouts:
    def _dataset(self):
        return [
            QueryInstance(f"q{i}", "capital?", (f"marker{i} doc",), ("Rome",))
            for i in range(3)
        ]

    def _rules(self):
        return [
            {"contains": f"marker{i}", "response": "<think>t</think><answer> Rome </answer>"}
            for i in range(3)
        ]

    def _backend(self, tmp_path):
        (tmp_path / "rules.json").write_text(json.dumps(self._rules()), "utf-8")
        return MockBackend(tmp_path)

    def test_order_matches_dataset(self, tmp_path):
        backend = self._backend(tmp_path)
        config = RolloutConfig(k=2, parallel=1)
        groups = list(run_rollouts(self._dataset(), config, backend))
        assert [g.query.id for g in groups] == ["q0", "q1", "q2"]
        assert [g.step for g in groups] == [0, 1, 2]

    def test_parallelism_does_not_change_output(self, tmp_path):
        backend = self._backend(tmp_path)
        serial = [
            g.to_dict()
            for g in run_rollouts(self._dataset(), RolloutConfig(k=2, parallel=1), backend)
        ]
        parallel = [
            g.to_dict()
            for g in run_rollouts(self._dataset(), RolloutConfig(k=2, parallel=4), backend)
        ]
        assert json.dumps(serial) == json.dumps(parallel)

    def test_a_slow_sample_holds_only_its_own_thread(self, tmp_path):
        """At parallelism 2 the samples of q2 run while the first sample of q0
        and of q1 still waits: a straggler does not hold its group's slot."""
        backend = self._backend(tmp_path)
        q2_called = threading.Event()
        waits = []
        stragglers = {derive_seed(f"q{i}", 0, 0) for i in (0, 1)}

        class Straggling:
            def generate(self, prompt, sampling):
                if "marker2" in prompt:
                    q2_called.set()
                elif sampling.seed in stragglers:
                    waits.append(q2_called.wait(timeout=5))
                return backend.generate(prompt, sampling)

        config = RolloutConfig(k=2, parallel=2)
        groups = list(run_rollouts(self._dataset(), config, Straggling()))
        assert waits == [True, True]
        assert [g.query.id for g in groups] == ["q0", "q1", "q2"]

    def test_lambda_schedule_applied_per_step(self, tmp_path):
        backend = self._backend(tmp_path)
        config = RolloutConfig(
            k=1, lambda_schedule=LambdaSchedule(0.0, 0.2, 2)
        )
        groups = list(run_rollouts(self._dataset(), config, backend))
        assert [g.lambda_ for g in groups] == pytest.approx([0.0, 0.1, 0.2])

    @pytest.mark.parametrize(
        "field, value, message",
        [("k", 0, "k must be >= 1, got 0"), ("k", -1, "k must be >= 1, got -1"),
         ("retries", -1, "retries must be >= 0, got -1"),
         ("parallel", 0, "parallel must be >= 1, got 0"),
         ("max_tokens", 0, "max_tokens must be >= 1, got 0"),
         ("temperature", -0.5, "temperature must be >= 0, got -0.5"),
         ("temperature", math.nan, "temperature must be >= 0, got nan"),
         ("temperature", math.inf, "temperature must be finite, got inf"),
         ("temperature", -math.inf, "temperature must be >= 0, got -inf")],
    )
    def test_config_out_of_range_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RolloutConfig(**{field: value})

    def test_empty_dataset_is_empty_stream(self, tmp_path):
        backend = self._backend(tmp_path)
        assert list(run_rollouts([], RolloutConfig(), backend)) == []

    def test_jsonl_round_trip_count(self, tmp_path):
        backend = self._backend(tmp_path)
        groups = run_rollouts(self._dataset(), RolloutConfig(k=2), backend)
        path = tmp_path / "rollouts.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            n = write_rollout_jsonl(fh, [g.to_dict() for g in groups])
        assert n == 3
        assert len(read_rollout_jsonl(path)) == 3

    def test_one_doc_index_per_query(
        self, tmp_path, monkeypatch, golden_trace, golden_docs, golden_golds
    ):
        builds = []
        original = DocIndex.__init__

        def counting_init(self, docs):
            builds.append(tuple(docs))
            original(self, docs)

        monkeypatch.setattr(DocIndex, "__init__", counting_init)
        backend = golden_backend(tmp_path, golden_trace, self._rules())
        queries = [golden_query(golden_docs, golden_golds), *self._dataset()]
        groups = list(run_rollouts(queries, RolloutConfig(k=4), backend))
        # the golden query's samples carry formats, so both passes are validated
        assert all(p.reinferred_validation is not None for p in groups[0].pairs)
        assert builds == [q.docs for q in queries]


@pytest.fixture(scope="module")
def mixed_rollout(tmp_path_factory, golden_trace, golden_docs, golden_golds):
    """A backend and queries whose samples score every way: (1, 1), (1, 0),
    (0, 1) and failed."""
    fixtures = tmp_path_factory.mktemp("mixed")
    wrong = golden_trace.replace(
        "<answer> Así en el cielo como en la tierra </answer>", "<answer> Rome </answer>"
    )
    rules = [
        {"contains": "Doc 1: plain", "response": "<think>t</think><answer> Rome </answer>"},
        {"contains": "Doc 1: wrong", "response": wrong},
    ]
    backend = golden_backend(fixtures, golden_trace, rules)
    queries = [
        golden_query(golden_docs, golden_golds),
        QueryInstance("plain", "capital?", ("plain doc",), ("Rome",)),
        QueryInstance("wrong", QUESTION, ("wrong doc", *golden_docs), tuple(golden_golds)),
        QueryInstance("missed", "capital?", ("no rule matches",), ("Rome",)),
    ]
    return backend, queries


class TestRescore:
    def test_lambda_zero_collapses_to_direct(self, tmp_path, golden_trace, golden_docs, golden_golds):
        backend = golden_backend(tmp_path, golden_trace)
        group = rollout_one(
            golden_query(golden_docs, golden_golds), 0, backend, RolloutConfig(k=2)
        )
        records = [group.to_dict()]
        rescored = rescore_records(records, 0.0)
        for pair in rescored[0]["pairs"]:
            assert pair["breakdown"]["total"] == pair["breakdown"]["direct"]
            assert pair["breakdown"]["lambda"] == 0.0

    def test_rescoring_never_touches_generation(self, tmp_path, golden_trace, golden_docs, golden_golds):
        backend = golden_backend(tmp_path, golden_trace)
        group = rollout_one(
            golden_query(golden_docs, golden_golds), 0, backend, RolloutConfig(k=2)
        )
        records = [group.to_dict()]
        rescored = rescore_records(records, 0.5)
        assert rescored[0]["pairs"][0]["primary"] == records[0]["pairs"][0]["primary"]
        assert records[0]["pairs"][0]["breakdown"]["lambda"] == 0.2

    @pytest.fixture()
    def records(self, tmp_path, golden_trace, golden_docs, golden_golds):
        backend = golden_backend(tmp_path, golden_trace)
        group = rollout_one(
            golden_query(golden_docs, golden_golds), 0, backend, RolloutConfig(k=3)
        )
        record = json.loads(json.dumps(group.to_dict()))
        # a second group whose samples score differently, so advantages are not all 0
        other = copy.deepcopy(record)
        other["pairs"][1]["breakdown"].update(direct=0.0, reinf=1.0)
        other["pairs"][2]["breakdown"].update(direct=0.0, reinf=0.0)
        return [record, other]

    def test_generation_fields_are_shared(self, records):
        rescored = rescore_records(records, 0.5)
        for new, old in zip(rescored, records):
            assert new["query"] is old["query"]
            for new_pair, old_pair in zip(new["pairs"], old["pairs"]):
                assert new_pair["primary"] is old_pair["primary"]
                assert new_pair["logprobs"] is old_pair["logprobs"]
                assert new_pair["breakdown"] is not old_pair["breakdown"]

    def test_input_records_are_not_mutated(self, records):
        before = copy.deepcopy(records)
        rescore_records(records, 0.5)
        assert records == before

    def test_later_call_leaves_earlier_output_alone(self, records):
        first = rescore_records(records, 0.2)
        snapshot = copy.deepcopy(first)
        rescore_records(records, 1.5)
        assert first == snapshot

    @pytest.mark.parametrize("lambda_", [0.0, 0.05, 0.2, 1.5])
    def test_matches_deep_copy_rescoring(self, records, lambda_):
        """Same records, in the same key order, as re-scoring a JSON round trip."""
        expected = []
        for record in records:
            new = json.loads(json.dumps(record))
            totals = []
            for pair in new["pairs"]:
                b = pair["breakdown"]
                breakdown = combined_reward(b["direct"], b["reinf"], lambda_)
                pair["breakdown"] = breakdown.to_dict()
                totals.append(breakdown.total)
            new["lambda"] = lambda_
            new["advantages"] = list(group_advantages(totals).advantages)
            expected.append(new)
        rescored = rescore_records(records, lambda_)
        assert json.dumps(rescored) == json.dumps(expected)
        assert any(a != 0 for r in rescored for a in r["advantages"])

    @given(
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_rescored_records_equal_a_rollout_at_the_new_lambda(self, mixed_rollout, a, b):
        """Prompts and seeds do not depend on lambda, so sweep-lambda's
        re-scoring reproduces a rollout run at the new lambda byte for byte."""
        backend, queries = mixed_rollout

        def rollout_at(lambda_):
            config = RolloutConfig(k=3, lambda_schedule=LambdaSchedule(lambda_, lambda_, 1))
            return run_rollouts(queries, config, backend)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rollouts.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                write_rollout_jsonl(fh, [g.to_dict() for g in rollout_at(a)])
            rescored = rescore_records(read_rollout_jsonl(path), b)
        rerun = [g.to_dict() for g in rollout_at(b)]
        assert json.dumps(rescored, ensure_ascii=False) == json.dumps(rerun, ensure_ascii=False)
        scores = {(p["breakdown"]["direct"], p["breakdown"]["reinf"]) for r in rerun for p in r["pairs"]}
        assert scores == {(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)}
