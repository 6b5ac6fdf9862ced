"""End-to-end tests for the command line interface.

Commands are invoked in-process through main() so exit codes and
stdout/stderr are observable without subprocesses; only the checks of what
importing and running the CLI loads use a fresh interpreter.
"""
import copy
import dataclasses
import gzip
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structrl import cli
from structrl.backends import BACKEND_KINDS, prompt_digest
from structrl.cli import SETTINGS, build_parser, main, parse_schedule, resolve_config
from structrl.grpo import ObjectiveConfig
from structrl.prompting import build_main_prompt, build_reinference_prompt
from structrl.reward import LambdaSchedule
from structrl.rollout import RolloutConfig, derive_seed, read_rollout_jsonl
from structrl.trajectory import extract_formats, parse_trajectory
from test_streamed_artifacts import _versions

README = Path(__file__).resolve().parent.parent / "README.md"

QUESTION = (
    "Which film has the director born later, The Girl In Possession "
    "or Así En El Cielo Como En La Tierra?"
)

REINF_ANSWER = (
    "<think>The dates show 1947 is later than 1897, so the second film's "
    "director was born later.</think>\n"
    "<answer> Así en el cielo como en la tierra </answer>"
)

PLAIN_RESPONSE = "<think>easy</think>\n<answer> Rome </answer>"

# any decoded JSON value, NaN and infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds):
    """Mock backend rules plus a two-query dataset file."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir(exist_ok=True)
    rules = [
        {"contains": "Doc 1: The Girl in Possession", "response": golden_trace},
        {"contains": "- Monty Banks: 1897-07-15", "response": REINF_ANSWER},
        {"contains": "Doc 1: plain doc", "response": PLAIN_RESPONSE},
    ]
    (fixtures / "rules.json").write_text(json.dumps(rules), "utf-8")
    dataset = tmp_path / "dataset.jsonl"
    records = [
        {
            "id": "case-study",
            "question": QUESTION,
            "docs": list(golden_docs),
            "golden_answers": list(golden_golds),
        },
        {
            "id": "plain",
            "question": "What is the capital of Italy?",
            "docs": ["plain doc"],
            "golden_answers": ["Rome"],
        },
    ]
    dataset.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
    return dataset, fixtures


# (direct answer, answer re-inferred from a format block, or None for no
# block) of each sample; a query's samples start one kind further along
SAMPLE_KINDS = [("Rome", "Rome"), ("Rome", None), ("Milan", "Rome"), (None, None), ("Rome", "Milan")]


def write_digest_fixtures(tmp_path):
    """Three queries whose K=4 calls are answered by the fixture keyed on their
    own prompt and sample seed, so the rewards of each group differ. The last
    sample of the last query has no fixture, so its pair fails and carries
    no log-probs."""
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    records = []
    for q in range(3):
        record = {"id": f"q{q}", "question": f"Where is landmark {q}?",
                  "docs": [f"Landmark {q} stands in Rome.", "An unrelated note."],
                  "golden_answers": ["Rome"]}
        records.append(record)
        prompt = build_main_prompt(record["question"], record["docs"])
        for s in range(4):
            if (q, s) == (2, 3):
                continue
            direct, structured = SAMPLE_KINDS[(q + s) % len(SAMPLE_KINDS)]
            seed = derive_seed(record["id"], s, 0)
            parts = [f"<think>sample {s}</think>"]
            if structured is not None:
                parts.append(f"<format: Table>\n| landmark {q} | city | {structured} |\n</format: Table>")
            if direct is not None:
                parts.append(f"<answer> {direct} </answer>")
            text = "\n".join(parts)
            (fixtures / f"{prompt_digest(prompt, seed)}.txt").write_text(text, "utf-8")
            if structured is not None:
                formats = extract_formats(parse_trajectory(text))
                reinf_prompt = build_reinference_prompt(record["question"], formats)
                (fixtures / f"{prompt_digest(reinf_prompt, seed)}.txt").write_text(
                    f"<think>from the table</think>\n<answer> {structured} </answer>", "utf-8"
                )
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    return dataset, fixtures


def run_rollout_cli(tmp_path, dataset, fixtures, out_name, extra=()):
    out_dir = tmp_path / out_name
    code = main(
        [
            "rollout",
            "--dataset", str(dataset),
            "--fixtures", str(fixtures),
            "--k", "2",
            "--out", str(out_dir),
            *extra,
        ]
    )
    assert code == 0
    return out_dir


class TestParseSchedule:
    def test_constant(self):
        assert parse_schedule("constant:0.3") == LambdaSchedule(0.3, 0.3, 1)

    def test_linear(self):
        assert parse_schedule("linear:0:0.2:100") == LambdaSchedule(0.0, 0.2, 100)

    @pytest.mark.parametrize("value", [0.3, "0.3"], ids=["number", "string"])
    def test_bare_number_is_constant(self, value):
        assert parse_schedule(value) == parse_schedule("constant:0.3")

    @pytest.mark.parametrize(
        "text", ["", "constant", "constant:x", "linear:1:2", "cosine:0:1:5"]
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_schedule(text)


class TestResolveConfig:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def base_argv(self, **overrides):
        argv = ["rollout", "--dataset", "d.jsonl", "--out", "out"]
        for flag, value in overrides.items():
            argv += [flag, value]
        return argv

    def test_defaults_apply(self):
        resolved = resolve_config(self.parse(self.base_argv()))
        assert resolved["k"] == SETTINGS["k"][1]
        assert resolved["lambda"] == SETTINGS["lambda"][1]
        assert resolved["backend"] == "mock"

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "lambda": 0.5}), "utf-8")
        resolved = resolve_config(self.parse(self.base_argv(**{"--config": str(cfg)})))
        assert resolved["k"] == 3
        assert resolved["lambda"] == 0.5

    def test_env_overrides_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"endpoint": "http://from-file"}), "utf-8")
        monkeypatch.setenv("STRUCTRL_ENDPOINT", "http://from-env")
        resolved = resolve_config(self.parse(self.base_argv(**{"--config": str(cfg)})))
        assert resolved["endpoint"] == "http://from-env"

    def test_flag_overrides_everything(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "endpoint": "http://from-file"}), "utf-8")
        monkeypatch.setenv("STRUCTRL_ENDPOINT", "http://from-env")
        args = self.parse(
            self.base_argv(**{"--config": str(cfg), "--k": "5", "--endpoint": "http://flag"})
        )
        resolved = resolve_config(args)
        assert resolved["k"] == 5
        assert resolved["endpoint"] == "http://flag"

    def test_lambda_flag_maps_to_lambda_key(self):
        resolved = resolve_config(self.parse(self.base_argv(**{"--lambda": "0.4"})))
        assert resolved["lambda"] == 0.4

    def test_integer_for_a_float_setting_resolves_as_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature": 1, "lambda": 1}), "utf-8")
        resolved = resolve_config(self.parse(self.base_argv(**{"--config": str(cfg)})))
        assert type(resolved["temperature"]) is float and resolved["temperature"] == 1.0
        assert type(resolved["lambda"]) is int

    @staticmethod
    def has_type(name, value):
        """Whether ``value`` has the type of setting ``name`` in SETTINGS."""
        kind, default = SETTINGS[name]
        if value is None or isinstance(value, bool):
            return value is None and default is None
        if kind in (int, float, str):
            return isinstance(value, kind)
        return isinstance(value, (int, float, str))  # lambda: a number or a schedule

    @classmethod
    def in_range(cls, name, value):
        """Whether ``value`` has the type of setting ``name`` and, for a
        bounded setting, is finite and at least its least value; for lambda,
        whether it is a schedule; for backend, whether it is a kind of one."""
        least = {**RolloutConfig.LEAST, **ObjectiveConfig.LEAST}
        if name == "lambda" and cls.has_type(name, value):
            try:
                parse_schedule(value)
            except ValueError:
                return False
        if name == "backend":
            return value in BACKEND_KINDS
        return cls.has_type(name, value) and (name not in least or least[name] <= value < math.inf)

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        name=st.sampled_from(sorted(SETTINGS)),
        value=JSON_VALUES,
    )
    def test_config_value_resolves_typed_or_fails_naming_the_file(
        self, tmp_path, monkeypatch, name, value
    ):
        """Only resolve_config runs, so no drawn k or parallel starts a thread."""
        monkeypatch.delenv("STRUCTRL_ENDPOINT", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}), "utf-8")
        args = self.parse(self.base_argv(**{"--config": str(cfg)}))
        try:
            resolved = resolve_config(args)
        except ValueError as exc:
            assert str(exc).startswith(f"{cfg}: config key {name!r} ")
            assert not self.in_range(name, value)
            return
        assert all(self.in_range(key, resolved[key]) for key in SETTINGS)
        want = float(value) if SETTINGS[name][0] is float else value
        assert resolved[name] == want or want != want  # NaN equals nothing


class TestRolloutCommand:
    def test_writes_outputs_and_summary(
        self, tmp_path, capsys, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        out_dir = run_rollout_cli(tmp_path, dataset, fixtures, "out")
        assert (out_dir / "rollouts.jsonl").is_file()
        assert (out_dir / "training_signals.jsonl").is_file()
        assert (out_dir / "resolved_config.json").is_file()
        assert (out_dir / "run.log").is_file()
        summary = capsys.readouterr().out
        assert "groups=2 samples=4" in summary
        assert "with_formats=50.0%" in summary

    def test_rerun_is_byte_identical(
        self, tmp_path, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        first = run_rollout_cli(tmp_path, dataset, fixtures, "a")
        second = run_rollout_cli(tmp_path, dataset, fixtures, "b")
        for name in ("rollouts.jsonl", "training_signals.jsonl"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_failed_pairs_do_not_depend_on_how_the_fixture_path_is_spelled(
        self, tmp_path, monkeypatch
    ):
        write_digest_fixtures(tmp_path)
        monkeypatch.chdir(tmp_path)
        relative = run_rollout_cli(
            tmp_path, Path("dataset.jsonl"), Path("fixtures"), "relative", extra=["--k", "4"]
        )
        absolute = run_rollout_cli(
            tmp_path, tmp_path / "dataset.jsonl", tmp_path / "fixtures", "absolute",
            extra=["--k", "4"],
        )
        records = read_rollout_jsonl(relative / "rollouts.jsonl")
        assert [p["failure"] for r in records for p in r["pairs"] if p["failed"]]
        assert (relative / "rollouts.jsonl").read_bytes() == (absolute / "rollouts.jsonl").read_bytes()

    def test_dataset_of_blank_lines_writes_empty_artifacts(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("\n\n", "utf-8")
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        out_dir = run_rollout_cli(tmp_path, dataset, fixtures, "out")
        assert capsys.readouterr().out == "groups=0 samples=0\n"
        assert (out_dir / "rollouts.jsonl").read_bytes() == b""
        assert (out_dir / "training_signals.jsonl").read_bytes() == b""

    def test_parallel_matches_serial(
        self, tmp_path, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        serial = run_rollout_cli(tmp_path, dataset, fixtures, "serial")
        parallel = run_rollout_cli(
            tmp_path, dataset, fixtures, "parallel", extra=["--parallel", "4"]
        )
        assert (serial / "rollouts.jsonl").read_bytes() == (
            parallel / "rollouts.jsonl"
        ).read_bytes()

    def test_resolved_config_records_flags(
        self, tmp_path, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        out_dir = run_rollout_cli(
            tmp_path, dataset, fixtures, "out", extra=["--seed", "9"]
        )
        recorded = json.loads((out_dir / "resolved_config.json").read_text("utf-8"))
        assert recorded == {
            "command": "rollout",
            "backend": "mock",
            "endpoint": None,
            "fixtures": str(fixtures),
            "model": "default",
            "k": 2,
            "lambda": 0.2,
            "epsilon": 0.2,
            "beta": 0.001,
            "seed": 9,
            "parallel": 1,
            "temperature": 1.0,
            "max_tokens": 1024,
            "retries": 2,
            "dataset": str(dataset),
            "out": str(out_dir),
        }
        assert list(recorded) == ["command", *SETTINGS, "dataset", "out"]

    def test_resolved_config_passed_back_reproduces_the_run(
        self, tmp_path, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        first = run_rollout_cli(
            tmp_path, dataset, fixtures, "a",
            extra=["--seed", "9", "--lambda", "0.3", "--parallel", "2"],
        )
        second = tmp_path / "b"
        code = main(
            ["rollout", "--dataset", str(dataset), "--out", str(second),
             "--config", str(first / "resolved_config.json")]
        )
        assert code == 0
        assert (first / "rollouts.jsonl").read_bytes() == (second / "rollouts.jsonl").read_bytes()

    def test_lambda_flag_beats_a_schedule_in_the_config_file(
        self, tmp_path, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": "constant:0.1"}), "utf-8")
        for out_name, extra, want in [
            ("file", [], 0.1), ("flag", ["--lambda", "0.3"], 0.3)
        ]:
            out_dir = run_rollout_cli(
                tmp_path, dataset, fixtures, out_name, extra=["--config", str(cfg), *extra]
            )
            records = read_rollout_jsonl(out_dir / "rollouts.jsonl")
            assert [r["lambda"] for r in records] == [want, want]
            assert {p["breakdown"]["lambda"] for r in records for p in r["pairs"]} == {want}

    def test_lambda_flag_takes_a_linear_schedule(
        self, tmp_path, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        out_dir = run_rollout_cli(
            tmp_path, dataset, fixtures, "out", extra=["--lambda", "linear:0:0.2:2"]
        )
        records = read_rollout_jsonl(out_dir / "rollouts.jsonl")
        assert [(r["step"], r["lambda"]) for r in records] == [(0, 0.0), (1, 0.1)]
        recorded = json.loads((out_dir / "resolved_config.json").read_text("utf-8"))
        assert recorded["lambda"] == "linear:0:0.2:2"
        assert "config" not in recorded
        assert parse_schedule(recorded["lambda"]) == LambdaSchedule(0.0, 0.2, 2)

    @pytest.mark.parametrize("key", ["lambda_schedule", "format"])
    def test_unknown_config_key_exits_nonzero(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds, key
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "constant:0.1"}), "utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--config", str(cfg), "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key {key!r}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_fixtures_path_that_is_not_a_directory_exits_before_out(
        self, tmp_path, capsys, golden_trace, golden_docs, golden_golds, kind
    ):
        dataset, _ = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        fixtures = tmp_path / "not-fixtures"
        if kind == "file":
            fixtures.write_text("[]", "utf-8")
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {fixtures}: fixtures path is not a directory\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--k", "0", "k must be >= 1, got 0"), ("--retries", "-1", "retries must be >= 0, got -1"),
         ("--parallel", "0", "parallel must be >= 1, got 0"),
         ("--max-tokens", "-5", "max_tokens must be >= 1, got -5"),
         ("--temperature", "-1", "temperature must be >= 0, got -1.0"),
         ("--temperature", "nan", "temperature must be >= 0, got nan"),
         # argparse alone would read these two values as options
         ("--temperature", "-inf", "temperature must be >= 0, got -inf"),
         ("--temperature", "-1e3", "temperature must be >= 0, got -1000.0"),
         ("--epsilon", "-1", "epsilon must be >= 0, got -1.0"),
         ("--beta", "-2", "beta must be >= 0, got -2.0"),
         ("--temperature", "inf", "temperature must be finite, got inf"),
         ("--epsilon", "inf", "epsilon must be finite, got inf"),
         ("--beta", "inf", "beta must be finite, got inf")],
    )
    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_out_of_range_setting_exits_before_building_anything(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds,
        parallel, flag, value, message,
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        # the setting under test comes last, so it wins over --parallel
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--parallel", parallel, flag, value, "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("k", 0, "must be >= 1, got 0"),
         ("parallel", 0, "must be >= 1, got 0"), ("max_tokens", 0, "must be >= 1, got 0"),
         ("temperature", -0.5, "must be >= 0, got -0.5"), ("beta", -1, "must be >= 0, got -1.0"),
         # json writes and reads an infinity as the bare word Infinity
         ("temperature", math.inf, "must be finite, got inf"),
         ("epsilon", math.inf, "must be finite, got inf"),
         # lambda is checked as the schedule it names
         ("lambda", -0.5, "must be >= 0, got -0.5"),
         ("lambda", "linear:0:-0.2:4", "must be >= 0, got -0.2"),
         ("lambda", "constant:inf", "must be finite, got inf"),
         ("lambda", "linear:0:0.2:0", "steps must be >= 1, got 0"),
         ("lambda", "cosine:0:1:5", "must be V, constant:V or linear:START:END:STEPS, "
                                    "got 'cosine:0:1:5'"),
         # backend is checked against the kinds make_backend builds
         ("backend", "mock2", 'must be "mock" or "http", got "mock2"')],
    )
    def test_out_of_range_setting_in_a_config_file_exits_before_building_anything(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds,
        key, value, message,
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), "utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--config", str(cfg), "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: config key {key!r} {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value, flag, message",
        [("k", 0, ["--k", "4"], "must be >= 1, got 0"),
         ("lambda", -0.5, ["--lambda", "0.2"], "must be >= 0, got -0.5")],
    )
    def test_out_of_range_config_value_fails_even_when_a_flag_overrides_it(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds,
        key, value, flag, message,
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), "utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--config", str(cfg), *flag, "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: config key {key!r} {message}\n"
        assert not out_dir.exists()

    def test_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        code = main(
            [
                "rollout",
                "--dataset", str(tmp_path / "absent.jsonl"),
                "--fixtures", str(tmp_path),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_endpoint_that_is_not_an_http_url_exits_nonzero(
        self, tmp_path, capsys, golden_trace, golden_docs, golden_golds
    ):
        dataset, _ = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--backend", "http", "--endpoint", "localhost:8000/v1/completions",
             "--dataset", str(dataset), "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: endpoint 'localhost:8000/v1/completions' is not an http:// or https:// URL\n"
        )
        assert not (out_dir / "rollouts.jsonl").exists()

    @pytest.mark.parametrize(
        "value, message",
        [("-0.5", "lambda must be >= 0, got -0.5"),
         ("linear:0:0.2:0", "lambda steps must be >= 1, got 0"),
         ("linear:0:-0.2:4", "lambda must be >= 0, got -0.2"),
         ("nan", "lambda must be >= 0, got nan"),
         ("inf", "lambda must be finite, got inf"),
         ("linear:0:inf:4", "lambda must be finite, got inf")],
        ids=["negative", "zero-steps", "negative-linear-end", "nan", "inf", "infinite-linear-end"],
    )
    def test_lambda_out_of_range_keeps_its_message(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds,
        value, message,
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--lambda", value, "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"k": None}, "config key 'k' must be an integer, got null"),
            ({"k": 2.7}, "config key 'k' must be an integer, got 2.7"),
            ({"k": True}, "config key 'k' must be an integer, got true"),
            ({"k": "3"}, 'config key \'k\' must be an integer, got "3"'),
            ({"parallel": [2]}, "config key 'parallel' must be an integer, got [2]"),
            ({"endpoint": 5}, "config key 'endpoint' must be a string, got 5"),
            # too large for a float
            ({"temperature": 10**400},
             f"config key 'temperature' must be a number, got 1{'0' * 400}"),
            ([{"k": 2}], "config must be a JSON object"),
        ],
        ids=["k-null", "k-float", "k-bool", "k-string", "parallel-list", "endpoint-number",
             "temperature-overflow", "not-an-object"],
    )
    def test_config_value_of_the_wrong_type_exits_before_any_output(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds,
        config, message,
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), "utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--config", str(cfg), "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not out_dir.exists()

    def test_config_file_that_is_not_json_names_file_and_line(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 2\n "seed" 1}', "utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--config", str(cfg), "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cfg} line 2: invalid JSON: Expecting ',' delimiter\n"
        )
        assert not out_dir.exists()

    def test_unknown_backend_exits_1_before_any_output(
        self, tmp_path, capsys, golden_trace, golden_docs, golden_golds
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures),
             "--backend", "x", "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: unknown backend kind 'x'\n"
        assert not out_dir.exists()

    def rollout_with_bad_field(
        self, tmp_path, monkeypatch, golden_trace, golden_docs, golden_golds, field, value
    ):
        """Roll out a dataset whose line 2 sets ``field`` to ``value``; it must
        fail at load, before any backend or output exists."""
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        first, second = dataset.read_text("utf-8").splitlines()
        bad = {**json.loads(second), field: value}
        dataset.write_text(first + "\n" + json.dumps(bad) + "\n", "utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda *a, **kw: pytest.fail("backend built"))
        out_dir = tmp_path / "out"
        code = main(
            ["rollout", "--dataset", str(dataset), "--fixtures", str(fixtures), "--out", str(out_dir)]
        )
        assert code == 1
        assert not out_dir.exists()
        return dataset

    @pytest.mark.parametrize("field", ["docs", "golden_answers"])
    def test_empty_field_fails_at_load_with_line(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds, field
    ):
        dataset = self.rollout_with_bad_field(
            tmp_path, monkeypatch, golden_trace, golden_docs, golden_golds, field, []
        )
        assert capsys.readouterr().err == f"error: {dataset} line 2: field '{field}' is empty\n"

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("question", 5, "a string"),
            ("docs", "abc", "a list of strings"),
            ("docs", ["d", None], "a list of strings"),
            ("golden_answers", [3], "a list of strings"),
            ("golden_answers", "Rome", "a list of strings"),
        ],
        ids=["question-number", "docs-string", "docs-null-item", "golds-number", "golds-string"],
    )
    def test_wrong_type_fails_at_load_with_line(
        self, tmp_path, capsys, monkeypatch, golden_trace, golden_docs, golden_golds,
        field, value, expected,
    ):
        dataset = self.rollout_with_bad_field(
            tmp_path, monkeypatch, golden_trace, golden_docs, golden_golds, field, value
        )
        assert capsys.readouterr().err == (
            f"error: {dataset} line 2: field '{field}' must be {expected}\n"
        )


class TestScoreExport:
    def test_matches_rollout_signals(
        self, tmp_path, golden_trace, golden_docs, golden_golds, capsys
    ):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        # a third query whose second sample finds no response, so its pair
        # fails and carries no log-probs
        partial = {"id": "partial", "question": "Where?", "docs": ["lone doc"],
                   "golden_answers": ["Rome"]}
        with open(dataset, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(partial) + "\n")
        prompt = build_main_prompt(partial["question"], partial["docs"])
        (fixtures / f"{prompt_digest(prompt, derive_seed('partial', 0, 0))}.txt").write_text(
            PLAIN_RESPONSE, "utf-8"
        )
        out_dir = run_rollout_cli(tmp_path, dataset, fixtures, "out")
        last = json.loads((out_dir / "rollouts.jsonl").read_text("utf-8").splitlines()[-1])
        assert [p["failed"] for p in last["pairs"]] == [False, True]
        assert last["pairs"][1]["logprobs"] is None
        exported = tmp_path / "signals.jsonl"
        code = main(
            [
                "score-export",
                "--rollouts", str(out_dir / "rollouts.jsonl"),
                "--out", str(exported),
            ]
        )
        assert code == 0
        assert exported.read_bytes() == (out_dir / "training_signals.jsonl").read_bytes()
        assert "objective=" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--epsilon", "-1", "epsilon must be >= 0, got -1.0"),
         ("--beta", "-2", "beta must be >= 0, got -2.0"),
         ("--beta", "-inf", "beta must be >= 0, got -inf"),
         ("--beta", "inf", "beta must be finite, got inf")],
    )
    def test_out_of_range_setting_fails_before_reading(
        self, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "signals.jsonl"
        code = main(["score-export", "--rollouts", str(tmp_path / "absent.jsonl"),
                     flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_signal_bytes_are_pinned(self, tmp_path, parallel):
        """The rollout's two artifacts and a clipping score-export, pinned across versions."""
        write_digest_fixtures(tmp_path)
        out_dir = run_rollout_cli(
            tmp_path, tmp_path / "dataset.jsonl", tmp_path / "fixtures", "out",
            extra=["--k", "4", "--parallel", parallel],
        )
        clipped = tmp_path / "clipped.jsonl"
        code = main(["score-export", "--rollouts", str(out_dir / "rollouts.jsonl"),
                     "--epsilon", "0.001", "--beta", "0.5", "--out", str(clipped)])
        assert code == 0
        signals = [json.loads(line) for line in clipped.read_text("utf-8").splitlines()]
        # unequal rewards in every group, and clipping that fires, so the pins
        # cover advantages, ratios and clipped terms
        for qid in ("q0", "q1", "q2"):
            assert len({s["reward"] for s in signals if s["query_id"] == qid}) > 1
        assert any(s["clipped_term"] != s["ratio"] * s["advantage"] for s in signals)
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (out_dir / "rollouts.jsonl", out_dir / "training_signals.jsonl", clipped)
        }
        assert digests == {
            "rollouts.jsonl": "2440246d9d6bc1af70fe92dbd8b9b432c6fa11c10fb8de09cb4916f3cb88ddd7",
            "training_signals.jsonl": "7da2dfa78856311fcdce343e9254844fa9a2b114c67429219194a7de7a4b7f91",
            "clipped.jsonl": "207ae3adfedb4faeccdba47ee11b8a62383c2469d84ecc3e3cb1dfa0a6233c67",
        }, _versions()

    def test_empty_rollout_file(self, tmp_path, capsys):
        empty = tmp_path / "rollouts.jsonl"
        empty.write_text("", "utf-8")
        out = tmp_path / "signals.jsonl"
        code = main(["score-export", "--rollouts", str(empty), "--out", str(out)])
        assert code == 0
        assert out.read_text("utf-8") == ""
        assert "groups=0" in capsys.readouterr().out


class TestSweepLambda:
    def rollouts(self, tmp_path, golden_trace, golden_docs, golden_golds):
        dataset, fixtures = write_fixtures(tmp_path, golden_trace, golden_docs, golden_golds)
        out_dir = run_rollout_cli(tmp_path, dataset, fixtures, "out")
        return out_dir / "rollouts.jsonl"

    def test_zero_lambda_row_equals_direct(
        self, tmp_path, capsys, golden_trace, golden_docs, golden_golds
    ):
        rollouts = self.rollouts(tmp_path, golden_trace, golden_docs, golden_golds)
        capsys.readouterr()
        code = main(
            [
                "sweep-lambda",
                "--rollouts", str(rollouts),
                "--values", "0,0.2",
                "--format", "json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["lambda"] == 0.0
        assert rows[0]["mean_total"] == rows[0]["mean_direct"]
        gap = rows[1]["mean_total"] - rows[1]["mean_direct"]
        assert gap == pytest.approx(0.2 * rows[1]["mean_reinf"], abs=1e-12)

    def test_lambda_that_is_not_finite_fails_before_reading(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.txt"
        code = main(
            ["sweep-lambda", "--rollouts", str(tmp_path / "absent.jsonl"),
             "--values", "0.2,nan", "--out", str(out_file)]
        )
        assert code == 1
        assert capsys.readouterr() == ("", "error: lambda must be >= 0, got nan\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("values, item", [("0.1,,0.2", ""), ("0.1,x", "x"), ("", "")])
    def test_value_that_is_not_a_number_names_the_flag(self, tmp_path, capsys, values, item):
        code = main(
            ["sweep-lambda", "--rollouts", str(tmp_path / "absent.jsonl"), "--values", values]
        )
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: --values: bad lambda {item!r} in {values!r}\n"
        )

    def test_csv_format_and_out_file(
        self, tmp_path, capsys, golden_trace, golden_docs, golden_golds
    ):
        rollouts = self.rollouts(tmp_path, golden_trace, golden_docs, golden_golds)
        capsys.readouterr()
        out_file = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep-lambda",
                "--rollouts", str(rollouts),
                "--values", "0,0.1",
                "--format", "csv",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        text = out_file.read_text("utf-8")
        assert text.splitlines()[0] == "lambda,mean_total,mean_direct,mean_reinf"
        assert len(text.splitlines()) == 3
        assert capsys.readouterr().out == text


class TestEvalCommand:
    def dataset(self, tmp_path):
        path = tmp_path / "eval_dataset.jsonl"
        records = [
            {"id": "q1", "question": "?", "docs": ["d"], "golden_answers": ["Paris"]},
            {"id": "q2", "question": "?", "docs": ["d"], "golden_answers": ["Rome"]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
        return path

    def test_reports_metrics(self, tmp_path, capsys):
        dataset = self.dataset(tmp_path)
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(
            json.dumps({"id": "q1", "prediction": "paris"}) + "\n"
            + json.dumps({"id": "q2", "prediction": "Milan"}) + "\n",
            "utf-8",
        )
        code = main(
            [
                "eval",
                "--predictions", str(predictions),
                "--dataset", str(dataset),
                "--format", "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eval_dataset"]["em"] == "50.00"
        assert payload["eval_dataset"]["n"] == 2

    def test_unknown_id_exits_nonzero(self, tmp_path, capsys):
        dataset = self.dataset(tmp_path)
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(
            json.dumps({"id": "q1", "prediction": "x"}) + "\n"
            + json.dumps({"id": "zz", "prediction": "x"}) + "\n",
            "utf-8",
        )
        code = main(
            ["eval", "--predictions", str(predictions), "--dataset", str(dataset)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {predictions} line 2: unknown prediction id 'zz'\n"
        )

    def test_repeated_prediction_id_names_file_and_line(self, tmp_path, capsys):
        # counted once per line, q1 would score n 3 and EM 66.67 in place of n 2 and EM 50.00
        dataset = self.dataset(tmp_path)
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(
            "".join(json.dumps({"id": qid, "prediction": prediction}) + "\n"
                    for qid, prediction in [("q1", "paris"), ("q1", "paris"), ("q2", "Milan")]),
            "utf-8",
        )
        code = main(
            ["eval", "--predictions", str(predictions), "--dataset", str(dataset)]
        )
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {predictions} line 2: duplicate prediction id 'q1'\n"
        )

    def test_prediction_that_is_not_a_string_names_file_and_line(self, tmp_path, capsys):
        dataset = self.dataset(tmp_path)
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text(
            json.dumps({"id": "q1", "prediction": "x"}) + "\n"
            + json.dumps({"id": "q2", "prediction": 5}) + "\n",
            "utf-8",
        )
        code = main(
            ["eval", "--predictions", str(predictions), "--dataset", str(dataset)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {predictions} line 2: field 'prediction' must be a string\n"
        )


class TestDensityCommand:
    def test_synthetic_report_validates_against_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["density", "--synthetic", "--n", "5", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert "instances=5 pass=5" in capsys.readouterr().out
        schema = json.loads(
            resources.files("structrl.schemas")
            .joinpath("density_report.schema.json")
            .read_text("utf-8")
        )
        jsonschema.validate(json.loads(out.read_text("utf-8")), schema)

    def test_corpus_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        record = {
            "facts": ["f1 q", "f2 w"],
            "raw_docs": " ".join(["pad"] * 20) + " f1 q f2 w",
            "candidates": [
                {"label": "Table", "body": "f1 q f2 w hdr hdr"},
                {"label": "timeline", "body": "f1 q f2 w"},
            ],
        }
        corpus.write_text(json.dumps(record) + "\n", "utf-8")
        code = main(["density", "--corpus", str(corpus)])
        assert code == 0
        assert "pass=1" in capsys.readouterr().out

    def test_synthetic_report_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["density", "--synthetic", "--n", "50", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2d9bed83b9e19918dc53a8416a8d242879b578c73e57d39461224dbdd60d5c7a"
        ), _versions()

    def test_negative_count_rejected(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["density", "--synthetic", "--n", "-5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: n must be >= 0, got -5\n")
        assert not out.exists()

    def test_needs_source(self, capsys):
        code = main(["density"])
        assert code == 1
        assert "--corpus or --synthetic" in capsys.readouterr().err

    def test_refuses_both_sources_before_reading(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["density", "--corpus", str(tmp_path / "absent.jsonl"),
                     "--synthetic", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: density needs either --corpus or --synthetic\n"
        assert not out.exists()


class TestValidateCommand:
    def test_clean_trace(self, tmp_path, capsys, golden_trace, golden_docs):
        trajectories = tmp_path / "traces.jsonl"
        trajectories.write_text(json.dumps(golden_trace) + "\n", "utf-8")
        docs = tmp_path / "docs.json"
        docs.write_text(json.dumps(golden_docs), "utf-8")
        code = main(
            ["validate", "--trajectories", str(trajectories), "--docs", str(docs)]
        )
        assert code == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["is_clean"] is True
        assert line["violations"] == []

    def test_strict_flags_placeholder_answer(self, tmp_path, capsys):
        trajectories = tmp_path / "traces.jsonl"
        trajectories.write_text(
            json.dumps("<think>x</think><answer>and</answer>") + "\n", "utf-8"
        )
        code = main(
            ["validate", "--trajectories", str(trajectories), "--strict"]
        )
        assert code == 1
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert line["is_clean"] is False

    def test_non_strict_returns_zero_on_findings(self, tmp_path, capsys):
        trajectories = tmp_path / "traces.jsonl"
        trajectories.write_text(json.dumps("<think>only thinking</think>") + "\n", "utf-8")
        code = main(["validate", "--trajectories", str(trajectories)])
        assert code == 0
        line = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "NoAnswer" in [v["rule_id"] for v in line["violations"]]

    @pytest.mark.parametrize(
        "text",
        ['{"doc one": 1}', '["doc one", 5]', '"doc one"', "[not json"],
        ids=["object", "number-item", "string", "invalid-json"],
    )
    def test_docs_that_are_not_a_list_of_strings_name_the_file(self, tmp_path, capsys, text):
        trajectories = tmp_path / "traces.jsonl"
        trajectories.write_text(json.dumps("<answer>x</answer>") + "\n", "utf-8")
        docs = tmp_path / "docs.json"
        docs.write_text(text, "utf-8")
        code = main(["validate", "--trajectories", str(trajectories), "--docs", str(docs)])
        assert code == 1
        # text that is not JSON fails as every JSON input does, with its line
        want = (f"{docs} line 1: invalid JSON: Expecting value" if text == "[not json"
                else f"{docs}: docs must be a JSON list of strings")
        assert capsys.readouterr() == ("", f"error: {want}\n")

    def test_accepts_raw_object_lines(self, tmp_path, capsys):
        trajectories = tmp_path / "traces.jsonl"
        record = {"raw": "<think>t</think><answer> Oslo </answer>"}
        trajectories.write_text(json.dumps(record) + "\n", "utf-8")
        code = main(["validate", "--trajectories", str(trajectories)])
        assert code == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["is_clean"] is True


@pytest.mark.parametrize(
    "command, flag, good, bad, field",
    [
        ("eval", "--predictions", {"id": "q1", "prediction": "x"}, {"id": "q1"}, "prediction"),
        ("validate", "--trajectories", {"raw": "<answer>x</answer>"}, {"text": "x"}, "raw"),
        (
            "density",
            "--corpus",
            {"facts": ["f q"], "raw_docs": "pad f q"},
            {"facts": ["f q"]},
            "raw_docs",
        ),
    ],
    ids=["eval", "validate", "density"],
)
def test_record_missing_field_names_file_and_line(
    tmp_path, capsys, command, flag, good, bad, field
):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", "utf-8")
    assert main(reader_argv(tmp_path, command, flag, records)) == 1
    assert capsys.readouterr().err == f"error: {records} line 2: missing field '{field}'\n"


CORPUS_RECORD = {
    "facts": ["f q"],
    "raw_docs": "pad pad pad f q",
    "candidates": [{"label": "Table", "body": "f q"}],
}
RAW_RECORD = {"_id": "a", "question": "?", "answer": "x", "context": [["T", ["s"]]]}
ROLLOUT_PAIR = {
    "breakdown": {"direct": 1.0, "reinf": 0.0, "lambda": 0.2, "total": 1.0},
    "logprobs": {"policy": [-0.5, -1.0], "reference": [-0.4, -1.1], "behavior": [-0.5, -0.9]},
}
ROLLOUT_RECORD = {
    "query": {"id": "q1"},
    "pairs": [ROLLOUT_PAIR, {**ROLLOUT_PAIR, "logprobs": None}],
}
# a stored rollout record that cannot be scored -> the message naming its fault
BAD_ROLLOUT_RECORDS = {
    "no-pairs": (
        {"query": {"id": "q1"}}, "field 'pairs' must be a non-empty list of objects"
    ),
    "no-query": ({"pairs": [ROLLOUT_PAIR]}, "field 'query.id' must be a string"),
    "array-line": ([ROLLOUT_RECORD], "record is not a JSON object"),
    "string-direct": (
        {**ROLLOUT_RECORD, "pairs": [
            {**ROLLOUT_PAIR, "breakdown": {**ROLLOUT_PAIR["breakdown"], "direct": "1"}}
        ]},
        "field 'pairs[0].breakdown.direct' must be a number in [0, 1]",
    ),
    "reinf-above-one": (
        {**ROLLOUT_RECORD, "pairs": [
            {**ROLLOUT_PAIR, "breakdown": {**ROLLOUT_PAIR["breakdown"], "reinf": 1e308}}
        ]},
        "field 'pairs[0].breakdown.reinf' must be a number in [0, 1]",
    ),
    "unequal-logprobs": (
        {**ROLLOUT_RECORD, "pairs": [
            {**ROLLOUT_PAIR, "logprobs": {**ROLLOUT_PAIR["logprobs"], "behavior": [-0.5]}}
        ]},
        "field 'pairs[0].logprobs' must be null or lists 'policy', 'reference' "
        "and 'behavior' of one length, within 700 of each other per token",
    ),
    "nan-total": (
        {**ROLLOUT_RECORD, "pairs": [
            ROLLOUT_PAIR,
            {**ROLLOUT_PAIR, "breakdown": {**ROLLOUT_PAIR["breakdown"], "total": math.nan}},
        ]},
        "field 'pairs[1].breakdown.total' must be a finite number",
    ),
}


@pytest.mark.parametrize(
    "command, flag, good, bad, message",
    [
        ("validate", "--trajectories", {"raw": "<answer>x</answer>"}, {"raw": 5},
         "field 'raw' must be a string"),
        ("density", "--corpus", CORPUS_RECORD, {**CORPUS_RECORD, "facts": "f q"},
         "field 'facts' must be a list of strings"),
        ("density", "--corpus", CORPUS_RECORD, {**CORPUS_RECORD, "matcher": "fuzzy"},
         "field 'matcher' must be one of ['normalized_containment', 'token_subset']"),
        ("density", "--corpus", CORPUS_RECORD,
         {**CORPUS_RECORD, "candidates": [{"label": "Table", "body": ""}]},
         "candidate 'body' must be a string with a token"),
        ("density", "--corpus", CORPUS_RECORD, {**CORPUS_RECORD, "raw_docs": ""},
         "field 'raw_docs' has no tokens"),
        ("density", "--corpus", CORPUS_RECORD, {**CORPUS_RECORD, "raw_docs": []},
         "field 'raw_docs' has no tokens"),
        ("density", "--corpus", CORPUS_RECORD, {**CORPUS_RECORD, "facts": []},
         "field 'facts' must not be empty"),
        ("density", "--corpus", CORPUS_RECORD, {**CORPUS_RECORD, "facts": ["f q", "the"]},
         "fact 'the' has no tokens"),
        ("convert-dataset", "--src", RAW_RECORD, {**RAW_RECORD, "answer": 5},
         "field 'golden_answers' must be a list of strings"),
        ("convert-dataset", "--src", RAW_RECORD, {**RAW_RECORD, "context": [["T", "s", "x"]]},
         "field 'context' must be a list of [title, [sentence, ...]] pairs"),
        ("convert-dataset", "--src", RAW_RECORD, {**RAW_RECORD, "context": [["T", ["s", 5]]]},
         "field 'context' must be a list of [title, [sentence, ...]] pairs"),
        ("convert-dataset", "--src", RAW_RECORD, RAW_RECORD, "duplicate id 'a'"),
        *(
            (command, "--rollouts", ROLLOUT_RECORD, bad, message)
            for command in ("score-export", "sweep-lambda")
            for bad, message in BAD_ROLLOUT_RECORDS.values()
        ),
    ],
    ids=[
        "validate-raw-number", "density-facts-string", "density-unknown-matcher",
        "density-empty-body", "density-empty-raw", "density-no-raw-docs",
        "density-no-facts", "density-fact-without-tokens",
        "convert-answer-number", "convert-context-triple", "convert-context-number-sentence",
        "convert-duplicate-id",
        *(
            f"{command}-{name}"
            for command in ("score-export", "sweep-lambda")
            for name in BAD_ROLLOUT_RECORDS
        ),
    ],
)
def test_record_of_the_wrong_shape_names_file_and_line(
    tmp_path, capsys, command, flag, good, bad, message
):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", "utf-8")
    assert main(reader_argv(tmp_path, command, flag, records)) == 1
    assert capsys.readouterr().err == f"error: {records} line 2: {message}\n"


# where a scoring path reads a stored rollout record: the line itself, then
# each field that score-export or sweep-lambda reads
ROLLOUT_FIELDS = [
    (), ("query",), ("query", "id"), ("pairs",), ("pairs", 0), ("pairs", 0, "breakdown"),
    *(("pairs", 0, "breakdown", name) for name in ("direct", "reinf", "total")),
    ("pairs", 0, "logprobs"),
    *(("pairs", 0, "logprobs", role) for role in ("policy", "reference", "behavior")),
]
QUERY = {"id": "q1", "question": "?", "docs": ["d"], "golden_answers": ["x"]}
DATASET = [QUERY, {**QUERY, "id": "q2", "golden_answers": ["y"]}]
QUERY_FIELDS = [
    (), ("id",), ("question",), ("docs",), ("docs", 0), ("golden_answers",),
    ("golden_answers", 0),
]
RAW_FIELDS = [
    (), ("_id",), ("question",), ("answer",), ("context",), ("context", 0),
    ("context", 0, 0), ("context", 0, 1), ("context", 0, 1, 0),
]
CONFIG = {
    "backend": "mock", "k": 2, "lambda": 0.2, "epsilon": 0.2, "beta": 0.001, "seed": 0,
    "parallel": 1, "temperature": 1.0, "max_tokens": 64, "retries": 0, "model": "m",
    "fixtures": "elsewhere", "endpoint": None,
}
ROLLOUT_ARGV = ["rollout", "--dataset", "{w}/dataset.jsonl", "--fixtures", "{w}/fixtures",
                "--k", "2", "--parallel", "1", "--out", "{w}/out"]
VALIDATE_ARGV = ["validate", "--trajectories", "{w}/trajectories.jsonl", "--docs", "{w}/docs.json"]


def at_line(index, fields):
    """Field paths into line ``index`` of a JSONL file."""
    return [(index, *field) for field in fields]


# the valid input files of the readers below: one value per line of a .jsonl
# file, else the whole file's value
INPUTS = {
    "dataset.jsonl": DATASET,
    "config.json": CONFIG,
    "raw.jsonl": [RAW_RECORD, {**QUERY, "id": "b"}],
    "raw.json": [RAW_RECORD, {**QUERY, "id": "b"}],
    "predictions.jsonl": [{"id": "q1", "prediction": "x"}, {"id": "q2", "prediction": "z"}],
    "rollouts.jsonl": [ROLLOUT_RECORD, ROLLOUT_RECORD],
    "corpus.jsonl": [{**CORPUS_RECORD, "raw_docs": ["pad", "f q"], "matcher": "token_subset"},
                     CORPUS_RECORD],
    "trajectories.jsonl": [{"raw": "<answer>x</answer>"}, "<answer>y</answer>"],
    "docs.json": ["d one", "d two"],
    "fixtures/rules.json": [{"contains": "", "response": PLAIN_RESPONSE}],
}
# every command that reads a file -> its arguments, the input file that a
# draw mutates, and the field paths it reads there, at --parallel 1 and K <= 2
READERS = {
    "rollout-dataset": (ROLLOUT_ARGV, "dataset.jsonl", at_line(0, QUERY_FIELDS)
                        + at_line(1, QUERY_FIELDS)),
    "rollout-config": ([*ROLLOUT_ARGV, "--config", "{w}/config.json"], "config.json",
                       [(), *((key,) for key in CONFIG)]),
    "sample": (["sample", "--dataset", "{w}/dataset.jsonl", "--n", "1", "--out", "{w}/out"],
               "dataset.jsonl", at_line(1, QUERY_FIELDS)),
    "convert-dataset-jsonl": (["convert-dataset", "--src", "{w}/raw.jsonl", "--out", "{w}/out"],
                              "raw.jsonl", at_line(0, RAW_FIELDS) + at_line(1, QUERY_FIELDS)),
    "convert-dataset-array": (["convert-dataset", "--src", "{w}/raw.json", "--out", "{w}/out"],
                              "raw.json", [(), *at_line(0, RAW_FIELDS), *at_line(1, QUERY_FIELDS)]),
    "eval": (["eval", "--predictions", "{w}/predictions.jsonl", "--dataset", "{w}/dataset.jsonl"],
             "predictions.jsonl", at_line(1, [(), ("id",), ("prediction",)])),
    "score-export": (["score-export", "--rollouts", "{w}/rollouts.jsonl", "--out", "{w}/out"],
                     "rollouts.jsonl", at_line(1, ROLLOUT_FIELDS)),
    "sweep-lambda": (["sweep-lambda", "--rollouts", "{w}/rollouts.jsonl", "--out", "{w}/out"],
                     "rollouts.jsonl", at_line(1, ROLLOUT_FIELDS)),
    "density": (["density", "--corpus", "{w}/corpus.jsonl", "--out", "{w}/out"], "corpus.jsonl",
                at_line(0, [(), ("raw_docs",), ("raw_docs", 1), ("facts",), ("facts", 0),
                            ("candidates",), ("candidates", 0), ("candidates", 0, "label"),
                            ("candidates", 0, "body"), ("matcher",)])),
    "validate-trajectories": (VALIDATE_ARGV, "trajectories.jsonl", [(0,), (0, "raw"), (1,)]),
    "validate-docs": (VALIDATE_ARGV, "docs.json", [(), (0,), (1,)]),
    "rollout-rules": (ROLLOUT_ARGV, "fixtures/rules.json",
                      [(), (0,), (0, "contains"), (0, "response")]),
}
# what a draw does to the input: swap a JSON value in at a field path, write
# that field's key twice, or one change to the file's bytes
MUTATIONS = ["value", "repeated-key", "deep", "not-utf8", "cut", "bom", "crlf", "cr", "blank"]
# a k of 10**30 runs for ever, and a large --parallel would start N x K threads
COUNTS = ("k", "parallel", "retries")
# stands where the drawn text goes, which deep nesting and a repeated key make
# text that no JSON value serializes to
SWAPPED = "\x00swapped\x00"


def small_counts(value):
    """Whether ``value`` sets none of COUNTS above 4."""
    return not (isinstance(value, dict)
                and any(type(value.get(n)) is int and value[n] > 4 for n in COUNTS))


def input_text(name, value):
    """The text of input file ``name`` holding ``value``."""
    if name.endswith(".jsonl"):
        return "".join(json.dumps(line) + "\n" for line in value)
    return json.dumps(value, indent=1) + "\n"


def mutated_input(data, name, paths):
    """The bytes of input file ``name`` after one drawn mutation."""
    keyed = [path for path in paths if path and isinstance(path[-1], str)]
    kind = data.draw(st.sampled_from([m for m in MUTATIONS if keyed or m != "repeated-key"]))
    valid = input_text(name, INPUTS[name]).encode("utf-8")
    if kind in ("value", "repeated-key", "deep"):
        path = data.draw(st.sampled_from(keyed if kind == "repeated-key" else paths))
        swapped = copy.deepcopy(INPUTS[name])
        if path:
            target = swapped
            for key in path[:-1]:
                target = target[key]
            original, target[path[-1]] = target[path[-1]], SWAPPED
        else:
            original, swapped = swapped, SWAPPED
        if kind == "deep":
            depth = data.draw(st.sampled_from([100, 900, 100_000]))
            text = "[" * depth + "]" * depth
        else:
            value = data.draw(JSON_VALUES.filter(lambda v: small_counts({path[-1]: v} if path else v)))
            text = json.dumps(value)
            if kind == "repeated-key":
                pair = [json.dumps(original), text]
                if data.draw(st.booleans()):
                    pair.reverse()
                text = f"{pair[0]}, {json.dumps(path[-1])}: {pair[1]}"
        return input_text(name, swapped).replace(json.dumps(SWAPPED), text, 1).encode("utf-8")
    if kind == "not-utf8":
        at = data.draw(st.integers(0, len(valid)))
        return valid[:at] + b"\xff" + valid[at:]
    if kind == "cut":
        return valid[:data.draw(st.integers(0, len(valid) - 1))]
    if kind == "bom":
        return b"\xef\xbb\xbf" + valid
    if kind in ("crlf", "cr"):
        return valid.replace(b"\n", b"\r\n" if kind == "crlf" else b"\r")
    lines = valid.split(b"\n")
    lines.insert(data.draw(st.integers(0, len(lines) - 1)), b"")
    return b"\n".join(lines)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reader=st.sampled_from(sorted(READERS)), data=st.data())
def test_any_value_in_a_stored_rollout_scores_or_names_file_and_line(
    tmp_path, capsys, monkeypatch, reader, data
):
    """Every command that reads a file, given one valid input in which a
    drawn JSON value, NaN and infinities included, takes the place of one
    field it reads, or one of its bytes is changed: the command exits 0, or
    prints one error naming the file, and its line if it has one, and nothing
    else, making no --out. Only validate streams: it may print the lines
    before the bad one."""
    monkeypatch.delenv("STRUCTRL_ENDPOINT", raising=False)
    argv, name, paths = READERS[reader]
    work = tmp_path / "w"
    shutil.rmtree(work, ignore_errors=True)
    (work / "fixtures").mkdir(parents=True)
    for other, value in INPUTS.items():
        (work / other).write_text(input_text(other, value), "utf-8")
    (work / name).write_bytes(mutated_input(data, name, paths))
    capsys.readouterr()
    code = main([arg.format(w=work) for arg in argv])
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        return
    assert code == 1
    assert not (work / "out").exists()
    match = re.fullmatch(f"error: {re.escape(str(work / name))}(?: line (\\d+))?: [^\n]+\n", err)
    # --n 1 of a dataset cut to no line: it is --n that is wrong, and it says so;
    # so does the endpoint that a config naming the http backend leaves unset
    assert match or (reader == "sample" and err == "error: asked for 1 of 0 instances\n") or (
        reader == "rollout-config"
        and err == "error: no endpoint given and STRUCTRL_ENDPOINT is unset\n"
    ), err
    if reader == "validate-trajectories" and match[1]:
        assert all(json.loads(line)["index"] < int(match[1]) - 1 for line in out.splitlines())
    else:
        assert out == ""


def reader_argv(tmp_path, command, flag, records):
    """Arguments that run a JSONL-reading subcommand on ``records``."""
    argv = [command, flag, str(records)]
    if command == "eval":
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(
            json.dumps({"id": "q1", "question": "?", "docs": ["d"], "golden_answers": ["x"]})
            + "\n",
            "utf-8",
        )
        argv += ["--dataset", str(dataset)]
    elif command == "score-export":
        argv += ["--out", str(tmp_path / "signals.jsonl")]
    elif command == "convert-dataset":
        argv += ["--out", str(tmp_path / "converted.jsonl")]
    return argv


# a JSONL-reading subcommand, its flag and a record it reads without error
JSONL_READERS = pytest.mark.parametrize(
    "command, flag, good",
    [
        ("eval", "--predictions", {"id": "q1", "prediction": "x"}),
        ("validate", "--trajectories", {"raw": "<answer>x</answer>"}),
        ("density", "--corpus", {"facts": ["f q"], "raw_docs": "pad f q"}),
        ("score-export", "--rollouts", {"query": {"id": "q1"}, "pairs": []}),
        ("sweep-lambda", "--rollouts", {"query": {"id": "q1"}, "pairs": []}),
        ("convert-dataset", "--src",
         {"id": "q1", "question": "?", "docs": ["d"], "golden_answers": ["x"]}),
    ],
    ids=["eval", "validate", "density", "score-export", "sweep-lambda", "convert-dataset"],
)


@JSONL_READERS
def test_invalid_json_line_names_file_and_line(tmp_path, capsys, command, flag, good):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n{bad\n", "utf-8")
    assert main(reader_argv(tmp_path, command, flag, records)) == 1
    assert capsys.readouterr().err.startswith(f"error: {records} line 2: invalid JSON: ")


@JSONL_READERS
def test_line_that_is_not_utf8_names_file_and_line(tmp_path, capsys, command, flag, good):
    # text mode decodes 8 KiB ahead of the line it returns; the blank lines,
    # which every reader skips, put the bad byte beyond the first such block
    records = tmp_path / "records.jsonl"
    records.write_bytes(json.dumps(good).encode("utf-8") + b"\n" * 9000 + b"\xff\n")
    assert main(reader_argv(tmp_path, command, flag, records)) == 1
    assert capsys.readouterr().err == f"error: {records} line 9001: not UTF-8 text\n"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["rollout", "--dataset", "{tmp}/dataset.jsonl", "--fixtures", "{tmp}/fixtures",
          "--config", "{tmp}/bad", "--out", "{tmp}/out"], "bad"),
        (["rollout", "--dataset", "{tmp}/dataset.jsonl", "--fixtures", "{tmp}/fixtures",
          "--out", "{tmp}/out"], "fixtures/rules.json"),
        (["validate", "--trajectories", "{tmp}/dataset.jsonl", "--docs", "{tmp}/bad"], "bad"),
        (["convert-dataset", "--src", "{tmp}/bad", "--out", "{tmp}/out"], "bad"),
    ],
    ids=["rollout-config", "rollout-rules", "validate-docs", "convert-dataset-array"],
)
def test_whole_file_that_is_not_utf8_names_file_and_line(tmp_path, capsys, argv, bad):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "dataset.jsonl").write_text(
        json.dumps({"id": "q1", "question": "?", "docs": ["d"], "golden_answers": ["x"]}) + "\n",
        "utf-8",
    )
    (tmp_path / bad).write_bytes(b'[\n"\xff"\n]\n')
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path / bad} line 2: not UTF-8 text\n")
    assert not (tmp_path / "out").exists()


RULE_SHAPE = "must be an object whose 'contains' and 'response' are strings"


@pytest.mark.parametrize(
    "rules, message",
    [
        ({}, "rules must be a JSON array"),
        ("abc", "rules must be a JSON array"),
        ([1], f"rule 0 {RULE_SHAPE}"),
        ([{"contains": "", "response": "x"}, {"response": "x"}], f"rule 1 {RULE_SHAPE}"),
        ([{"contains": 1, "response": "x"}], f"rule 0 {RULE_SHAPE}"),
        ([{"contains": "Doc", "response": 5}], f"rule 0 {RULE_SHAPE}"),
    ],
    ids=["object", "string", "number-rule", "no-contains", "number-contains", "number-response"],
)
def test_malformed_rules_file_names_it_before_out_is_made(tmp_path, capsys, rules, message):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / "rules.json").write_text(json.dumps(rules), "utf-8")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(json.dumps(QUERY) + "\n", "utf-8")
    code = main(["rollout", "--dataset", str(dataset), "--fixtures", str(tmp_path / "fixtures"),
                 "--k", "2", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'fixtures' / 'rules.json'}: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, deep, where",
    [
        (["rollout", "--dataset", "{tmp}/deep", "--fixtures", "{tmp}/fixtures",
          "--out", "{tmp}/out"], "deep", " line 1"),
        (["rollout", "--dataset", "{tmp}/dataset.jsonl", "--fixtures", "{tmp}/fixtures",
          "--config", "{tmp}/deep", "--out", "{tmp}/out"], "deep", ""),
        (["rollout", "--dataset", "{tmp}/dataset.jsonl", "--fixtures", "{tmp}/fixtures",
          "--out", "{tmp}/out"], "fixtures/rules.json", ""),
        (["score-export", "--rollouts", "{tmp}/deep", "--out", "{tmp}/out"], "deep", " line 1"),
        (["sweep-lambda", "--rollouts", "{tmp}/deep", "--out", "{tmp}/out"], "deep", " line 1"),
        (["eval", "--predictions", "{tmp}/deep", "--dataset", "{tmp}/dataset.jsonl"],
         "deep", " line 1"),
        (["eval", "--predictions", "{tmp}/dataset.jsonl", "--dataset", "{tmp}/deep"],
         "deep", " line 1"),
        (["density", "--corpus", "{tmp}/deep", "--out", "{tmp}/out"], "deep", " line 1"),
        (["convert-dataset", "--src", "{tmp}/deep", "--out", "{tmp}/out"], "deep", ""),
        (["validate", "--trajectories", "{tmp}/deep"], "deep", " line 1"),
        (["validate", "--trajectories", "{tmp}/dataset.jsonl", "--docs", "{tmp}/deep"],
         "deep", ""),
        (["sample", "--dataset", "{tmp}/deep", "--n", "1", "--out", "{tmp}/out"],
         "deep", " line 1"),
    ],
    ids=["rollout-dataset", "rollout-config", "rollout-rules", "score-export", "sweep-lambda",
         "eval-predictions", "eval-dataset", "density-corpus", "convert-dataset",
         "validate-trajectories", "validate-docs", "sample"],
)
def test_json_nested_too_deeply_names_the_file_and_makes_no_output(
    tmp_path, capsys, argv, deep, where
):
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "dataset.jsonl").write_text(
        json.dumps({"id": "q1", "question": "?", "docs": ["d"], "golden_answers": ["x"]}) + "\n",
        "utf-8",
    )
    # deeper than the decoder's recursion limit
    (tmp_path / deep).write_text("[" * 200_000 + "\n", "utf-8")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr() == (
        "", f"error: {tmp_path / deep}{where}: invalid JSON: nested too deeply\n"
    )
    assert not (tmp_path / "out").exists()


class TestConvertAndSample:
    def test_convert_dataset(self, tmp_path, capsys):
        src = tmp_path / "raw.json"
        raw = [
            {
                "_id": "abc",
                "question": "Who wrote it?",
                "answer": "Ada",
                "context": [["Bio", ["Ada wrote it. ", "She was first."]]],
            }
        ]
        src.write_text(json.dumps(raw), "utf-8")
        out = tmp_path / "converted.jsonl"
        code = main(["convert-dataset", "--src", str(src), "--out", str(out)])
        assert code == 0
        assert "wrote 1 instances" in capsys.readouterr().out
        record = json.loads(out.read_text("utf-8").splitlines()[0])
        assert record["id"] == "abc"
        assert record["golden_answers"] == ["Ada"]
        assert record["docs"] == ["Bio\nAda wrote it. She was first."]

    @pytest.mark.parametrize("suffix", [".jsonl", ".json"])
    def test_convert_dataset_missing_field_names_file(self, tmp_path, capsys, suffix):
        good = {"_id": "a", "question": "?", "answer": "x", "context": [["T", ["s"]]]}
        bad = {"_id": "b", "question": "?", "context": [["T", ["s"]]]}
        src = tmp_path / f"raw{suffix}"
        if suffix == ".json":
            src.write_text(json.dumps([good, bad]), "utf-8")
            where = f"{src}"
        else:
            src.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", "utf-8")
            where = f"{src} line 2"
        out = tmp_path / "converted.jsonl"
        assert main(["convert-dataset", "--src", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {where}: missing field 'answer'\n"

    def test_json_array_that_is_not_json_names_file_and_line(self, tmp_path, capsys):
        src = tmp_path / "raw.json"
        src.write_text('[\n{"_id": "a",\n "question" "?"}]', "utf-8")
        out = tmp_path / "converted.jsonl"
        assert main(["convert-dataset", "--src", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {src} line 3: invalid JSON: Expecting ':' delimiter\n"
        )
        assert not out.exists()

    def test_json_array_holding_a_non_object_names_file(self, tmp_path, capsys):
        src = tmp_path / "raw.json"
        src.write_text(json.dumps([RAW_RECORD, 5]), "utf-8")
        out = tmp_path / "converted.jsonl"
        assert main(["convert-dataset", "--src", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {src}: record is not a JSON object\n"
        assert not out.exists()

    def dataset(self, tmp_path, n=10):
        path = tmp_path / "big.jsonl"
        lines = [
            json.dumps(
                {"id": f"q{i}", "question": "?", "docs": ["d"], "golden_answers": ["a"]}
            )
            for i in range(n)
        ]
        path.write_text("\n".join(lines) + "\n", "utf-8")
        return path

    def test_sample_is_reproducible(self, tmp_path, capsys):
        dataset = self.dataset(tmp_path)
        out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        assert main(["sample", "--dataset", str(dataset), "--n", "4",
                     "--seed", "1", "--out", str(out1)]) == 0
        assert main(["sample", "--dataset", str(dataset), "--n", "4",
                     "--seed", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        ids = [json.loads(l)["id"] for l in out1.read_text("utf-8").splitlines()]
        assert len(ids) == len(set(ids)) == 4

    def test_sample_negative_count_errors(self, tmp_path, capsys):
        dataset = self.dataset(tmp_path, n=3)
        out = tmp_path / "s.jsonl"
        code = main(["sample", "--dataset", str(dataset), "--n", "-1",
                     "--seed", "0", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: n must be >= 0, got -1\n")
        assert not out.exists()

    def test_sample_too_large_errors(self, tmp_path, capsys):
        dataset = self.dataset(tmp_path, n=3)
        code = main(["sample", "--dataset", str(dataset), "--n", "5",
                     "--seed", "0", "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class _FixedAnswer(BaseHTTPRequestHandler):
    """Answers every completion request with one formatted answer and log-probs."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        text = "<format: Table>| city | Rome |</format: Table>\n<answer> Rome </answer>"
        data = json.dumps(
            {"choices": [{"text": text, "logprobs": {"token_logprobs": [-0.5, -0.25]}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def fixed_answer_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FixedAnswer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/completions"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# the modules that only some steps need, each loaded by the step that first
# uses it: numpy by a seeded draw; http.client and ssl by an HTTP backend;
# concurrent.futures by a rollout at --parallel > 1; decimal by eval's
# percentages; gzip by a .gz file. requests and urllib3 are never loaded
WATCHED = ["numpy", "http.client", "ssl", "concurrent.futures", "decimal", "gzip",
           "requests", "urllib3"]

# run in a fresh interpreter: each step is (name, code), and the script prints,
# per step, the watched modules that it loaded, so one that a site hook loads
# before structrl is imported cannot fail the check
_PROBE = """
import json, sys
watched, steps = json.loads(sys.argv[1])
loaded = set(sys.modules)
added = {}
for name, code in steps:
    exec(code)
    added[name] = [m for m in watched if m in set(sys.modules) - loaded]
    loaded = set(sys.modules)
print(json.dumps(added))
"""


def _watched_added_by(steps: list[tuple[str, str]], cwd: Path) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([WATCHED, steps])],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(run.stdout.splitlines()[-1])


def _probe_dataset(tmp_path: Path) -> None:
    (tmp_path / "fixtures").mkdir()
    text = "".join(
        json.dumps({"id": f"q{i}", "question": f"question {i}?",
                    "docs": [f"Rome doc {i}", "filler"], "golden_answers": ["Rome"]}) + "\n"
        for i in range(4)
    )
    (tmp_path / "data.jsonl").write_text(text, "utf-8")
    with gzip.open(tmp_path / "data.jsonl.gz", "wt", encoding="utf-8") as fh:
        fh.write(text)
    (tmp_path / "predictions.jsonl").write_text(
        "".join(json.dumps({"id": f"q{i}", "prediction": "Rome"}) + "\n" for i in range(4)),
        "utf-8",
    )


def test_each_step_loads_only_the_watched_modules_it_uses(tmp_path, fixed_answer_endpoint):
    """Importing the CLI loads none of WATCHED, and each step loads only
    the ones it uses: the HTTP path and the re-scoring commands, which serve
    the training loop, never load numpy, and building a mock backend never
    loads the HTTP stack."""
    _probe_dataset(tmp_path)
    ok = "assert {} == 0"
    steps = [
        ("import structrl.cli", "from structrl.cli import main"),
        ("load_jsonl", "from structrl.dataset import load_jsonl; load_jsonl('data.jsonl')"),
        ("mock backend", "from structrl.backends import make_backend; make_backend('mock', fixtures='fixtures')"),
        ("http backend", f"make_backend('http', endpoint={fixed_answer_endpoint!r})"),
        ("rollout", ok.format(
            f"main(['rollout', '--backend', 'http', '--endpoint', {fixed_answer_endpoint!r}, "
            "'--dataset', 'data.jsonl', '--k', '2', '--parallel', '2', '--out', 'run'])")),
        ("score-export", ok.format(
            "main(['score-export', '--rollouts', 'run/rollouts.jsonl', '--out', 'signals.jsonl'])")),
        ("sweep-lambda", ok.format("main(['sweep-lambda', '--rollouts', 'run/rollouts.jsonl'])")),
        ("eval", ok.format(
            "main(['eval', '--predictions', 'predictions.jsonl', '--dataset', 'data.jsonl'])")),
        ("load_jsonl .gz", "load_jsonl('data.jsonl.gz')"),
    ]
    added = _watched_added_by(steps, tmp_path)
    assert added == {
        "import structrl.cli": [],
        "load_jsonl": [],
        "mock backend": [],
        "http backend": ["http.client", "ssl"],
        "rollout": ["concurrent.futures"],
        "score-export": [],
        "sweep-lambda": [],
        "eval": ["decimal"],
        "load_jsonl .gz": ["gzip"],
    }
    assert (tmp_path / "signals.jsonl").read_bytes() == (
        tmp_path / "run" / "training_signals.jsonl"
    ).read_bytes()
    assert len((tmp_path / "signals.jsonl").read_text("utf-8").splitlines()) == 4 * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--dataset", "data.jsonl", "--n", "2", "--out", "sampled.jsonl"],
        ["density", "--synthetic", "--n", "3"],
    ],
    ids=["sample", "density-synthetic"],
)
def test_seeded_draws_load_numpy(tmp_path, argv):
    """The positive control of the test above: these commands draw from a
    seeded numpy Generator, so they load numpy, and none of the other
    watched modules."""
    _probe_dataset(tmp_path)
    steps = [
        ("import structrl.cli", "from structrl.cli import main"),
        (argv[0], f"assert main({argv!r}) == 0"),
    ]
    assert _watched_added_by(steps, tmp_path) == {"import structrl.cli": [], argv[0]: ["numpy"]}


def test_readme_rollout_synopsis_names_the_flags_of_the_settings():
    text = README.read_text("utf-8")
    synopsis = text[text.index("structrl rollout --dataset") :]
    synopsis = synopsis[: synopsis.index("```")]
    flags = re.findall(r"--[a-z][a-z-]*", synopsis)
    assert len(flags) == len(set(flags))
    assert set(flags) - {"--dataset", "--out", "--config"} == {
        f"--{name.replace('_', '-')}" for name in SETTINGS
    }


def test_library_defaults_are_the_settings_defaults():
    """SETTINGS reads its other defaults from RolloutConfig and
    ObjectiveConfig; lambda's is a schedule there and a number here, so a bare
    ``structrl rollout`` must still parse it to the library's default."""
    assert RolloutConfig().lambda_schedule == parse_schedule(SETTINGS["lambda"][1])


def test_each_config_field_is_the_setting_of_its_name():
    """A setting has one name from its flag to its library field; only the
    lambda schedule, whose setting is ``lambda``, is named otherwise."""
    for cls in (RolloutConfig, ObjectiveConfig):
        names = [f.name for f in dataclasses.fields(cls) if f.name != "lambda_schedule"]
        assert all(SETTINGS[name][1] == getattr(cls, name) for name in names)
        assert set(cls.LEAST) <= set(names)
