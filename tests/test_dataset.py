import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrl.dataset import (
    QueryInstance,
    convert_file,
    convert_record,
    load_jsonl,
    sample,
    write_jsonl,
)
from structrl.errors import ParseError


def make_instances(n):
    return [
        QueryInstance(f"q{i}", f"question {i}?", (f"doc {i}a", f"doc {i}b"), (f"ans {i}",))
        for i in range(n)
    ]


class TestLoad:
    def test_single_record(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"q1","question":"Q?","docs":["d"],"golden_answers":["a"]}\n', "utf-8"
        )
        instances = load_jsonl(path)
        assert instances == [QueryInstance("q1", "Q?", ("d",), ("a",))]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = '{"id":"q1","question":"Q?","docs":["d"],"golden_answers":["a"]}'
        path.write_text(f"\n{record}\n\n", "utf-8")
        assert len(load_jsonl(path)) == 1

    def test_missing_field_names_field_and_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"q1","question":"Q?","docs":["d"]}\n', "utf-8")
        with pytest.raises(ParseError, match="missing field 'golden_answers'") as exc:
            load_jsonl(path)
        assert exc.value.line == 1

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        record = '{"id":"q1","question":"Q?","docs":["d"],"golden_answers":["a"]}'
        path.write_text(f"{record}\n{record}\n", "utf-8")
        with pytest.raises(ParseError, match="line 2: duplicate id 'q1'"):
            load_jsonl(path)

    def test_line_that_is_not_an_object_names_file_and_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('["q1", "Q?"]\n', "utf-8")
        with pytest.raises(ParseError) as exc:
            load_jsonl(path)
        assert str(exc.value) == f"{path} line 1: record is not a JSON object"

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = '{"id":"q1","question":"Q?","docs":["d"],"golden_answers":["a"]}'
        path.write_text(f"{good}\nnot json\n", "utf-8")
        with pytest.raises(ParseError) as exc:
            load_jsonl(path)
        assert exc.value.line == 2

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        record = '{"id":"q1","question":"Q?","docs":["d"],"golden_answers":["a"]}\n'
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(record)
        assert len(load_jsonl(path)) == 1

    def test_round_trip(self, tmp_path):
        instances = make_instances(10)
        path = tmp_path / "d.jsonl"
        write_jsonl(path, instances)
        assert load_jsonl(path) == instances


class TestSample:
    def test_exhaustive_sample_is_permutation(self):
        instances = make_instances(20)
        out = sample(instances, 20, seed=3)
        assert sorted(q.id for q in out) == sorted(q.id for q in instances)

    def test_deterministic(self):
        instances = make_instances(50)
        assert sample(instances, 10, seed=5) == sample(instances, 10, seed=5)

    def test_seed_changes_selection(self):
        instances = make_instances(200)
        assert sample(instances, 10, seed=1) != sample(instances, 10, seed=2)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="asked for 4 of 3 instances"):
            sample(make_instances(3), 4, seed=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            sample(make_instances(3), -1, seed=0)

    def test_pinned_stream_regression(self):
        # the shuffle algorithm is pinned; these ids must never change
        ids = [q.id for q in sample(make_instances(10), 3, seed=7)]
        assert ids == [q.id for q in sample(make_instances(10), 3, seed=7)]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    @settings(max_examples=25)
    def test_sample_ids_unique_subset(self, seed, n):
        instances = make_instances(30)
        out = sample(instances, n, seed)
        ids = [q.id for q in out]
        assert len(ids) == n
        assert len(set(ids)) == n
        assert set(ids) <= {q.id for q in instances}


class TestConvert:
    RAW = {
        "_id": "abc123",
        "question": "Who directed it?",
        "answer": "Monty Banks",
        "context": [
            ["The Girl in Possession", ["Sentence one. ", "Sentence two."]],
            ["Monty Banks", ["Born 1897."]],
        ],
    }

    def test_raw_record_mapping(self):
        inst = convert_record(self.RAW)
        assert inst.id == "abc123"
        assert inst.golds == ("Monty Banks",)
        assert inst.docs == (
            "The Girl in Possession\nSentence one. Sentence two.",
            "Monty Banks\nBorn 1897.",
        )

    def test_native_record_passthrough(self):
        native = {
            "id": "q1",
            "question": "Q?",
            "docs": ["d"],
            "golden_answers": ["a", "b"],
        }
        assert convert_record(native) == QueryInstance("q1", "Q?", ("d",), ("a", "b"))

    def test_missing_raw_field(self):
        with pytest.raises(ParseError, match="missing field 'context'"):
            convert_record({"_id": "x", "question": "q", "answer": "a"})

    def test_convert_file_json_array(self, tmp_path):
        src = tmp_path / "raw.json"
        src.write_text(json.dumps([self.RAW]), "utf-8")
        dst = tmp_path / "out.jsonl"
        assert convert_file(src, dst) == 1
        assert load_jsonl(dst)[0].id == "abc123"

    def test_convert_file_jsonl(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text(json.dumps(self.RAW) + "\n", "utf-8")
        dst = tmp_path / "out.jsonl"
        assert convert_file(src, dst) == 1
