import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from structrl.cli import eval_report, format_percent
from structrl.reward import evaluate


class TestEvaluate:
    def test_identity_predictions(self):
        summary = evaluate([("a b", ["a b"]), ("c", ["c"])])
        assert summary["em"] == 1.0 and summary["f1"] == 1.0 and summary["error"] == 0.0

    def test_hand_average(self):
        summary = evaluate(
            [
                ("Así en el cielo como en la tierra", ["Así en el cielo como en la tierra"]),
                ("José Luis Cuerda director", ["José Luis Cuerda"]),
            ]
        )
        assert summary["em"] == pytest.approx(0.5)
        assert summary["f1"] == pytest.approx((1 + 6 / 7) / 2)

    def test_disjoint_single_instance(self):
        summary = evaluate([("blue", ["red"])])
        assert summary["em"] == 0.0 and summary["f1"] == 0.0 and summary["error"] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="evaluation needs at least one"):
            evaluate([])

    def test_error_is_one_minus_em(self):
        summary = evaluate([("a", ["a"]), ("b", ["x"]), ("c", ["x"])])
        assert summary["error"] == 1.0 - summary["em"]

    @given(
        st.lists(
            st.tuples(st.text(max_size=15), st.lists(st.text(max_size=15), min_size=1, max_size=2)),
            min_size=1,
            max_size=8,
        ),
        st.randoms(),
    )
    def test_permutation_invariant(self, pairs, rng):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        a = evaluate(pairs)
        b = evaluate(shuffled)
        assert a["em"] == pytest.approx(b["em"])
        assert a["f1"] == pytest.approx(b["f1"])

    def test_em_never_exceeds_f1(self):
        summary = evaluate([("a b", ["a b c"]), ("x", ["x"]), ("q", ["z"])])
        assert summary["em"] <= summary["f1"]


class TestPercentRendering:
    def test_table_convention(self):
        assert format_percent(0.7424) == "74.24"

    def test_round_half_even(self):
        assert format_percent(1.0) == "100.00"
        assert format_percent(0.0) == "0.00"
        # ties cannot arise from binary floats; nearby values round normally
        assert format_percent(0.123449) == "12.34"
        assert format_percent(0.123451) == "12.35"


class TestReport:
    SUMMARY = {"n": 4, "em": 0.7424, "f1": 0.7995, "error": 0.2576}

    def test_text_format(self):
        text = eval_report("bench", self.SUMMARY, "text")
        assert "74.24" in text and "79.95" in text
        assert text.splitlines()[0].split()[:3] == ["dataset", "n", "EM"]

    def test_json_format(self):
        payload = json.loads(eval_report("bench", self.SUMMARY, "json"))
        assert payload["bench"]["em"] == "74.24"
        assert payload["bench"]["f1"] == "79.95"

    def test_csv_format(self):
        lines = eval_report("bench", self.SUMMARY, "csv").splitlines()
        assert lines[0] == "dataset,n,em,f1,error"
        assert lines[1].startswith("bench,4,74.24,79.95")
