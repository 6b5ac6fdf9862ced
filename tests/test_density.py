import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrl._textnorm import normalize_text
from structrl.density import (
    MATCHERS,
    density,
    generate_synthetic,
    run_corpus,
    verify_ordering,
)

FACTS = ["monty banks 15 july 1897", "josé luis cuerda 18 february 1947"]


@pytest.fixture
def normalized(monkeypatch):
    """Every string passed to ``normalize_text``, in call order."""
    seen = []

    def counting(s):
        seen.append(s)
        return normalize_text(s)

    # norm_tokens calls normalize_text too; sys.modules, because the
    # package exports the function ``density`` under the module's name
    for module in ("structrl._textnorm", "structrl.density"):
        monkeypatch.setattr(sys.modules[module], "normalize_text", counting)
    return seen


def instance(raw, candidates, facts, matcher=MATCHERS[0]):
    """A corpus record; ``candidates`` are (label, body) pairs."""
    return {
        "raw_docs": raw,
        "candidates": [{"label": label, "body": body} for label, body in candidates],
        "facts": facts,
        "matcher": matcher,
    }


class TestInfoContent:
    def test_verbatim_containment(self):
        facts = ["alpha one", "beta two", "gamma three"]
        text = "first alpha one. then beta two. finally gamma three."
        assert density(text, facts)["info"] == 3

    def test_containment_requires_contiguity(self):
        assert density("alpha gap beta", ["alpha beta"])["info"] == 0

    def test_token_subset_ignores_order(self):
        assert density("beta gap alpha", ["alpha beta"], "token_subset")["info"] == 1

    def test_case_study_table_under_token_subset(self, golden_trace):
        from structrl.trajectory import extract_formats, parse_trajectory

        table_body = extract_formats(parse_trajectory(golden_trace))[0][1]
        assert density(table_body, FACTS, "token_subset")["info"] == 2

    def test_normalization_bridges_punctuation(self):
        assert density("Monty Banks, 1897!", ["monty banks 1897"])["info"] == 1

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=50)
    def test_monotone_under_extension(self, text, suffix):
        facts = ["alpha one", "beta two"]
        # the leading token keeps either text from normalising to nothing
        longer = density("pad " + text + " " + suffix, facts)
        assert longer["info"] >= density("pad " + text, facts)["info"]


class TestDensity:
    def test_division(self):
        facts = ["f1 x", "f2 y", "f3 z"]
        text = " ".join(["pad"] * 91) + " f1 x f2 y f3 z"
        m = density(text, facts)
        assert m["info"] == 3 and m["length"] == 97
        assert m["rho"] == pytest.approx(3 / 97)

    def test_zero_matches(self):
        m = density("nothing relevant here", FACTS)
        assert m["info"] == 0 and m["rho"] == 0.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="density needs at least one token"):
            density("", FACTS)
        with pytest.raises(ValueError, match="density needs at least one token"):
            density("the a an", FACTS)  # normalizes to nothing

    def test_duplication_halves_density(self):
        facts = ["alpha one"]
        text = "alpha one plus padding words"
        m1 = density(text, facts)
        m2 = density(text + " " + text, facts)
        assert m2["rho"] == pytest.approx(m1["rho"] / 2)

    def test_matched_facts_recorded(self):
        m = density("alpha one here", ["alpha one", "missing fact"])
        assert m["matched_facts"] == ["alpha one"]

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_text_is_normalized_once(self, matcher, normalized):
        text = "Alpha one, beta two and the gamma three."
        m = density(text, ["alpha one", "beta two", "delta four"], matcher)
        assert m["matched_facts"] == ["alpha one", "beta two"]
        assert normalized.count(text) == 1

    @pytest.mark.parametrize("matcher", MATCHERS)
    def test_facts_are_normalized_once_per_instance(self, matcher, normalized):
        # "The" normalises to nothing, so no text covers it
        facts = ["alpha one", "The", "beta two"]
        texts = ["the alpha one, then the beta two", "alpha one | beta two", "beta two"]
        rep = verify_ordering(instance(texts[0], [("Table", texts[1]), ("x", texts[2])],
                                       facts, matcher))
        assert sorted(normalized) == sorted(facts + texts)
        assert [c["matched_facts"] for c in [rep["raw"], *rep["candidates"]]] == [
            ["alpha one", "beta two"], ["alpha one", "beta two"], ["beta two"]]


class TestVerifyOrdering:
    def test_constructed_pass(self):
        facts = ["f1 q", "f2 w", "f3 e"]
        raw = " ".join(["pad"] * 114) + " f1 q f2 w f3 e"  # 120 tokens, rho 0.025
        table = "f1 q f2 w f3 e " + " ".join(["hdr"] * 18)  # 24 tokens, rho 0.125
        timeline = "f1 q f2 w f3 e " + " ".join(["t"] * 9)  # 15 tokens, rho 0.2
        rep = verify_ordering(instance(raw, [("Table", table), ("timeline", timeline)], facts))
        assert rep["rho_raw"] == pytest.approx(0.025)
        assert rep["max_predefined_rho"] == pytest.approx(0.125)
        assert rep["max_overall_rho"] == pytest.approx(0.2)
        assert rep["left_inequality"] and rep["right_inequality"]
        assert rep["status"] == "pass"

    def test_lossy_structure_downgrades_to_premise_unmet(self):
        facts = ["f1 q", "f2 w", "f3 e"]
        raw = " ".join(["pad"] * 20) + " f1 q f2 w f3 e"
        lossy = "f1 q " + " ".join(["hdr"] * 20)  # drops 2 of 3 facts, shrinks little
        rep = verify_ordering(instance(raw, [("Table", lossy)], facts))
        assert not rep["premise_info_preserved"]
        assert rep["status"] == "premise_unmet"

    def test_degenerate_candidate_fails_strict_inequality(self):
        raw = "f1 q " + " ".join(["pad"] * 10)
        rep = verify_ordering(instance(raw, [("Table", raw)], ["f1 q"]))
        assert not rep["premise_length_reduced"]
        assert rep["status"] == "premise_unmet"

    def test_no_predefined_candidate_is_premise_unmet(self):
        rep = verify_ordering(instance("f1 q pad", [("custom", "f1 q")], ["f1 q"]))
        assert rep["status"] == "premise_unmet"
        assert rep["max_predefined_rho"] is None

    def test_tie_on_rho_uses_the_first_predefined_for_the_premise(self):
        facts = ["f1 q", "f2 w"]
        raw = " ".join(["pad"] * 20) + " f1 q f2 w"  # 2 facts in 24 tokens
        lossy = ("Table", "f1 q pad pad")  # 1 fact in 4 tokens
        whole = ("Chunk", "f1 q f2 w pad pad pad pad")  # 2 in 8
        assert density(lossy[1], facts)["rho"] == density(whole[1], facts)["rho"]
        rep = verify_ordering(instance(raw, [lossy, whole], facts))
        assert not rep["premise_info_preserved"]
        assert rep["status"] == "premise_unmet"
        rep = verify_ordering(instance(raw, [whole, lossy], facts))
        assert rep["premise_info_preserved"] and rep["premise_length_reduced"]
        assert rep["status"] == "pass"

    def test_inequality_failure_reported_not_raised(self):
        raw = "f1 q pad"  # rho 1/3
        sparse = "f1 q " + " ".join(["x"] * 8)  # shorter than raw? no: longer
        rep = verify_ordering(instance(raw, [("Table", sparse)], ["f1 q"]))
        assert rep["status"] in ("fail", "premise_unmet")


class TestSyntheticCorpus:
    def test_seeded_generation_is_stable(self):
        a = generate_synthetic(5, 3)
        b = generate_synthetic(5, 3)
        assert a == b

    def test_all_instances_pass_by_construction(self):
        report = run_corpus(generate_synthetic(25, 11))
        assert report["summary"] == {"n": 25, "pass": 25, "fail": 0, "premise_unmet": 0}

    def test_report_left_inequality_values(self):
        report = run_corpus(generate_synthetic(5, 1))
        for inst in report["instances"]:
            assert inst["rho_raw"] < inst["max_predefined_rho"]
            assert inst["max_predefined_rho"] <= inst["max_overall_rho"]

    def test_report_validates_against_schema(self):
        import json
        from importlib import resources

        import jsonschema

        schema = json.loads(
            resources.files("structrl.schemas")
            .joinpath("density_report.schema.json")
            .read_text("utf-8")
        )
        report = run_corpus(generate_synthetic(3, 2))
        jsonschema.validate(report, schema)
