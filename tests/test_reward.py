import itertools
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structrl._textnorm import normalize_text
from structrl.reward import (
    combined_reward,
    direct_reward,
    exact_match,
    f1,
    lambda_at,
    parse_schedule,
    reinference_reward,
)
from structrl.trajectory import parse_trajectory

answer_texts = st.text(
    alphabet=string.ascii_letters + string.punctuation + " ", max_size=30
)

# every case of every article; joined pieces put each one at every boundary
ARTICLES = ["".join(cased) for word in ("a", "an", "the")
            for cased in itertools.product(*((c, c.upper()) for c in word))]
normalizer_texts = st.lists(
    st.one_of(
        st.sampled_from(ARTICLES),
        st.sampled_from(string.punctuation + string.whitespace + string.digits
                        + "_\x01\x1cxnéİ—’\U0001F600"),
        # every category, astral characters included; lone surrogates are
        # drawn on their own too, as a draw of every category seldom has one
        st.characters(blacklist_categories=()),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, blacklist_categories=()),
    ),
    max_size=24,
).map("".join)


def reference_normalize(s):
    """normalize_text's definition, step by step: lowercase, strip ASCII
    punctuation, drop standalone articles, squeeze whitespace."""
    s = s.lower().translate(str.maketrans("", "", string.punctuation))
    s = re.sub(r"\b(a|an|the)\b", " ", s)
    return " ".join(s.split())


class TestNormalize:
    def test_articles_punctuation_case(self):
        assert normalize_text("The Girl In Possession!") == "girl in possession"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_accents_preserved(self):
        assert (
            normalize_text("Así en el cielo como en la tierra")
            == "así en el cielo como en la tierra"
        )

    def test_whitespace_squeezed(self):
        assert normalize_text("  a   b\t c \n") == "b c"

    @given(normalizer_texts)
    @settings(max_examples=600)
    def test_matches_reference_definition(self, text):
        assert normalize_text(text) == reference_normalize(text)


class TestExactMatch:
    def test_case_variants_both_match(self, golden_golds):
        assert exact_match("Así en el cielo como en la tierra", golden_golds) == 1.0

    def test_identity(self):
        assert exact_match("verbatim", ["verbatim"]) == 1.0

    def test_extra_token_misses(self):
        assert exact_match("José Luis Cuerda director", ["José Luis Cuerda"]) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError, match="metric needs at least one gold answer"):
            exact_match("x", [])


class TestF1:
    def test_six_sevenths(self):
        assert f1("José Luis Cuerda director", ["José Luis Cuerda"]) == pytest.approx(6 / 7)

    def test_identity(self):
        assert f1("same text", ["same text"]) == 1.0

    def test_disjoint(self):
        assert f1("blue", ["red"]) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(ValueError, match="metric needs at least one gold answer"):
            f1("x", [])

    def test_oracle_table(self, metric_oracle):
        for case in metric_oracle:
            em = exact_match(case["pred"], case["golds"])
            score = f1(case["pred"], case["golds"])
            assert em == case["em"], case
            num, den = case["f1"]
            assert abs(score - num / den) < 1e-9, case


class TestMetricProperties:
    @given(answer_texts, st.lists(answer_texts, min_size=1, max_size=3))
    def test_em_implies_f1(self, pred, golds):
        if exact_match(pred, golds) == 1.0:
            assert f1(pred, golds) == 1.0

    @given(answer_texts, st.lists(answer_texts, min_size=1, max_size=3))
    def test_normalization_invariance(self, pred, golds):
        decorated = f"The {pred.upper()}!!"
        assert exact_match(decorated, golds) == exact_match(f"the {pred.upper()}", golds)
        assert f1(decorated, golds) == f1(f"the {pred.upper()}", golds)

    @given(answer_texts, st.lists(answer_texts, min_size=1, max_size=3), answer_texts)
    def test_extra_gold_never_decreases(self, pred, golds, extra):
        assert exact_match(pred, golds + [extra]) >= exact_match(pred, golds)
        assert f1(pred, golds + [extra]) >= f1(pred, golds)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_combined_monotone(self, direct, reinf, lam):
        base = combined_reward(direct, reinf, lam).total
        assert combined_reward(min(direct + 0.1, 1.0), reinf, lam).total >= base
        assert combined_reward(direct, min(reinf + 0.1, 1.0), lam).total >= base
        assert combined_reward(direct, reinf, lam + 0.1).total >= base


class TestDirectReward:
    def test_golden_trace_scores_one(self, golden_trace, golden_golds):
        assert direct_reward(parse_trajectory(golden_trace), golden_golds) == 1.0

    def test_no_answer_scores_zero(self):
        traj = parse_trajectory("<think>no answer here</think>")
        assert direct_reward(traj, ["anything"]) == 0.0

    def test_wrong_answer_scores_zero(self):
        traj = parse_trajectory("<answer>wrong</answer>")
        assert direct_reward(traj, ["right"]) == 0.0


class TestReinferenceReward:
    def test_no_formats_scores_zero(self):
        assert reinference_reward(None, ["any"]) == 0.0

    def test_match_scores_one(self):
        traj = parse_trajectory("<answer>Paris</answer>")
        assert reinference_reward(traj, ["paris"]) == 1.0

    def test_missing_answer_scores_zero(self):
        traj = parse_trajectory("<think>hmm</think>")
        assert reinference_reward(traj, ["x"]) == 0.0


class TestCombinedReward:
    def test_default_weight_setting(self):
        b = combined_reward(1.0, 1.0, 0.2)
        assert b.total == pytest.approx(1.2)

    def test_zero_case(self):
        assert combined_reward(0.0, 0.0, 0.7).total == 0.0

    def test_arithmetic(self):
        assert combined_reward(1.0, 0.5, 0.3).total == pytest.approx(1.15)

    def test_total_identity_is_exact(self):
        b = combined_reward(1.0, 1.0, 0.2)
        assert b.total == b.direct + b.lambda_ * b.reinf

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="^lambda must be >= 0, got -0.1$"):
            combined_reward(1.0, 1.0, -0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_lambda_that_is_not_finite_rejected(self, value):
        # NaN and -inf fail the lower bound, +inf the finiteness check
        message = "must be finite" if value == float("inf") else "must be >= 0"
        with pytest.raises(ValueError, match=f"^lambda {message}, got {value}$"):
            combined_reward(1.0, 1.0, value)
        with pytest.raises(ValueError, match=f"^lambda {message}, got {value}$"):
            parse_schedule(f"linear:0:{value}:4")

    def test_json_field_names(self):
        d = combined_reward(1.0, 0.0, 0.2).to_dict()
        assert d == {"direct": 1.0, "reinf": 0.0, "lambda": 0.2, "total": 1.0}


class TestSchedule:
    def test_constant(self):
        assert lambda_at((0.2, 0.2, 1), 10_000) == 0.2

    @pytest.mark.parametrize("schedule, want", [((0.0, 0.2, 100), 0.1), ((0.1, 0.3, 4), 0.2)],
                             ids=["from-zero", "from-above-zero"])
    def test_linear_midpoint(self, schedule, want):
        assert lambda_at(schedule, schedule[2] // 2) == pytest.approx(want)

    def test_linear_clamps_at_end(self):
        assert lambda_at((0.0, 0.2, 100), 250) == pytest.approx(0.2)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="^lambda steps must be >= 1, got 0$"):
            parse_schedule("linear:0:0.2:0")

    @given(st.integers(0, 10_000))
    def test_emitted_lambda_never_negative(self, step):
        for sched in ((0.2, 0.2, 1), (0.0, 0.2, 100), (0.3, 0.1, 7)):
            assert lambda_at(sched, step) >= 0.0
