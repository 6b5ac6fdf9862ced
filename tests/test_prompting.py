import pytest
from hypothesis import given
from hypothesis import strategies as st

from structrl.prompting import (
    PREDEFINED_FORMATS,
    build_main_prompt,
    build_reinference_prompt,
    join_format_bodies,
    main_template,
    reinference_template,
    render_docs,
    splice,
)
from structrl.trajectory import extract_formats, parse_trajectory


class TestTemplates:
    def test_main_template_placeholders(self):
        t = main_template()
        assert t.count("{context}") == 1
        assert t.count("{question}") == 1

    def test_reinference_template_placeholders(self):
        t = reinference_template()
        assert t.count("{context}") == 1
        assert t.count("{question}") == 1

    def test_main_template_carries_strict_rules(self):
        t = main_template()
        assert "STRICT FORMAT RULES" in t
        for name in PREDEFINED_FORMATS:
            assert f"{name}:" in t


class TestMainPrompt:
    def test_doc_numbering(self):
        p = build_main_prompt("Which rover landed most recently?", ["alpha", "beta"])
        assert "Doc 1: alpha\nDoc 2: beta" in p
        assert "Question: Which rover landed most recently?" in p

    def test_empty_docs_rejected(self):
        with pytest.raises(ValueError, match="main prompt needs at least one retrieved document"):
            build_main_prompt("q", [])

    def test_substitution_is_positional_not_recursive(self):
        p = build_main_prompt("what is {question}?", ["doc with {context} inside"])
        assert p.count("what is {question}?") == 1
        assert "Doc 1: doc with {context} inside" in p

    def test_template_fidelity(self):
        question = "QQQ"
        docs = ["DDD"]
        p = build_main_prompt(question, docs)
        skeleton = p.replace(render_docs(docs), "{context}", 1).replace(
            question, "{question}", 1
        )
        assert skeleton == main_template()

    @given(st.text(max_size=40), st.lists(st.text(min_size=1, max_size=40), min_size=1, max_size=4))
    def test_splice_round_trip(self, question, docs):
        context = render_docs(docs)
        p = splice(main_template(), context, question)
        before_ctx, rest = main_template().split("{context}", 1)
        mid, after_q = rest.split("{question}", 1)
        assert p == before_ctx + context + mid + question + after_q


class TestReinferencePrompt:
    def test_bodies_joined_by_blank_line(self):
        p = build_reinference_prompt("q", [("a", "| A | B |"), ("b", "- x: 1")])
        assert "| A | B |\n\n- x: 1" in p

    def test_single_body_has_no_separator(self):
        assert join_format_bodies([("t", "t-body")]) == "t-body"

    def test_names_omitted(self):
        p = build_reinference_prompt("q", [("secretname", "body text")])
        assert "secretname" not in p

    def test_empty_formats_rejected(self):
        with pytest.raises(ValueError, match="no format blocks to re-infer from"):
            build_reinference_prompt("q", [])

    def test_golden_trace_context_excludes_docs(self, golden_trace, golden_docs):
        formats = extract_formats(parse_trajectory(golden_trace))
        p = build_reinference_prompt("Which film?", formats)
        assert "| The Girl in Possession | Monty Banks | 15 July 1897 |" in p
        assert "- Monty Banks: 1897-07-15" in p
        for doc in golden_docs:
            assert doc not in p


class TestRegistry:
    """The predefined formats: names only, described by the main template."""

    def test_predefined_set(self):
        assert PREDEFINED_FORMATS == ("Chunk", "Knowledge Graph", "Table", "Catalogue", "Algorithm")
