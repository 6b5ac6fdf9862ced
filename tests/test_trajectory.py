import string
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structrl import trajectory
from structrl._textnorm import norm_tokens
from structrl.trajectory import (
    DocIndex,
    Rule,
    extract_formats,
    parse_trajectory,
    validate,
)


class TestParse:
    def test_golden_trace_block_sequence(self, golden_trace):
        traj = parse_trajectory(golden_trace)
        kinds = [b["kind"] for b in traj.blocks]
        assert kinds == ["think", "format", "think", "format", "think", "answer"]
        names = [b["format_name"] for b in traj.blocks if b["kind"] == "format"]
        assert names == ["table", "date_comparison"]
        assert traj.answer == "Así en el cielo como en la tierra"

    def test_golden_trace_format_bodies(self, golden_trace):
        formats = extract_formats(parse_trajectory(golden_trace))
        assert formats[0][0] == "table"
        assert formats[0][1].strip().startswith("| Film Title |")
        assert (
            formats[1][1].strip()
            == "- Monty Banks: 1897-07-15\n- José Luis Cuerda: 1947-02-18"
        )

    def test_empty_input(self):
        traj = parse_trajectory("")
        assert traj.blocks == ()
        assert traj.answer is None

    def test_mismatched_format_name_skipped(self):
        traj = parse_trajectory("<think>a</think><format: table>x</format: graph>")
        assert [b["kind"] for b in traj.blocks] == ["think"]

    def test_unclosed_tag_recovers_following_blocks(self):
        traj = parse_trajectory("<think>open<answer>42</answer>")
        assert [b["kind"] for b in traj.blocks] == ["answer"]
        assert traj.answer == "42"

    def test_first_answer_wins(self):
        traj = parse_trajectory("<answer>one</answer><answer>two</answer>")
        assert traj.answer == "one"
        assert len(traj.blocks) == 2

    def test_format_name_whitespace_trimmed(self):
        traj = parse_trajectory("<format:  table >x</format: table>")
        assert traj.blocks[0]["format_name"] == "table"

    def test_bad_format_name_not_a_tag(self):
        traj = parse_trajectory("<format: a=b>x</format: a=b><answer>y</answer>")
        assert [b["kind"] for b in traj.blocks] == ["answer"]

    def test_text_outside_blocks_ignored(self):
        traj = parse_trajectory("preamble <think>t</think> middle <answer>a</answer> end")
        assert len(traj.blocks) == 2

    def test_span_covers_whole_tag_region(self):
        raw = "xx<think>body</think>yy"
        block = parse_trajectory(raw).blocks[0]
        start, end = block["span"]
        assert raw[start:end] == "<think>body</think>"

    def test_grammar_violations_kept_but_not_serialized(self):
        traj = parse_trajectory("<think>never closed<answer>a</answer>")
        assert [v.rule_id for v in traj.grammar_violations] == [Rule.UNCLOSED_TAG]
        assert set(traj.to_dict()) == {"raw", "blocks", "answer"}

    def test_block_serialization_field_names(self):
        block = parse_trajectory("<format: t>x</format: t>").blocks[0]
        assert list(block) == ["kind", "format_name", "content", "span"]


@st.composite
def trajectory_texts(draw):
    words = st.text(alphabet=string.ascii_lowercase + " ", min_size=0, max_size=20)
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["think", "answer", "format", "junk"]))
        body = draw(words)
        if kind == "think":
            parts.append(f"<think>{body}</think>")
        elif kind == "answer":
            parts.append(f"<answer>{body}</answer>")
        elif kind == "format":
            name = draw(st.sampled_from(["table", "t_1", "a-b", "Knowledge Graph"]))
            parts.append(f"<format: {name}>{body}</format: {name}>")
        else:
            parts.append(body)
    return draw(words).join(parts)


class TestParseProperties:
    @given(trajectory_texts())
    def test_parse_is_deterministic(self, raw):
        assert parse_trajectory(raw) == parse_trajectory(raw)

    @given(trajectory_texts())
    def test_spans_increase_and_cover_content(self, raw):
        traj = parse_trajectory(raw)
        last_end = 0
        for block in traj.blocks:
            start, end = block["span"]
            assert start >= last_end
            assert block["content"] in raw[start:end]
            last_end = end

    @given(trajectory_texts())
    def test_extract_formats_is_format_subsequence(self, raw):
        traj = parse_trajectory(raw)
        expected = [
            (b["format_name"], b["content"])
            for b in traj.blocks
            if b["kind"] == "format"
        ]
        assert extract_formats(traj) == expected

    @given(st.text(max_size=200))
    def test_never_raises_on_arbitrary_text(self, raw):
        traj = parse_trajectory(raw)
        validate(traj, DocIndex(["some doc text"]))



def quadratic_scan(raw):
    """The scan before it remembered failed close searches, kept as the
    reference: it searches to the end of the text for every unclosed tag."""
    t = trajectory
    blocks, issues = [], []
    pos = 0
    while True:
        m = t._OPEN_RE.search(raw, pos)
        if m is None:
            break
        tag = m.group(0)
        if tag == "<think>" or tag == "<answer>":
            close = f"</{tag[1:]}"
            end = raw.find(close, m.end())
            if end == -1:
                issues.append(
                    t.Violation(t.Rule.UNCLOSED_TAG, (m.start(), len(raw)), f"unclosed {tag}")
                )
                pos = m.end()
                continue
            blocks.append({"kind": tag[1:-1], "format_name": None,
                           "content": raw[m.end() : end], "span": [m.start(), end + len(close)]})
            pos = end + len(close)
        else:
            name = m.group(1).strip()
            if not t.FORMAT_NAME_RE.match(name):
                pos = m.end()
                continue
            cm = t._FORMAT_CLOSE_RE.search(raw, m.end())
            if cm is None:
                issues.append(
                    t.Violation(
                        t.Rule.UNCLOSED_TAG, (m.start(), len(raw)), f"unclosed <format: {name}>"
                    )
                )
                pos = m.end()
                continue
            close_name = cm.group(1).strip()
            if close_name != name:
                issues.append(
                    t.Violation(
                        t.Rule.MISMATCHED_FORMAT_NAME,
                        (m.start(), cm.end()),
                        f"opening name {name!r} does not match closing name {close_name!r}",
                    )
                )
                pos = cm.end()
                continue
            blocks.append({"kind": "format", "format_name": name,
                           "content": raw[m.end() : cm.start()], "span": [m.start(), cm.end()]})
            pos = cm.end()
    return blocks, issues


TAG_FRAGMENTS = [
    "<think>", "</think>", "<answer>", "</answer>",
    "<format: t>", "</format: t>", "<format: u v>", "</format: u v>",
    "<format: bad!>", "</format:>", "<answer", "x", " ", "word\n",
]


@given(st.lists(st.sampled_from(TAG_FRAGMENTS), min_size=100, max_size=400).map("".join))
@settings(max_examples=60)
def test_scan_equals_the_quadratic_reference(raw):
    assert trajectory._scan(raw) == quadratic_scan(raw)


NO_DOCS = DocIndex([])


def validate_against(form, raw, docs):
    """Validate raw against the index of docs, in one of two forms.

    "list": an index built from the plain document list for this one call.
    "index": one prebuilt index used for two validations, as a rollout uses
    one per query for both passes of a sample; the second report must equal
    the first.
    """
    traj = parse_trajectory(raw)
    if form == "list":
        return validate(traj, DocIndex(list(docs)))
    index = DocIndex(tuple(docs))
    first = validate(traj, index)
    assert validate(traj, index) == first
    return first


class TestValidate:
    def test_golden_trace_is_clean(self, golden_trace, golden_docs):
        report = validate(parse_trajectory(golden_trace), DocIndex(golden_docs))
        assert report.is_clean

    def test_placeholder_format_body(self):
        raw = "<format: table>Your reformatted information</format: table><answer>x</answer>"
        report = validate(parse_trajectory(raw), NO_DOCS)
        assert Rule.PLACEHOLDER_FORMAT in report.rules()

    def test_placeholder_format_name(self):
        raw = "<format: format_name>real content</format: format_name><answer>x</answer>"
        report = validate(parse_trajectory(raw), NO_DOCS)
        assert Rule.PLACEHOLDER_FORMAT in report.rules()

    def test_placeholder_answer(self):
        report = validate(parse_trajectory("<answer> and </answer>"), NO_DOCS)
        assert Rule.PLACEHOLDER_ANSWER in report.rules()

    def test_empty_answer_is_placeholder(self):
        report = validate(parse_trajectory("<answer>  </answer>"), NO_DOCS)
        assert Rule.PLACEHOLDER_ANSWER in report.rules()

    def test_no_answer(self):
        report = validate(parse_trajectory("<think>only thought</think>"), NO_DOCS)
        assert Rule.NO_ANSWER in report.rules()

    def test_empty_format_body(self):
        raw = "<format: table>  </format: table><answer>x</answer>"
        report = validate(parse_trajectory(raw), NO_DOCS)
        assert Rule.EMPTY_FORMAT_BODY in report.rules()

    def test_unclosed_tag_reported(self):
        report = validate(parse_trajectory("<think>never closed"), NO_DOCS)
        assert Rule.UNCLOSED_TAG in report.rules()
        assert Rule.NO_ANSWER in report.rules()

    def test_mismatched_format_name_reported(self):
        raw = "<format: table>x</format: graph><answer>y</answer>"
        report = validate(parse_trajectory(raw), NO_DOCS)
        assert Rule.MISMATCHED_FORMAT_NAME in report.rules()

    @pytest.mark.parametrize("form", ["list", "index"])
    def test_copied_content_fires_on_verbatim_run(self, form):
        doc = " ".join(f"w{i}" for i in range(40))
        raw = f"<format: Chunk>{doc}</format: Chunk><answer>x</answer>"
        report = validate_against(form, raw, [doc])
        assert Rule.COPIED_CONTENT in report.rules()

    @pytest.mark.parametrize("form", ["list", "index"])
    def test_copied_content_ignores_short_overlap(self, form):
        doc = " ".join(f"w{i}" for i in range(40))
        body = " ".join(f"w{i}" for i in range(20))
        raw = f"<format: Chunk>{body}</format: Chunk><answer>x</answer>"
        report = validate_against(form, raw, [doc])
        assert Rule.COPIED_CONTENT not in report.rules()

    @pytest.mark.parametrize("form", ["list", "index"])
    def test_copied_content_only_checks_format_blocks(self, form):
        doc = " ".join(f"w{i}" for i in range(40))
        raw = f"<think>{doc}</think><answer>x</answer>"
        report = validate_against(form, raw, [doc])
        assert Rule.COPIED_CONTENT not in report.rules()

    def test_each_trajectory_is_scanned_once(self, monkeypatch):
        scanned = []
        real_scan = trajectory._scan

        def counting_scan(raw):
            scanned.append(raw)
            return real_scan(raw)

        monkeypatch.setattr(trajectory, "_scan", counting_scan)
        raw = "<think>never closed<format: t>x</format: u><answer>y</answer>"
        report = validate(parse_trajectory(raw), NO_DOCS)
        assert scanned == [raw]
        assert {Rule.UNCLOSED_TAG, Rule.MISMATCHED_FORMAT_NAME} <= report.rules()

    def test_is_clean_iff_no_violations(self, golden_trace, golden_docs):
        clean = validate(parse_trajectory(golden_trace), DocIndex(golden_docs))
        dirty = validate(parse_trajectory(""), NO_DOCS)
        assert clean.is_clean and not clean.violations
        assert not dirty.is_clean and dirty.violations

    def test_violation_serialization_rule_ids(self):
        report = validate(parse_trajectory(""), NO_DOCS)
        d = report.to_dict()
        assert d["violations"][0]["rule_id"] == "NoAnswer"


class TestCopyDetection:
    def test_threshold_boundary(self):
        doc = " ".join(f"w{i}" for i in range(trajectory.COPY_NGRAM))
        assert DocIndex([doc]).copied_in(doc)
        assert not DocIndex([doc]).copied_in(doc[: doc.rindex(" ")])

    def test_normalization_defeats_cosmetic_edits(self):
        doc = " ".join(f"w{i}" for i in range(35))
        edited = doc.upper().replace(" ", ",  ")
        assert DocIndex([doc]).copied_in(edited)

    # budget 0 forces the set of body windows, the path of long bodies
    @pytest.mark.parametrize("budget", [trajectory._SEARCH_BUDGET, 0], ids=["search", "set"])
    def test_a_run_across_two_documents_is_not_copied(self, monkeypatch, budget):
        monkeypatch.setattr(trajectory, "_SEARCH_BUDGET", budget)
        words = [f"w{i}" for i in range(40)]
        docs = [" ".join(words[:20]), " ".join(words[20:])]
        assert not DocIndex(docs).copied_in(" ".join(words))
        assert DocIndex([" ".join(words)]).copied_in(" ".join(words))

    @pytest.mark.parametrize("budget", [trajectory._SEARCH_BUDGET, 0], ids=["search", "set"])
    def test_a_run_of_parts_of_tokens_is_not_copied(self, monkeypatch, budget):
        monkeypatch.setattr(trajectory, "_SEARCH_BUDGET", budget)
        middle = " ".join(f"w{i}" for i in range(trajectory.COPY_NGRAM - 2))
        index = DocIndex([f"river {middle} rivers"])
        assert not index.copied_in(f"iver {middle} river")
        assert index.copied_in(f"river {middle} rivers")


def ngram_set_copied_in(docs, text):
    """The copy check as a set of every document n-gram, the reference for
    `DocIndex.copied_in`."""
    n = trajectory.COPY_NGRAM
    grams = {tuple(t[i : i + n]) for t in map(norm_tokens, docs) for i in range(len(t) - n + 1)}
    toks = norm_tokens(text)
    return any(tuple(toks[i : i + n]) in grams for i in range(len(toks) - n + 1))


# few words, so runs repeat; articles and punctuation vanish when normalised
COPY_WORDS = [
    "a", "THE", "-", "river", "River,", "city", "(city)", "born", "1897", "it's", "x.y", "on", "of",
]


@st.composite
def docs_and_body(draw):
    """Documents, and a body spliced from slices of them and from free words,
    with one-token edits and case and separator noise, so hits are common."""
    words = st.sampled_from(COPY_WORDS)
    docs = draw(st.lists(st.lists(words, min_size=50, max_size=100), min_size=1, max_size=3))
    body = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)):  # three pieces in four are document slices
            doc = draw(st.sampled_from(docs))
            start = draw(st.integers(0, len(doc) - 30))
            body += doc[start : start + draw(st.integers(40, 100))]
        else:
            body += draw(st.lists(words, max_size=40))
    for _ in range(draw(st.integers(0, 2)) if body else 0):
        body[draw(st.integers(0, len(body) - 1))] = draw(words)
    case = draw(st.sampled_from([str, str.upper, str.title]))
    sep = draw(st.sampled_from([" ", ",  ", "\n", " -- "]))
    return [" ".join(doc) for doc in docs], sep.join(case(w) for w in body)


@pytest.mark.parametrize("budget", [trajectory._SEARCH_BUDGET, 0], ids=["search", "set"])
@given(docs_and_body())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_copy_check_equals_the_ngram_set_reference(monkeypatch, budget, case):
    monkeypatch.setattr(trajectory, "_SEARCH_BUDGET", budget)
    docs, body = case
    index = DocIndex(docs)
    want = ngram_set_copied_in(docs, body)
    # the second call finds what the first one built
    assert index.copied_in(body) == want
    assert index.copied_in(body) == want


def test_copy_check_of_a_long_body_is_not_quadratic():
    """One word repeated, broken every 29 tokens so that no run is copied.
    One substring search per body window takes about 2 s here on a 2-vCPU
    machine; the check takes about 0.015 s."""
    doc = " ".join(["w"] * 4000)
    body = " ".join("x" if i % 30 == 0 else "w" for i in range(1, 30_001))
    index = DocIndex([doc])
    start = time.perf_counter()
    assert not index.copied_in(body)
    assert time.perf_counter() - start < 0.5
