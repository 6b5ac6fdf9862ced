"""Parsing and validation of think/format/answer reasoning trajectories.

A trajectory is raw generated text segmented into tagged blocks:

    <think> ... </think>
    <format: NAME> ... </format: NAME>
    <answer> ... </answer>

A block is its record, the dict written to ``rollouts.jsonl``: ``{"kind",
"format_name", "content", "span"}``, where ``kind`` is ``"think"``,
``"format"`` or ``"answer"``, ``format_name`` is None except on a format
block, and ``span`` is the ``[start, end]`` of the whole tagged region.

Tags are literal and case-sensitive. A format block is well-formed only when
the opening and closing names match byte-for-byte after trimming surrounding
whitespace. Text outside well-formed blocks is ignored by the parser; broken
regions (unclosed tags, mismatched format names) are found in the same single
pass, kept on the trajectory and reported by `validate`.

The copy check searches a `DocIndex`, the normalised text of a query's
documents, for each `COPY_NGRAM`-token run of a format body as exact text, as
ExactSubstr does (arXiv 2107.06499). A rollout builds one index per query and
shares it across the K samples and both passes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate

from ._textnorm import normalize_text

# a format body repeating this many consecutive document tokens is copied content
COPY_NGRAM = 30
# past this many body windows x index characters, one search per window could
# take quadratic time, so the body's windows are looked up in a set instead
_SEARCH_BUDGET = 1 << 20

FORMAT_NAME_RE = re.compile(r"^[A-Za-z0-9_\- ]+$")

_OPEN_RE = re.compile(r"<think>|<answer>|<format:([^<>]*)>")
_FORMAT_CLOSE_RE = re.compile(r"</format:([^<>]*)>")


class Rule(str, Enum):
    """Validation rule identifiers, stable across serialization."""

    PLACEHOLDER_FORMAT = "PlaceholderFormat"
    PLACEHOLDER_ANSWER = "PlaceholderAnswer"
    COPIED_CONTENT = "CopiedContent"
    UNCLOSED_TAG = "UnclosedTag"
    MISMATCHED_FORMAT_NAME = "MismatchedFormatName"
    EMPTY_FORMAT_BODY = "EmptyFormatBody"
    NO_ANSWER = "NoAnswer"


@dataclass(frozen=True)
class Trajectory:
    raw: str
    blocks: tuple[dict, ...]  # block records, in document order
    answer: str | None
    # grammar issues found while parsing; `validate` reports them, so the
    # serialized form leaves them out
    grammar_violations: tuple[Violation, ...]

    def has_formats(self) -> bool:
        return any(b["kind"] == "format" for b in self.blocks)

    def to_dict(self) -> dict:
        return {
            "raw": self.raw,
            "blocks": list(self.blocks),
            "answer": self.answer,
        }


@dataclass(frozen=True)
class Violation:
    rule_id: Rule
    span: tuple[int, int]
    message: str

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id.value,
            "span": list(self.span),
            "message": self.message,
        }


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def is_clean(self) -> bool:
        return not self.violations

    def rules(self) -> set[Rule]:
        return {v.rule_id for v in self.violations}

    def to_dict(self) -> dict:
        return {
            "violations": [v.to_dict() for v in self.violations],
            "is_clean": self.is_clean,
        }


PLACEHOLDER_FORMAT_NAME = "format_name"
PLACEHOLDER_FORMAT_BODY = "Your reformatted information"
PLACEHOLDER_ANSWER_TEXT = "and"


def _scan(raw: str) -> tuple[list[dict], list[Violation]]:
    """Single left-to-right pass producing well-formed blocks and grammar issues.

    An unclosed open tag is flagged and scanning resumes just past the tag, so
    well-formed blocks inside the broken region are still recovered. A format
    region whose closing name mismatches is flagged and skipped whole.

    Once the search for a close tag of one kind fails, no later open tag of
    that kind can close either; remembering that keeps the pass linear in
    unclosed tags.
    """
    blocks: list[dict] = []
    issues: list[Violation] = []
    unclosed: set[str] = set()
    pos = 0
    while True:
        m = _OPEN_RE.search(raw, pos)
        if m is None:
            break
        tag = m.group(0)
        if tag == "<think>" or tag == "<answer>":
            close = f"</{tag[1:]}"
            end = -1 if tag in unclosed else raw.find(close, m.end())
            if end == -1:
                unclosed.add(tag)
                issues.append(
                    Violation(Rule.UNCLOSED_TAG, (m.start(), len(raw)), f"unclosed {tag}")
                )
                pos = m.end()
                continue
            blocks.append({"kind": tag[1:-1], "format_name": None,
                           "content": raw[m.end() : end], "span": [m.start(), end + len(close)]})
            pos = end + len(close)
        else:
            name = m.group(1).strip()
            if not FORMAT_NAME_RE.match(name):
                # not a recognized tag; treat as plain text
                pos = m.end()
                continue
            cm = None if "format" in unclosed else _FORMAT_CLOSE_RE.search(raw, m.end())
            if cm is None:
                unclosed.add("format")
                issues.append(
                    Violation(Rule.UNCLOSED_TAG, (m.start(), len(raw)), f"unclosed <format: {name}>")
                )
                pos = m.end()
                continue
            close_name = cm.group(1).strip()
            if close_name != name:
                issues.append(
                    Violation(
                        Rule.MISMATCHED_FORMAT_NAME,
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


def parse_trajectory(raw: str) -> Trajectory:
    """Parse raw generated text into an ordered block sequence.

    Never fails: malformed regions are skipped here, kept as grammar
    violations and reported by `validate`. The answer is the content of the
    first answer block, trimmed.
    """
    blocks, issues = _scan(raw)
    answer = next((b["content"].strip() for b in blocks if b["kind"] == "answer"), None)
    return Trajectory(
        raw=raw, blocks=tuple(blocks), answer=answer, grammar_violations=tuple(issues)
    )


def extract_formats(traj: Trajectory) -> list[tuple[str, str]]:
    """Format blocks only, in document order, names and bodies verbatim."""
    return [(b["format_name"], b["content"]) for b in traj.blocks if b["kind"] == "format"]


def _windows(norm: str) -> list[str]:
    """Each `COPY_NGRAM`-token run of a normalised text, padded with spaces,
    cut as one slice of the padded text at token offsets."""
    tokens = norm.split()
    if len(tokens) < COPY_NGRAM:
        return []  # most format bodies are shorter than one window
    padded = f" {norm} "
    cuts = list(accumulate((len(t) + 1 for t in tokens), initial=0))
    return [padded[a : b + 1] for a, b in zip(cuts, cuts[COPY_NGRAM:])]


class DocIndex:
    """The normalised text of a document set, built once per set.

    Each document is padded with spaces and the documents are joined by
    newlines. Tokens hold no whitespace, so a space-padded run of tokens
    occurs in the joined text exactly when it is a run of one document.
    Long bodies are looked up in a set of the documents' windows, built once.
    """

    def __init__(self, docs: tuple[str, ...] | list[str]) -> None:
        self.docs = [normalize_text(doc) for doc in docs]
        self.text = "\n".join(f" {norm} " for norm in self.docs)
        # built by the first body past the search budget; samples sharing the
        # index may build it at once, and every build gives the same set
        self._doc_windows: set[str] | None = None

    def copied_in(self, text: str) -> bool:
        """True when text repeats a `COPY_NGRAM`-token run of any one document."""
        windows = _windows(normalize_text(text))
        if len(windows) * len(self.text) <= _SEARCH_BUDGET:
            return any(w in self.text for w in windows)
        if self._doc_windows is None:
            self._doc_windows = {w for doc in self.docs for w in _windows(doc)}
        return not self._doc_windows.isdisjoint(windows)


def validate(traj: Trajectory, index: DocIndex) -> ValidationReport:
    """Check a parsed trajectory against the strict format rules.

    ``index`` holds the source documents for the copy check. Reports, never
    rejects: whether a violation affects the reward is a policy decision made
    downstream.
    """
    violations = list(traj.grammar_violations)

    answer_seen = False
    for b in traj.blocks:
        content = b["content"]
        span = tuple(b["span"])
        if b["kind"] == "format":
            if b["format_name"] == PLACEHOLDER_FORMAT_NAME or PLACEHOLDER_FORMAT_BODY in content:
                violations.append(
                    Violation(Rule.PLACEHOLDER_FORMAT, span, "placeholder format block")
                )
            if not content.strip():
                violations.append(
                    Violation(Rule.EMPTY_FORMAT_BODY, span, f"format {b['format_name']!r} has no body")
                )
            if index.copied_in(content):
                violations.append(
                    Violation(
                        Rule.COPIED_CONTENT,
                        span,
                        f"format body repeats a {COPY_NGRAM}-token run from a source document",
                    )
                )
        elif b["kind"] == "answer" and not answer_seen:
            answer_seen = True
            answer = content.strip()
            if not answer or answer == PLACEHOLDER_ANSWER_TEXT:
                violations.append(
                    Violation(Rule.PLACEHOLDER_ANSWER, span, "placeholder or empty answer")
                )
    if not answer_seen:
        violations.append(
            Violation(Rule.NO_ANSWER, (0, len(traj.raw)), "no answer block")
        )
    return ValidationReport(violations=tuple(violations))
