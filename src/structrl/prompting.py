"""Prompt assembly and the structural-format registry.

Two templates ship as package data: the main generation prompt, which embeds
retrieved documents and the strict tagging rules, and the re-inference prompt,
which sees only the structured content the model produced. Placeholders are
spliced positionally so text that happens to contain ``{context}`` or
``{question}`` is never re-expanded.
"""
from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .errors import EmptyDocs, InvalidName, NoFormats
from .trajectory import FORMAT_NAME_RE


class FormatOrigin(str, Enum):
    PREDEFINED = "predefined"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class FormatSpec:
    name: str
    description: str
    origin: FormatOrigin

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "origin": self.origin.value,
        }


PREDEFINED_FORMATS: tuple[FormatSpec, ...] = (
    FormatSpec(
        "Chunk",
        "A chunk is a self-contained summary of one or multiple documents in natural language.",
        FormatOrigin.PREDEFINED,
    ),
    FormatSpec(
        "Knowledge Graph",
        "A knowledge graph is a structured way of representation facts in the form of "
        "entities (things) and relations (connections between things), often expressed "
        "as triple: (head, relation, tail).",
        FormatOrigin.PREDEFINED,
    ),
    FormatSpec(
        "Table",
        "A table is a structured way of organizing data into rows and columns. It's "
        "commonly used to present information clearly and compactly.",
        FormatOrigin.PREDEFINED,
    ),
    FormatSpec(
        "Catalogue",
        "A catalogue is a structured, systematically arranged list of items-each "
        "described by a consistent set of metadata-that lets readers discover, browse, "
        "and retrieve individual entries quickly.",
        FormatOrigin.PREDEFINED,
    ),
    FormatSpec(
        "Algorithm",
        "An algorithm is a step-by-step procedure for solving a problem or achieving "
        "a specific result.",
        FormatOrigin.PREDEFINED,
    ),
)


class FormatRegistry:
    """Known structural formats: the predefined five plus model-invented ones.

    Lookup is case-insensitive so dynamic names can never shadow a predefined
    name. Registration is idempotent and thread-safe; iteration preserves
    insertion order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._specs: dict[str, FormatSpec] = {
            spec.name.lower(): spec for spec in PREDEFINED_FORMATS
        }

    def lookup(self, name: str) -> FormatSpec | None:
        return self._specs.get(name.strip().lower())

    def register_dynamic(self, name: str, description: str = "") -> FormatSpec:
        name = name.strip()
        if not FORMAT_NAME_RE.match(name):
            raise InvalidName(f"format name {name!r} violates the tag grammar")
        with self._lock:
            existing = self._specs.get(name.lower())
            if existing is not None:
                return existing
            spec = FormatSpec(name, description, FormatOrigin.DYNAMIC)
            self._specs[name.lower()] = spec
            return spec

    def specs(self) -> list[FormatSpec]:
        with self._lock:
            return list(self._specs.values())

    def names(self) -> list[str]:
        return [spec.name for spec in self.specs()]

    def dump_json(self) -> str:
        return json.dumps([s.to_dict() for s in self.specs()], ensure_ascii=False)


DEFAULT_REGISTRY = FormatRegistry()


def register_dynamic_format(
    name: str, description: str = "", registry: FormatRegistry | None = None
) -> FormatSpec:
    return (registry or DEFAULT_REGISTRY).register_dynamic(name, description)


@functools.cache
def _load_template(filename: str) -> str:
    # read on first use, not at import, so importing the package stays cheap
    return resources.files("structrl.templates").joinpath(filename).read_text("utf-8")


def main_template() -> str:
    return _load_template("main_prompt.txt")


def reinference_template() -> str:
    return _load_template("reinference_prompt.txt")


def splice(template: str, context: str, question: str) -> str:
    """Fill {context} then {question} positionally; inserted text stays literal."""
    before_ctx, after_ctx = template.split("{context}", 1)
    before_q, after_q = after_ctx.split("{question}", 1)
    return before_ctx + context + before_q + question + after_q


def render_docs(docs: list[str]) -> str:
    """Number retrieved documents 1-based, one per line."""
    return "\n".join(f"Doc {i}: {doc}" for i, doc in enumerate(docs, start=1))


@dataclass(frozen=True)
class PromptBundle:
    """A rendered main prompt together with its substituted parts."""

    main_prompt: str
    question: str
    context: str


def build_main_prompt(question: str, docs: list[str], template: str | None = None) -> str:
    """Generation prompt over the retrieved documents."""
    if not docs:
        raise EmptyDocs("main prompt needs at least one retrieved document")
    return splice(template or main_template(), render_docs(docs), question)


def build_main_bundle(question: str, docs: list[str]) -> PromptBundle:
    context = render_docs(docs) if docs else ""
    return PromptBundle(build_main_prompt(question, docs), question, context)


def join_format_bodies(formats: list[tuple[str, str]]) -> str:
    """Re-inference context: bodies verbatim, blank-line separated, names omitted."""
    return "\n\n".join(body for _, body in formats)


def build_reinference_prompt(
    question: str, formats: list[tuple[str, str]], template: str | None = None
) -> str:
    """Answer-only prompt whose context is solely the structured content.

    The original documents never appear here; that isolation is what makes
    the second-pass reward measure the structures rather than the retrieval.
    """
    if not formats:
        raise NoFormats("no format blocks to re-infer from")
    context = join_format_bodies(formats)
    return splice(template or reinference_template(), context, question)
