"""Prompt assembly for the two generation passes.

Two templates ship as package data: the main generation prompt, which embeds
retrieved documents, the strict tagging rules and the descriptions of the
predefined formats, and the re-inference prompt, which sees only the
structured content the model produced. The main template is the one source
of the format descriptions; `PREDEFINED_FORMATS` only names them, and formats
the model invents need no registration. Placeholders are spliced
positionally so text that happens to contain ``{context}`` or ``{question}``
is never re-expanded.
"""
from __future__ import annotations

import functools
from importlib import resources

PREDEFINED_FORMATS = ("Chunk", "Knowledge Graph", "Table", "Catalogue", "Algorithm")


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


def build_main_prompt(question: str, docs: list[str]) -> str:
    """Generation prompt over the retrieved documents."""
    if not docs:
        raise ValueError("main prompt needs at least one retrieved document")
    return splice(main_template(), render_docs(docs), question)


def join_format_bodies(formats: list[tuple[str, str]]) -> str:
    """Re-inference context: bodies verbatim, blank-line separated, names omitted."""
    return "\n\n".join(body for _, body in formats)


def build_reinference_prompt(question: str, formats: list[tuple[str, str]]) -> str:
    """Answer-only prompt whose context is solely the structured content.

    The original documents never appear here; that isolation is what makes
    the second-pass reward measure the structures rather than the retrieval.
    """
    if not formats:
        raise ValueError("no format blocks to re-infer from")
    context = join_format_bodies(formats)
    return splice(reinference_template(), context, question)
