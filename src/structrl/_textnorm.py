"""Shared answer/text normalization used by metrics, copy detection, and density."""
from __future__ import annotations

import re
import string

# \b(a|an|the)\b, written to start with a literal so that re can skip to the
# next "a" or "t": each lookbehind asserts that no word character precedes
# the article, and the lookahead that none follows it
_ARTICLE_RE = re.compile(r"(?:a(?<!\w.)n?|the(?<!\w...))(?!\w)")
_PUNCT_BYTES = string.punctuation.encode("ascii")


def normalize_text(s: str) -> str:
    """Lowercase, strip punctuation, drop standalone articles, squeeze whitespace.

    Punctuation is ASCII, so it is stripped from the UTF-8 bytes, where no
    ASCII byte occurs inside a longer sequence; "surrogatepass" carries lone
    surrogates through both ways.
    """
    data = s.lower().encode("utf-8", "surrogatepass").translate(None, _PUNCT_BYTES)
    s = _ARTICLE_RE.sub(" ", data.decode("utf-8", "surrogatepass"))
    return " ".join(s.split())


def norm_tokens(s: str) -> list[str]:
    """Whitespace tokens of the normalized string."""
    return normalize_text(s).split()
