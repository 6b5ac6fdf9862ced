"""Information density: fact coverage per token, and a numeric check of the
ordering "raw docs < best predefined <= best overall".

Information content is operationalized as gold-fact coverage: a fact counts
when its normalized form appears contiguously in the text (containment) or
when its token set is covered (token subset). Length is the whitespace token
count of the normalized text. Each fact is normalized once per instance:
``verify_ordering`` keys the facts once and matches the raw text and every
candidate against those keys. Ordering checks report rather than assert, and
instances that break the preservation premise are downgraded to
"premise unmet" instead of counting as failures.

An instance is a ``density --corpus`` record, ``{raw_docs, candidates:
[{label, body}], facts, matcher}``, and every result is the JSON of the
report that ``density`` writes.

numpy is imported by ``generate_synthetic``, on its first call, and not by
this module: ``density --corpus`` never loads it.
"""
from __future__ import annotations

import math

from ._textnorm import norm_tokens, normalize_text
from .errors import check_least
from .prompting import PREDEFINED_FORMATS

# the ways a fact can be found in a text; the first is the default
MATCHERS = ("normalized_containment", "token_subset")
_PREDEFINED_LABELS = {name.lower() for name in PREDEFINED_FORMATS}


def _fact_keys(facts: list[str], matcher: str) -> list[tuple]:
    """``(fact, key)`` for each fact that normalizes to something: its padded
    normal form for containment, its token set for token subset."""
    if matcher == MATCHERS[0]:
        return [(f, f" {fn} ") for f in facts if (fn := normalize_text(f))]
    return [(f, set(ft)) for f in facts if (ft := norm_tokens(f))]


def _density(text: str, keys: list[tuple], matcher: str) -> dict:
    """``density`` of ``text`` against facts already keyed by ``_fact_keys``."""
    norm = normalize_text(text)
    words = norm.split()
    length = len(words)
    if length == 0:
        raise ValueError("density needs at least one token")
    if matcher == MATCHERS[0]:
        padded = f" {norm} "
        matched = [f for f, key in keys if key in padded]
    else:
        tokens = set(words)
        matched = [f for f, key in keys if key <= tokens]
    return {"info": len(matched), "length": length, "rho": len(matched) / length,
            "matched_facts": matched}


def density(text: str, facts: list[str], matcher: str = MATCHERS[0]) -> dict:
    """``{info, length, rho, matched_facts}``: facts covered per normalized
    token; the text and each fact are normalized once."""
    return _density(text, _fact_keys(facts, matcher), matcher)


def verify_ordering(instance: dict) -> dict:
    """The report entry of one instance: rho(raw) < max over predefined <= max
    over all candidates.

    The preservation premise is evaluated on the best predefined candidate,
    the first of equal rho: it must keep at least 90% of the raw facts
    (ceiling) in strictly fewer tokens. Premise violations downgrade the
    verdict to "premise_unmet"; nothing is ever raised for a failed inequality.
    """
    facts, matcher = instance["facts"], instance["matcher"]
    keys = _fact_keys(facts, matcher)
    raw = _density(instance["raw_docs"], keys, matcher)
    candidates = [
        {"label": c["label"], "predefined": c["label"].strip().lower() in _PREDEFINED_LABELS,
         **_density(c["body"], keys, matcher)}
        for c in instance["candidates"]
    ]
    best = max((c for c in candidates if c["predefined"]), key=lambda c: c["rho"], default=None)
    max_all = max((c["rho"] for c in candidates), default=raw["rho"])
    left = right = info_ok = length_ok = False
    if best is not None:
        left = raw["rho"] < best["rho"]
        right = best["rho"] <= max_all
        info_ok = best["info"] >= math.ceil(0.9 * raw["info"])
        length_ok = best["length"] < raw["length"]
    return {
        "facts": facts,
        "matcher": matcher,
        "raw": {"label": "raw_docs", **raw},
        "candidates": candidates,
        "rho_raw": raw["rho"],
        "max_predefined_rho": None if best is None else best["rho"],
        "max_overall_rho": max_all,
        "left_inequality": left,
        "right_inequality": right,
        "premise_info_preserved": info_ok,
        "premise_length_reduced": length_ok,
        "status": ("pass" if left and right else "fail") if info_ok and length_ok
        else "premise_unmet",
    }


# ranges of the synthetic generator, inclusive: facts per instance, and
# filler tokens before each fact
MIN_FACTS, MAX_FACTS = 2, 5
MIN_FILLER, MAX_FILLER = 6, 12


def generate_synthetic(n_instances: int, seed: int) -> list[dict]:
    """Constructed instances on which the ordering and its premises hold.

    Facts are unique token triples, the raw text pads each fact with filler,
    the table candidate holds every fact plus a 3-token header, and the
    self-defined timeline holds every fact with no header.
    """
    check_least("n", n_instances, 0)
    import numpy as np  # on the first draw only; see the module docstring

    rng = np.random.default_rng(seed)
    instances = []
    for idx in range(n_instances):
        k = int(rng.integers(MIN_FACTS, MAX_FACTS + 1))
        facts = [f"ent{idx}x{j} rel{idx}x{j} val{idx}x{j}" for j in range(k)]
        sentences = []
        for j, fact in enumerate(facts):
            w = int(rng.integers(MIN_FILLER, MAX_FILLER + 1))
            filler = " ".join(f"pad{idx}x{j}x{t}" for t in range(w))
            sentences.append(f"{filler} {fact}.")
        extra = int(rng.integers(5, 16))
        sentences.append(" ".join(f"tail{idx}x{t}" for t in range(extra)) + ".")
        rows = "\n".join("| " + " | ".join(f.split()) + " |" for f in facts)
        instances.append({
            "raw_docs": " ".join(sentences),
            "candidates": [
                {"label": "Table", "body": f"| entity | relation | value |\n{rows}"},
                {"label": "timeline", "body": "\n".join(facts)},
            ],
            "facts": facts,
            "matcher": MATCHERS[0],
        })
    return instances


def run_corpus(instances: list[dict]) -> dict:
    """The density report: one entry per instance plus a pass/fail tally."""
    reports = [verify_ordering(inst) for inst in instances]
    statuses = [r["status"] for r in reports]
    return {
        "instances": reports,
        "summary": {"n": len(reports),
                    **{s: statuses.count(s) for s in ("pass", "fail", "premise_unmet")}},
    }
