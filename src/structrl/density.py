"""Information density: fact coverage per token, and a numeric check of the
ordering "raw docs < best predefined <= best overall".

Information content is operationalized as gold-fact coverage: a fact counts
when its normalized form appears contiguously in the text (containment) or
when its token set is covered (token subset). Length is the whitespace token
count of the normalized text. Ordering checks report rather than assert, and
instances that break the preservation premise are downgraded to
"premise unmet" instead of counting as failures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._textnorm import norm_tokens, normalize_text
from .prompting import PREDEFINED_FORMATS

_PREDEFINED_LABELS = {name.lower() for name in PREDEFINED_FORMATS}


class Matcher(str, Enum):
    NORMALIZED_CONTAINMENT = "normalized_containment"
    TOKEN_SUBSET = "token_subset"


@dataclass(frozen=True)
class FactSet:
    facts: tuple[str, ...]
    matcher: Matcher = Matcher.NORMALIZED_CONTAINMENT


@dataclass(frozen=True)
class DensityMeasurement:
    info: int
    length: int
    rho: float
    matched_facts: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "info": self.info,
            "length": self.length,
            "rho": self.rho,
            "matched_facts": list(self.matched_facts),
        }


@dataclass(frozen=True)
class StructureCandidate:
    label: str
    body: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("candidate label must be non-empty")

    @property
    def predefined(self) -> bool:
        return self.label.strip().lower() in _PREDEFINED_LABELS


def _matched(norm: str, facts: FactSet) -> tuple[str, ...]:
    """Facts covered by ``norm``, a text already put through ``normalize_text``."""
    if facts.matcher is Matcher.NORMALIZED_CONTAINMENT:
        padded = f" {norm} "
        return tuple(
            f for f in facts.facts if (fn := normalize_text(f)) and f" {fn} " in padded
        )
    tokens = set(norm.split())
    return tuple(f for f in facts.facts if (ft := set(norm_tokens(f))) and ft <= tokens)


def density(a: str, facts: FactSet) -> DensityMeasurement:
    """Facts covered per normalized token; the text is normalized once."""
    norm = normalize_text(a)
    length = len(norm.split())
    if length == 0:
        raise ValueError("density needs at least one token")
    matched = _matched(norm, facts)
    return DensityMeasurement(
        info=len(matched), length=length, rho=len(matched) / length, matched_facts=matched
    )


@dataclass(frozen=True)
class OrderingReport:
    """Numeric check of the density ordering on one instance."""

    raw: DensityMeasurement
    candidates: tuple[tuple[str, bool, DensityMeasurement], ...]
    rho_raw: float
    max_predefined_rho: float | None
    max_overall_rho: float
    left_inequality: bool
    right_inequality: bool
    premise_info_preserved: bool
    premise_length_reduced: bool
    status: str

    def to_dict(self) -> dict:
        return {
            "raw": {"label": "raw_docs", **self.raw.to_dict()},
            "candidates": [
                {"label": label, "predefined": predefined, **m.to_dict()}
                for label, predefined, m in self.candidates
            ],
            "rho_raw": self.rho_raw,
            "max_predefined_rho": self.max_predefined_rho,
            "max_overall_rho": self.max_overall_rho,
            "left_inequality": self.left_inequality,
            "right_inequality": self.right_inequality,
            "premise_info_preserved": self.premise_info_preserved,
            "premise_length_reduced": self.premise_length_reduced,
            "status": self.status,
        }


def verify_ordering(
    raw_docs: str, structures: list[StructureCandidate], facts: FactSet
) -> OrderingReport:
    """Check rho(raw) < max over predefined <= max over all candidates.

    The preservation premise is evaluated on the best predefined candidate:
    it must keep at least 90% of the raw facts (ceiling) in strictly fewer
    tokens. Premise violations downgrade the verdict to "premise_unmet";
    nothing is ever raised for a failed inequality.
    """
    raw_m = density(raw_docs, facts)
    measured = tuple(
        (c.label, c.predefined, density(c.body, facts)) for c in structures
    )
    predefined = [(label, m) for label, pre, m in measured if pre]
    status = "premise_unmet"
    max_pre: float | None = None
    left = False
    right = False
    info_ok = False
    length_ok = False
    if predefined:
        best_m = predefined[0][1]
        for _, m in predefined[1:]:
            if m.rho > best_m.rho:
                best_m = m
        max_pre = best_m.rho
        info_ok = best_m.info >= math.ceil(0.9 * raw_m.info)
        length_ok = best_m.length < raw_m.length
        max_all = max(m.rho for _, _, m in measured)
        left = raw_m.rho < max_pre
        right = max_pre <= max_all
        if info_ok and length_ok:
            status = "pass" if (left and right) else "fail"
    else:
        max_all = max((m.rho for _, _, m in measured), default=raw_m.rho)
    return OrderingReport(
        raw=raw_m,
        candidates=measured,
        rho_raw=raw_m.rho,
        max_predefined_rho=max_pre,
        max_overall_rho=max_all,
        left_inequality=left,
        right_inequality=right,
        premise_info_preserved=info_ok,
        premise_length_reduced=length_ok,
        status=status,
    )


# ranges of the synthetic generator, inclusive: facts per instance, and
# filler tokens before each fact
MIN_FACTS, MAX_FACTS = 2, 5
MIN_FILLER, MAX_FILLER = 6, 12


@dataclass(frozen=True)
class SyntheticInstance:
    raw_docs: str
    candidates: tuple[StructureCandidate, ...]
    facts: FactSet


def generate_synthetic(n_instances: int, seed: int) -> list[SyntheticInstance]:
    """Constructed instances on which the ordering and its premises hold.

    Facts are unique token triples, the raw text pads each fact with filler,
    the table candidate holds every fact plus a 3-token header, and the
    self-defined timeline holds every fact with no header.
    """
    rng = np.random.default_rng(seed)
    instances: list[SyntheticInstance] = []
    for idx in range(n_instances):
        k = int(rng.integers(MIN_FACTS, MAX_FACTS + 1))
        facts = tuple(f"ent{idx}x{j} rel{idx}x{j} val{idx}x{j}" for j in range(k))
        sentences = []
        for j, fact in enumerate(facts):
            w = int(rng.integers(MIN_FILLER, MAX_FILLER + 1))
            filler = " ".join(f"pad{idx}x{j}x{t}" for t in range(w))
            sentences.append(f"{filler} {fact}.")
        extra = int(rng.integers(5, 16))
        sentences.append(" ".join(f"tail{idx}x{t}" for t in range(extra)) + ".")
        raw = " ".join(sentences)
        table_rows = "\n".join(f"| {f.split()[0]} | {f.split()[1]} | {f.split()[2]} |" for f in facts)
        table = StructureCandidate("Table", f"| entity | relation | value |\n{table_rows}")
        timeline = StructureCandidate("timeline", "\n".join(facts))
        instances.append(
            SyntheticInstance(
                raw_docs=raw,
                candidates=(table, timeline),
                facts=FactSet(facts, Matcher.NORMALIZED_CONTAINMENT),
            )
        )
    return instances


def run_corpus(
    instances: list[SyntheticInstance],
) -> dict:
    """Ordering reports for a corpus plus a pass/fail tally."""
    reports = []
    tally = {"pass": 0, "fail": 0, "premise_unmet": 0}
    for inst in instances:
        rep = verify_ordering(inst.raw_docs, list(inst.candidates), inst.facts)
        tally[rep.status] += 1
        reports.append(
            {
                "facts": list(inst.facts.facts),
                "matcher": inst.facts.matcher.value,
                **rep.to_dict(),
            }
        )
    return {
        "instances": reports,
        "summary": {
            "n": len(reports),
            "pass": tally["pass"],
            "fail": tally["fail"],
            "premise_unmet": tally["premise_unmet"],
        },
    }
