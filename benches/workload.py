"""Seeded workload generator: a QA dataset, mock fixtures and expected rewards.

For every query the generator writes K primary responses, one per sample
seed, as digest-keyed ``<sha>.txt`` fixtures, and the matching re-inference
responses the same way. The digests come from the package's own public
``build_main_prompt``, ``build_reinference_prompt``, ``derive_seed`` and
``prompt_digest``, so a fixture is hit exactly when the program builds the
prompt bytes the generator expects.

About a quarter of the samples get no digest file and fall back to
``rules.json``: one rule per query keyed on the ``Doc 1:`` line of its main
prompt, and one re-inference rule keyed on a marker inside that response's
format body.

Each sample is one response kind, chosen so that every validation path and
reward case shows up: self-contained structure, leaky structure, no
structure, wrong direct answer, a format body that copies a 32-token run from
a document, a mismatched format close tag, and a trajectory with no answer.
The expected direct and re-inference rewards of every sample are returned
alongside the files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from structrl.backends import prompt_digest
from structrl.prompting import build_main_prompt, build_reinference_prompt
from structrl.rollout import derive_seed

K = 8
LAMBDA = 0.2
BASE_SEED = 0
FALLBACK_PER_QUERY = 2
COPY_RUN = 32

# kind -> (expected direct reward, expected re-inference reward)
KINDS = {
    "self_contained": (1.0, 1.0),
    "leaky": (1.0, 0.0),
    "no_format": (1.0, 0.0),
    "wrong_answer": (0.0, 1.0),
    "copied_run": (1.0, 1.0),
    "mismatched_close": (1.0, 0.0),
    "no_answer": (0.0, 0.0),
}
# kinds whose total reward is 1.0 at any lambda; a group drawn only from
# these has all-equal rewards and so zero advantage
FLAT_KINDS = ("leaky", "no_format", "mismatched_close")
FLAT_GROUP_SHARE = 0.15
FORMAT_NAMES = ("Table", "Knowledge Graph", "Chunk", "Timeline", "Catalogue", "Algorithm")

_ONSETS = "b c d f g h k l m n p r s t v z br tr pl st kr".split()
_VOWELS = "a e i o u ai ou ea".split()


@dataclass(frozen=True)
class Shape:
    queries: int
    docs: int
    doc_tokens: tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """Paths of the generated inputs and the reward each sample must get."""

    dataset: Path
    fixtures: Path
    # expected[query][sample] = (direct, reinf)
    expected: list[list[tuple[float, float]]]


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        n = rng.randint(2, 3)
        words.add("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(n)))
    return sorted(words)


def _sentence_text(rng: random.Random, vocab: list[str], n: int) -> str:
    words = [rng.choice(vocab) for _ in range(n)]
    out, i = [], 0
    while i < len(words):
        step = rng.randint(7, 14)
        chunk = words[i : i + step]
        out.append(" ".join(chunk).capitalize() + ".")
        i += step
    return " ".join(out)


def _name(rng: random.Random, vocab: list[str]) -> str:
    return " ".join(rng.choice(vocab).capitalize() for _ in range(2))


def _doc_lengths(rng: random.Random, shape: Shape) -> list[int]:
    """Evenly spaced over the range and shuffled, so every query is as long."""
    low, high = shape.doc_tokens
    lengths = [round(low + (high - low) * (j + 0.5) / shape.docs) for j in range(shape.docs)]
    rng.shuffle(lengths)
    return lengths


def _query(rng: random.Random, vocab: list[str], index: int, shape: Shape) -> dict:
    subject = _name(rng, vocab)
    relation = rng.choice(vocab)
    answer = _name(rng, vocab)
    wrong = _name(rng, vocab)
    while wrong == answer:
        wrong = _name(rng, vocab)
    fact = f"The {relation} of {subject} is {answer}."
    gold_doc = rng.randrange(shape.docs)
    docs = []
    for j, length in enumerate(_doc_lengths(rng, shape)):
        title = f"Entry {index:04d}-{j + 1:02d} {_name(rng, vocab)}"
        n = length - 4
        body = _sentence_text(rng, vocab, n)
        if j == gold_doc:
            body = f"{body} {fact}"
        docs.append(f"{title}\n{body}")
    return {
        "id": f"q{index:04d}",
        "question": f"What is the {relation} of {subject}?",
        "docs": docs,
        "golden_answers": [answer],
        "_subject": subject,
        "_relation": relation,
        "_wrong": wrong,
    }


def _format_block(name: str, body: str, close: str | None = None) -> str:
    return f"<format: {name}>\n{body}\n</format: {close or name}>"


def _think(rng: random.Random, vocab: list[str], tag: str) -> str:
    return f"<think>\nStep {tag}: {_sentence_text(rng, vocab, rng.randint(12, 30))}\n</think>"


def _answer(text: str) -> str:
    return f"<answer> {text} </answer>"


def _response(
    kind: str, q: dict, rng: random.Random, vocab: list[str], tag: str, marker: str
) -> tuple[str, list[tuple[str, str]], str | None]:
    """(primary text, its well-formed format blocks, re-inference text or None)."""
    gold, wrong = q["golden_answers"][0], q["_wrong"]
    name = rng.choice(FORMAT_NAMES)
    facts = f"{q['_subject']} | {q['_relation']} | {gold}"
    filler = _sentence_text(rng, vocab, rng.randint(6, 18))
    think = _think(rng, vocab, tag)
    reinf_think = _think(rng, vocab, tag + "r")
    if kind == "no_format":
        return f"{think}\n{_answer(gold)}", [], None
    if kind == "no_answer":
        return f"{think}\n<think>\n{filler}", [], None
    if kind == "mismatched_close":
        block = _format_block("Table", f"{facts}\n{filler}", close="table")
        return f"{think}\n{block}\n{_answer(gold)}", [], None
    if kind == "leaky":
        body = f"{marker}{q['_subject']} | {q['_relation']} | unknown\n{filler}"
        direct, reinf = gold, wrong
    elif kind == "wrong_answer":
        body = f"{marker}{facts}\n{filler}"
        direct, reinf = wrong, gold
    elif kind == "copied_run":
        doc_words = rng.choice(q["docs"]).split()
        start = rng.randrange(len(doc_words) - COPY_RUN)
        body = f"{marker}{facts}\n{' '.join(doc_words[start : start + COPY_RUN])}"
        direct, reinf = gold, gold
    else:
        body = f"{marker}{facts}\n{filler}"
        direct, reinf = gold, gold
    text = f"{think}\n{_format_block(name, body)}\n{reinf_think}\n{_answer(direct)}"
    # the parser keeps a format body verbatim, newlines around it included
    return text, [(name, f"\n{body}\n")], f"{reinf_think}\n{_answer(reinf)}"


def _group_kinds(rng: random.Random, flat: bool) -> list[str]:
    """Every kind of the pool in turn from a random start, then shuffled, so
    the mix of kinds, and with it the work per group, hardly varies by seed."""
    pool = FLAT_KINDS if flat else tuple(KINDS)
    start = rng.randrange(len(pool))
    kinds = [pool[(start + i) % len(pool)] for i in range(K)]
    rng.shuffle(kinds)
    return kinds


def generate(out_dir: str | Path, seed: int, shape: Shape) -> Workload:
    """Write ``dataset.jsonl`` and ``fixtures/`` under ``out_dir``."""
    out_dir = Path(out_dir)
    fixtures = out_dir / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 4000)
    primary_rules: list[dict] = []
    reinf_rules: list[dict] = []
    expected: list[list[tuple[float, float]]] = []
    lines = []
    flat = set(rng.sample(range(shape.queries), round(FLAT_GROUP_SHARE * shape.queries)))
    for index in range(shape.queries):
        q = _query(rng, vocab, index, shape)
        prompt = build_main_prompt(q["question"], q["docs"])
        kinds = _group_kinds(rng, index in flat)
        fallback = set(rng.sample(range(K), FALLBACK_PER_QUERY))
        fallback_kind = kinds[min(fallback)]
        fb_marker = f"[ref {q['id']} fb] "
        fb_text, _, fb_reinf = _response(
            fallback_kind, q, rng, vocab, f"{q['id']}-fb", fb_marker
        )
        primary_rules.append({"contains": f"Doc 1: {q['docs'][0].splitlines()[0]}\n", "response": fb_text})
        if fb_reinf is not None:
            reinf_rules.append({"contains": fb_marker, "response": fb_reinf})
        row = []
        for s in range(K):
            kind = fallback_kind if s in fallback else kinds[s]
            row.append(KINDS[kind])
            if s in fallback:
                continue
            seed_s = derive_seed(q["id"], s, BASE_SEED)
            text, formats, reinf = _response(kind, q, rng, vocab, f"{q['id']}-{s}", "")
            (fixtures / f"{prompt_digest(prompt, seed_s)}.txt").write_text(text, "utf-8")
            if reinf is not None:
                reinf_prompt = build_reinference_prompt(q["question"], formats)
                (fixtures / f"{prompt_digest(reinf_prompt, seed_s)}.txt").write_text(reinf, "utf-8")
        expected.append(row)
        record = {key: value for key, value in q.items() if not key.startswith("_")}
        lines.append(json.dumps(record, ensure_ascii=False))
    (fixtures / "rules.json").write_text(
        json.dumps(primary_rules + reinf_rules, ensure_ascii=False, indent=1), "utf-8"
    )
    dataset = out_dir / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n", "utf-8")
    return Workload(dataset, fixtures, expected)
