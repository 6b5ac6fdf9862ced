"""Benchmark QA ingestion, deterministic sampling, and JSONL persistence.

The on-disk record is one JSON object per line with fields `id`, `question`,
`docs` (array of text), and `golden_answers` (array of text). Converters map
the common multi-hop distribution shape (`_id`, `answer`, `context` as
[title, sentences] pairs) onto it.

numpy is imported by ``sample``, on its first call, and not by this module:
loading, converting and writing datasets never load it. Likewise ``gzip`` is
imported by the first ``.gz`` file opened.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import ParseError, check_least

REQUIRED_FIELDS = ("id", "question", "docs", "golden_answers")


def check(ok: bool, message: str, path: object, line: int | None) -> None:
    """The one check of a record read from disk: unless ``ok``, fail with
    ``message``, naming the file and, when known, the record's line."""
    if not ok:
        raise ParseError(message, line, path)


def field(record: object, name: str, path: object, line: int | None) -> object:
    """``record[name]``; a record without it fails with ``missing field 'NAME'``."""
    check(isinstance(record, dict) and name in record, f"missing field {name!r}", path, line)
    return record[name]


def is_string_list(value: object) -> bool:
    """Whether a decoded JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def is_finite_number(value: object) -> bool:
    """Whether a decoded JSON value is a finite number; a JSON true is not one."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class QueryInstance:
    id: str
    question: str
    docs: tuple[str, ...]
    golds: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "question": self.question,
            "docs": list(self.docs),
            "golden_answers": list(self.golds),
        }

    @classmethod
    def from_dict(cls, d: object, line: int | None = None, path: object = None) -> "QueryInstance":
        check(isinstance(d, dict), "record is not a JSON object", path, line)
        for name in REQUIRED_FIELDS:
            field(d, name, path, line)
        check(isinstance(d["question"], str), "field 'question' must be a string", path, line)
        for name in ("docs", "golden_answers"):
            value = d[name]
            check(is_string_list(value), f"field {name!r} must be a list of strings", path, line)
            # a query without documents or gold answers cannot be rolled out or scored
            check(bool(value), f"field {name!r} is empty", path, line)
        return cls(
            id=str(d["id"]),
            question=d["question"],
            docs=tuple(d["docs"]),
            golds=tuple(d["golden_answers"]),
        )


def _open_text(path: Path, mode: str = "rt", errors: str = "strict") -> IO[str]:
    if path.suffix == ".gz":
        import gzip

        return gzip.open(path, mode, encoding="utf-8", errors=errors)
    return open(path, mode, encoding="utf-8", errors=errors)


def _not_utf8(path: str | Path) -> ParseError:
    """The error for a text file that holds a byte that is not UTF-8, naming
    the first line that holds one, as text mode splits the lines."""
    with _open_text(Path(path), errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return ParseError("not UTF-8 text", lineno, path)
    return ParseError("not UTF-8 text", None, path)


def _parse_json(text: str, path: object, line: int | None = None) -> object:
    """Decode JSON text read from ``path``; invalid JSON fails naming the file
    and ``line``, or the line of the error within ``text`` when not given."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line or exc.lineno, path) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line, path) from None


def read_json(path: str | Path) -> object:
    """A whole JSON file, decoded; invalid JSON or a byte that is not UTF-8
    fails naming the file and the line."""
    try:
        with _open_text(Path(path)) as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return _parse_json(text, path)


def read_records(path: str | Path) -> Iterator[tuple[int, object]]:
    """Each non-blank line of a JSONL file, parsed, with its 1-based number.

    Every JSONL input of the package is read here, so a line that is not JSON,
    or not UTF-8, fails with its file and line number.
    """
    with _open_text(Path(path)) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, _parse_json(line, path, lineno)
        except UnicodeDecodeError:
            # text mode decodes ahead of the line it returns
            raise _not_utf8(path) from None


def _instances(numbered: Iterable, path: object, make: Callable) -> list[QueryInstance]:
    """Each record made an instance by ``make(record, line, path)``, in order;
    an id seen before fails naming its line."""
    instances: list[QueryInstance] = []
    seen: set[str] = set()
    for line, record in numbered:
        inst = make(record, line, path)
        check(inst.id not in seen, f"duplicate id {inst.id!r}", path, line)
        seen.add(inst.id)
        instances.append(inst)
    return instances


def load_jsonl(path: str | Path) -> list[QueryInstance]:
    """Instances in file order; blank lines skipped; ids must be unique."""
    return _instances(read_records(path), path, QueryInstance.from_dict)


def write_jsonl(path: str | Path, instances: Iterable[QueryInstance]) -> None:
    path = Path(path)
    with _open_text(path, "wt") as fh:
        for inst in instances:
            fh.write(json.dumps(inst.to_dict(), ensure_ascii=False) + "\n")


def sample(instances: list[QueryInstance], n: int, seed: int) -> list[QueryInstance]:
    """Uniform sample without replacement, stable across runs and platforms.

    Pinned algorithm: Fisher-Yates over a copy, driven by numpy's PCG64
    stream seeded with `seed`, swapping index i (descending from len-1) with
    j = integers(0, i+1); the first n entries of the shuffle are the sample.
    """
    check_least("n", n, 0)
    if n > len(instances):
        raise ValueError(f"asked for {n} of {len(instances)} instances")
    import numpy as np  # on the first draw only; see the module docstring

    arr = list(instances)
    rng = np.random.default_rng(seed)
    for i in range(len(arr) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:n]


def convert_record(
    record: object, line: int | None = None, path: object = None
) -> QueryInstance:
    """Map one raw multi-hop QA record onto the package schema.

    Accepts records already in the package schema unchanged. Raw records use
    `_id`, `answer` (single text), and `context` as [title, [sentence, ...]]
    pairs; each pair becomes one doc: the title, a newline, and the sentences
    concatenated. Both shapes are checked by `QueryInstance.from_dict`.
    Errors name `path` and `line` when given.
    """
    # anything but an object goes on to from_dict, which fails it
    if isinstance(record, dict) and not all(name in record for name in REQUIRED_FIELDS):
        for name in ("_id", "question", "answer", "context"):
            field(record, name, path, line)
        context = record["context"]
        check(isinstance(context, list) and all(_is_context_pair(c) for c in context),
              "field 'context' must be a list of [title, [sentence, ...]] pairs", path, line)
        record = {
            "id": record["_id"],
            "question": record["question"],
            "docs": [f"{title}\n{''.join(sentences)}" for title, sentences in context],
            "golden_answers": [record["answer"]],
        }
    return QueryInstance.from_dict(record, line, path)


def _is_context_pair(pair: object) -> bool:
    """Whether ``pair`` is [title, [sentence, ...]] with text throughout."""
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and isinstance(pair[0], str)
        and is_string_list(pair[1])
    )


def convert_file(src: str | Path, dst: str | Path) -> int:
    """Convert a raw JSON array or JSONL file; returns the instance count.

    Errors in a JSONL source name the file and line; in a JSON array, the
    file, and for invalid JSON or a byte that is not UTF-8 also the line.
    """
    src = Path(src)
    # a first byte that is not UTF-8 is not "[": read_records then names its line
    with _open_text(src, errors="surrogateescape") as fh:
        is_array = fh.read(1) == "["
    records = [(None, record) for record in read_json(src)] if is_array else read_records(src)
    instances = _instances(records, src, convert_record)
    write_jsonl(dst, instances)
    return len(instances)
