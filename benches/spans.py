"""In-memory span recording by wrapping the program's public functions.

A span is (name, start, end, parent, query id). Wrappers are installed on the
module attribute where the caller looks the function up, for example
``structrl.rollout.validate`` rather than ``structrl.trajectory.validate``,
and removed afterwards, so an untraced run executes the program unchanged.
A target that no longer exists is recorded as missing instead of failing.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    qid: str | None
    thread: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.calls: list[tuple[str, bool, float]] = []  # backend (key, ok, ms)
        self.groups: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopt: int | None = None
        self._patched: list[tuple[object, str, object]] = []
        self._seen_failed: set[str] = set()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, qid: str | None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopt
        if qid is None and parent is not None:
            qid = self.spans[parent].qid
        with self._lock:
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, parent, qid, threading.get_ident())
            )
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        target: str,
        name: str,
        qid: Callable | None = None,
        on_result: Callable | None = None,
        adopt: bool = False,
    ) -> None:
        """Replace ``module.attr`` (given as "module:attr") with a spanning wrapper."""
        module_name, attr = target.split(":")
        try:
            owner = importlib.import_module(module_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        tracer = self

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer._open(name, qid(*args, **kwargs) if qid else None)
                if adopt:
                    tracer._adopt = index
                try:
                    yield from original(*args, **kwargs)
                finally:
                    if adopt:
                        tracer._adopt = None
                    tracer._close(index)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer._open(name, qid(*args, **kwargs) if qid else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if on_result is not None:
                    on_result(result)
                return result

        self._patched.append((owner, leaf, original))
        setattr(owner, leaf, wrapper)

    def restore(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    # -- backend calls -----------------------------------------------------

    def wrap_backend(self, backend) -> None:
        """Time each ``backend.generate`` call; count errors and retries."""
        from structrl.backends import prompt_digest

        original = getattr(backend, "generate", None)
        if original is None:
            self.missing.append("backend.generate")
            return
        tracer = self

        def generate(prompt, sampling):
            key = prompt_digest(prompt, sampling.seed)
            if key in tracer._seen_failed:
                tracer.count("retries")
            index = tracer._open("backends.call", None)
            ok = False
            try:
                result = original(prompt, sampling)
                ok = True
                return result
            finally:
                tracer._close(index)
                span = tracer.spans[index]
                with tracer._lock:
                    tracer.calls.append((key, ok, (span.end - span.start) * 1000.0))
                    if not ok:
                        tracer._seen_failed.add(key)

        backend.generate = generate

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "qid": s.qid, "thread": s.thread}
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for index, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out
