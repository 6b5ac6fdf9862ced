"""Aggregate EM/F1 over prediction sets and render report tables.

Percentages render with banker's rounding to two decimals so reports are
deterministic down to the tie-breaking rule. ``decimal`` is imported by the
first percentage rendered, not by this module.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass

from .grpo import mean
from .reward import exact_match, f1


@dataclass(frozen=True)
class MetricsSummary:
    n: int
    em: float
    f1: float
    error: float


def evaluate(pairs: list[tuple[str, list[str]]]) -> MetricsSummary:
    """Mean per-instance EM and max-F1; error is 1 - EM exactly."""
    if not pairs:
        raise ValueError("evaluation needs at least one (prediction, golds) pair")
    em = mean([exact_match(pred, golds) for pred, golds in pairs])
    f1_mean = mean([f1(pred, golds) for pred, golds in pairs])
    return MetricsSummary(n=len(pairs), em=em, f1=f1_mean, error=1.0 - em)


def format_percent(value: float) -> str:
    """Two-decimal percentage with round-half-even, e.g. 0.7424 -> '74.24'."""
    from decimal import ROUND_HALF_EVEN, Decimal

    return str(
        (Decimal(value) * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN)
    )


def report(summaries: dict[str, MetricsSummary], format: str = "text") -> str:
    """Render summaries keyed by dataset name; columns are EM then F1."""
    if format == "json":
        payload = {
            name: {
                "n": s.n,
                "em": format_percent(s.em),
                "f1": format_percent(s.f1),
                "error": format_percent(s.error),
            }
            for name, s in summaries.items()
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)
    if format == "csv":
        out = io.StringIO()
        out.write("dataset,n,em,f1,error\n")
        for name, s in summaries.items():
            out.write(
                f"{name},{s.n},{format_percent(s.em)},"
                f"{format_percent(s.f1)},{format_percent(s.error)}\n"
            )
        return out.getvalue()
    if format == "text":
        width = max([len("dataset")] + [len(name) for name in summaries])
        lines = [f"{'dataset'.ljust(width)}      n     EM     F1  error"]
        for name, s in summaries.items():
            lines.append(
                f"{name.ljust(width)}  {s.n:5d}  {format_percent(s.em):>5}"
                f"  {format_percent(s.f1):>5}  {format_percent(s.error):>5}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")
