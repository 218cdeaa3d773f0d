"""Metric exposition: Prometheus text format and JSON.

Two renderings of one :class:`~repro.observability.metrics.
MetricsRegistry` (``repro metrics`` prints either):

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series with cumulative ``le`` labels), suitable for any
  Prometheus-compatible scraper.
* :func:`render_json` — the registry snapshot as one JSON document,
  including the quantile estimates (which the text format leaves to
  the scraper).

:func:`parse_prometheus` is the matching minimal parser — used by the
test suite and the CI smoke step to validate that what we emit parses
back — not a general-purpose client.
"""

from __future__ import annotations

import json

from repro.observability.metrics import MetricsRegistry

__all__ = ["render_prometheus", "render_json", "parse_prometheus"]


def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(names: tuple[str, ...], values: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [f'{n}="{_escape_label(v)}"'
             for n, v in zip(names, values)] + [
        f'{n}="{_escape_label(v)}"' for n, v in extra]
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    lines: list[str] = []
    for family in registry.collect():
        if not len(family):
            continue
        help_text = family.help.replace("\\", r"\\").replace("\n", r"\n")
        lines.append(f"# HELP {family.name} {help_text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for values, child in family.series():
            labels = _format_labels(family.label_names, values)
            if family.kind == "histogram":
                cumulative = child.cumulative()
                for bound, count in zip(family.buckets, cumulative):
                    bucket_labels = _format_labels(
                        family.label_names, values,
                        extra=(("le", _format_value(bound)),))
                    lines.append(
                        f"{family.name}_bucket{bucket_labels} {count}")
                inf_labels = _format_labels(family.label_names, values,
                                            extra=(("le", "+Inf"),))
                lines.append(
                    f"{family.name}_bucket{inf_labels} {child.count}")
                lines.append(f"{family.name}_sum{labels} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                lines.append(f"{family.name}{labels} "
                             f"{_format_value(child.current())}")
    return "\n".join(lines) + "\n" if lines else ""


def render_json(registry: MetricsRegistry, *, indent: int = 2) -> str:
    """The registry snapshot (with quantile estimates) as JSON."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=False)


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse text exposition back into ``{name: [(labels, value)]}``.

    A strict-enough validator for round-trip tests and the CI smoke
    check: raises :class:`ValueError` on malformed sample lines,
    unparsable values, or a sample appearing before its ``# TYPE``.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    typed: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                if parts[1] == "TYPE":
                    typed.add(parts[2])
                continue
            raise ValueError(f"line {lineno}: malformed comment {raw!r}")
        name, labels, value = _parse_sample(raw, lineno)
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                base = name[:-len(suffix)]
        if base not in typed:
            raise ValueError(
                f"line {lineno}: sample {name!r} before its # TYPE")
        samples.setdefault(name, []).append((labels, value))
    return samples


def _parse_sample(line: str, lineno: int) -> tuple[str, dict, float]:
    label_start = line.find("{")
    labels: dict[str, str] = {}
    if label_start != -1:
        label_end = line.rfind("}")
        if label_end < label_start:
            raise ValueError(f"line {lineno}: unbalanced braces")
        name = line[:label_start]
        body = line[label_start + 1:label_end]
        rest = line[label_end + 1:].strip()
        for pair in _split_label_pairs(body, lineno):
            key, _, value = pair.partition("=")
            if not (value.startswith('"') and value.endswith('"')):
                raise ValueError(
                    f"line {lineno}: unquoted label value in {pair!r}")
            labels[key.strip()] = _unescape_label(value[1:-1])
    else:
        name, _, rest = line.partition(" ")
    parts = rest.split()
    if not parts:
        raise ValueError(f"line {lineno}: sample without a value")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise ValueError(
            f"line {lineno}: bad sample value {parts[0]!r}") from exc
    if not name.replace("_", "").replace(":", "").isalnum():
        raise ValueError(f"line {lineno}: bad metric name {name!r}")
    return name, labels, value


def _unescape_label(value: str) -> str:
    """Invert :func:`_escape_label` with one left-to-right scan.

    Sequential ``str.replace`` passes are NOT a correct inverse: in
    ``\\\\n`` (an escaped backslash followed by a literal ``n``) an
    early ``\\n``-pass would consume the second backslash and the
    ``n`` as a newline escape.
    """
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    end = len(value)
    while i < end:
        char = value[i]
        if char == "\\" and i + 1 < end:
            nxt = value[i + 1]
            out.append("\n" if nxt == "n"
                       else nxt if nxt in ('"', "\\")
                       else char + nxt)
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def _split_label_pairs(body: str, lineno: int) -> list[str]:
    """Split ``k="v",k2="v2"`` respecting escaped quotes."""
    pairs: list[str] = []
    current: list[str] = []
    in_quotes = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            pairs.append("".join(current).strip())
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    if current:
        pairs.append("".join(current).strip())
    return [p for p in pairs if p]
