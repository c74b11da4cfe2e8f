"""OpenMetrics text exposition and its round-trip parser.

The live service endpoint (``GET /metrics`` on ``rit serve``) renders the
telemetry plane with :func:`format_openmetrics`; ``rit top`` and the
``make metrics-smoke`` gate read it back with :func:`parse_openmetrics`.
Keeping both directions in one module means the exposition can never
drift away from what the tooling accepts — the smoke gate literally
round-trips the live endpoint's bytes.

Exposition rules (the OpenMetrics subset we emit):

* every family gets ``# HELP`` / ``# TYPE`` lines, and a ``# UNIT`` line
  when the unit is part of the name;
* family names are ``rit_``-prefixed, non-alphanumerics collapsed to
  ``_``, and unit-suffixed (``_seconds`` / ``_bytes``) from the catalog —
  never hand-written at a call site;
* ``counter`` samples carry the mandatory ``_total`` suffix;
* ``histogram`` families expose cumulative ``_bucket{le="..."}`` samples
  over the registry's fixed boundaries plus ``_count`` / ``_sum``;
* the exposition ends with ``# EOF``.

The parser is strict: missing ``# EOF``, unordered ``le`` boundaries,
non-cumulative bucket counts, samples without a preceding ``# TYPE``, or
a ``_count`` disagreeing with the ``+Inf`` bucket all raise
:class:`ValueError` — the endpoint must serve text this parser accepts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.catalog import COUNTER_CATALOG
from repro.obs.metrics import Histogram, describe_metric

__all__ = [
    "CONTENT_TYPE",
    "MetricFamily",
    "Sample",
    "format_openmetrics",
    "metric_family_name",
    "parse_openmetrics",
]

#: The content type served by ``GET /metrics``.
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_UNIT_SUFFIXES = ("seconds", "bytes")


def metric_family_name(name: str, unit: str, *, prefix: str = "rit_") -> str:
    """Canonical family name: prefixed, cleaned, unit-suffixed.

    ``sentinel/flagged_users`` becomes ``rit_sentinel_flagged_users``.  A
    ``seconds``/``bytes`` suffix is appended exactly when the cleaned name
    does not already end with it, so catalog names that bake the unit in
    (``ingest_admit_seconds``) are not doubled.
    """
    cleaned = "".join(c if c.isalnum() else "_" for c in name)
    family = f"{prefix}{cleaned}"
    if unit in _UNIT_SUFFIXES and not family.endswith(f"_{unit}"):
        family = f"{family}_{unit}"
    return family


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        raise ValueError("metric values cannot be booleans")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _le_label(boundary: float) -> str:
    """The ``le`` label of a bucket boundary (stable round-trip text)."""
    return repr(float(boundary))


def format_openmetrics(
    *,
    counters: Optional[Mapping[str, Mapping[str, Any]]] = None,
    histograms: Optional[Mapping[str, Histogram]] = None,
    gauges: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> str:
    """Render a metrics export as OpenMetrics text (ending in ``# EOF``).

    ``counters`` takes the :meth:`repro.obs.tracer.Tracer.snapshot` shape
    (``name -> {value, unit}``), with HELP text sourced from the counter
    catalog; ``histograms`` maps metric names to
    :class:`repro.obs.metrics.Histogram`; ``gauges`` maps metric names to
    ``{value, unit}`` with HELP from the metric catalog.
    """
    lines: List[str] = []

    for name, entry in (counters or {}).items():
        family = metric_family_name(name, "count")
        lines.append(f"# HELP {family} {COUNTER_CATALOG.get(name, name)}")
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family}_total {_format_value(entry['value'])}")

    for name, hist in (histograms or {}).items():
        family = metric_family_name(name, hist.unit)
        spec = describe_metric(name)
        help_text = spec.description if spec is not None else name
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} histogram")
        if hist.unit in _UNIT_SUFFIXES:
            lines.append(f"# UNIT {family} {hist.unit}")
        cumulative = 0
        for boundary, bucket_count in zip(hist.boundaries, hist.counts):
            cumulative += bucket_count
            lines.append(
                f'{family}_bucket{{le="{_le_label(boundary)}"}} {cumulative}'
            )
        cumulative += hist.counts[-1]
        lines.append(f'{family}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{family}_count {hist.count}")
        lines.append(f"{family}_sum {_format_value(hist.total)}")

    for name, entry in (gauges or {}).items():
        unit = str(entry["unit"])
        family = metric_family_name(name, unit)
        spec = describe_metric(name)
        help_text = spec.description if spec is not None else name
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} gauge")
        if unit in _UNIT_SUFFIXES:
            lines.append(f"# UNIT {family} {unit}")
        lines.append(f"{family} {_format_value(entry['value'])}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Parsing
# ---------------------------------------------------------------------- #


@dataclass
class Sample:
    """One exposition sample: full sample name, labels, numeric value."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass
class MetricFamily:
    """One parsed family: metadata plus its samples in exposition order."""

    name: str
    type: str = "untyped"
    unit: Optional[str] = None
    help: Optional[str] = None
    samples: List[Sample] = field(default_factory=list)


_META_RE = re.compile(r"^# (HELP|TYPE|UNIT) (\S+) ?(.*)$")
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: Legal sample-name suffixes per family type.
_TYPE_SUFFIXES: Dict[str, Tuple[str, ...]] = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum", "_created"),
    "untyped": ("",),
}


def _family_of(sample_name: str, families: Mapping[str, MetricFamily]) -> Optional[str]:
    """Longest declared family the sample name belongs to, if any."""
    best: Optional[str] = None
    for family_name, family in families.items():
        for suffix in _TYPE_SUFFIXES[family.type]:
            if sample_name == family_name + suffix:
                if best is None or len(family_name) > len(best):
                    best = family_name
    return best


def parse_openmetrics(text: str) -> Dict[str, MetricFamily]:
    """Parse (and validate) an OpenMetrics exposition.

    Returns ``{family_name: MetricFamily}``.  Raises :class:`ValueError`
    on any structural problem — this is the acceptance check the
    ``/metrics`` endpoint is gated on.
    """
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: Dict[str, MetricFamily] = {}
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            raise ValueError(f"line {lineno}: blank lines are not allowed")
        if line.startswith("#"):
            match = _META_RE.match(line)
            if match is None:
                raise ValueError(f"line {lineno}: malformed metadata {line!r}")
            keyword, family_name, rest = match.groups()
            family = families.setdefault(family_name, MetricFamily(family_name))
            if family.samples:
                raise ValueError(
                    f"line {lineno}: metadata for {family_name!r} after its "
                    "samples"
                )
            if keyword == "HELP":
                family.help = rest
            elif keyword == "UNIT":
                family.unit = rest
            else:
                if rest not in ("counter", "gauge", "histogram", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown metric type {rest!r}"
                    )
                family.type = rest
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name, label_text, value_text = match.groups()
        family_name = _family_of(sample_name, families)
        if family_name is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} has no preceding "
                "# TYPE declaration"
            )
        labels = (
            dict(_LABEL_RE.findall(label_text[1:-1])) if label_text else {}
        )
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {lineno}: sample value {value_text!r} is not a number"
            ) from None
        families[family_name].samples.append(Sample(sample_name, labels, value))
    for family in families.values():
        if family.type == "histogram":
            _check_histogram_family(family)
    return families


def _check_histogram_family(family: MetricFamily) -> None:
    """Bucket ordering / cumulativity / count agreement for one family."""
    buckets = [s for s in family.samples if s.name == f"{family.name}_bucket"]
    if not buckets:
        raise ValueError(f"histogram {family.name!r} has no _bucket samples")
    previous_le = -math.inf
    previous_count = 0.0
    saw_inf = False
    for sample in buckets:
        le_text = sample.labels.get("le")
        if le_text is None:
            raise ValueError(
                f"histogram {family.name!r}: bucket without an 'le' label"
            )
        le = math.inf if le_text == "+Inf" else float(le_text)
        if le <= previous_le:
            raise ValueError(
                f"histogram {family.name!r}: 'le' boundaries not strictly "
                f"increasing at {le_text!r}"
            )
        if sample.value < previous_count:
            raise ValueError(
                f"histogram {family.name!r}: bucket counts not cumulative "
                f"at le={le_text!r}"
            )
        previous_le, previous_count = le, sample.value
        saw_inf = saw_inf or le == math.inf
    if not saw_inf:
        raise ValueError(f"histogram {family.name!r} is missing the +Inf bucket")
    counts = [s for s in family.samples if s.name == f"{family.name}_count"]
    if len(counts) != 1 or counts[0].value != previous_count:
        raise ValueError(
            f"histogram {family.name!r}: _count must exist once and equal "
            "the +Inf bucket"
        )
    if sum(1 for s in family.samples if s.name == f"{family.name}_sum") != 1:
        raise ValueError(f"histogram {family.name!r}: _sum must exist exactly once")
