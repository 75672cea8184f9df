"""Prometheus text exposition for the serving stack (stdlib-only).

:func:`render_metrics` turns a live :class:`~repro.serve.router.Router`
into the Prometheus text format 0.0.4 the ``GET /metrics`` endpoint
serves: ``# HELP`` / ``# TYPE`` headers, counters/gauges, and one
classic histogram per lane whose ``_bucket{le=...}`` lines are the
*cumulative* view of the fixed log-spaced buckets in
:mod:`repro.serve.histogram`.  Every sample is read from the ``/stats``
documents (:meth:`~repro.serve.router.Router.stats`), so the two
endpoints can never disagree.

:func:`parse_exposition` is the matching strict parser.  It exists so
tests and CI can validate conformance without a Prometheus binary:
it checks HELP/TYPE placement, label syntax, histogram completeness
(``+Inf`` bucket present, buckets cumulative and monotone,
``_count`` == the ``+Inf`` bucket) and rejects duplicate samples.

Metric names
------------
Every family is one row of :data:`DEPLOYMENT_ROWS`, :data:`LANE_ROWS`,
:data:`WIRE_ROWS` or :data:`CACHE_ROWS`: its name, the ``/stats``
field it reads, its HELP text and any extra labels.  A family's TYPE
follows from its name: ``_seconds`` is a histogram, ``_total`` a
counter, anything else a gauge.  Deployment families carry a ``model``
label (lane ones also ``lane``); wire families carry ``transport`` and
are router-wide, cache families are process-wide.

Once nothing is queued or in flight, every lane holds
``submitted == served + expired + failed``.  A deployment is one
server for its whole life (a hot reload swaps its model in place), so
counters and lane latency histograms run on across reloads.
``uhd_deployment_generation{model}`` counts reloads.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .histogram import BUCKET_BOUNDS_S

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router

__all__ = ["render_metrics", "parse_exposition"]


class MetricRow(NamedTuple):
    """One sample per table entry: ``family`` reads ``source[field]``."""

    family: str
    field: str
    help: str
    labels: dict[str, str] = {}


#: per deployment, from its ``/stats`` document
DEPLOYMENT_ROWS = (
    MetricRow("uhd_requests_total", "requests",
              "Prediction requests accepted by submit()."),
    MetricRow("uhd_images_total", "images",
              "Images across all accepted requests."),
    MetricRow("uhd_batches_total", "batches",
              "Batches the scheduler dispatched (to an executor, or failed "
              "at close)."),
    MetricRow("uhd_expired_total", "expired",
              "Request parts failed on an expired deadline."),
    MetricRow("uhd_failed_total", "failed",
              "Request parts whose batch failed (predict raised or server "
              "closed)."),
    MetricRow("uhd_workers", "workers",
              "Executor threads serving (0 means submitting threads drain)."),
    MetricRow("uhd_mean_batch_size", "mean_batch_size",
              "Mean images per dispatched batch (coalescing health)."),
    MetricRow("uhd_deployment_generation", "generation",
              "Current model generation (bumped by hot reload)."),
)

#: per lane, from each entry of a document's ``lanes``
LANE_ROWS = (
    MetricRow("uhd_lane_queue_depth", "depth",
              "Items currently queued in the lane."),
    MetricRow("uhd_lane_queued_rows", "queued_rows",
              "Rows across the items currently queued in the lane."),
    MetricRow("uhd_lane_submitted_total", "submitted",
              "Items accepted into the lane."),
    MetricRow("uhd_lane_served_total", "served", "Items of the lane answered."),
    MetricRow("uhd_lane_served_rows_total", "served_rows",
              "Rows of the lane answered."),
    MetricRow("uhd_lane_expired_total", "expired",
              "Items failed on deadline while queued in the lane."),
    MetricRow("uhd_lane_failed_total", "failed",
              "Items of the lane whose batch failed."),
    MetricRow("uhd_lane_latency_seconds", "latency",
              "Scheduling latency of taken items (expired items are "
              "excluded)."),
)

_FRAMES_HELP = (
    "Frames (binary) or requests (http) moved, per transport and "
    "direction (in/out)."
)
_BYTES_HELP = "Payload bytes moved, per transport and direction (in/out)."

#: per transport kind, from each entry of a document's ``transports``
WIRE_ROWS = (
    MetricRow("uhd_transport_connections", "connections_open",
              "Client connections currently open, per transport kind."),
    MetricRow("uhd_transport_connections_total", "connections_total",
              "Client connections accepted since start, per transport kind."),
    MetricRow("uhd_transport_frames_total", "frames_in", _FRAMES_HELP,
              {"direction": "in"}),
    MetricRow("uhd_transport_frames_total", "frames_out", _FRAMES_HELP,
              {"direction": "out"}),
    MetricRow("uhd_transport_bytes_total", "bytes_in", _BYTES_HELP,
              {"direction": "in"}),
    MetricRow("uhd_transport_bytes_total", "bytes_out", _BYTES_HELP,
              {"direction": "out"}),
    MetricRow("uhd_transport_malformed_frames_total", "malformed",
              "Frames/requests rejected as unparseable, per transport kind."),
)

#: process-wide, from a document's ``cache``
CACHE_ROWS = (
    MetricRow("uhd_cache_encoders", "entries",
              "Warm encoders in the process-wide cache."),
    MetricRow("uhd_cache_table_bytes", "table_bytes",
              "Gather-table bytes held by cached encoders."),
)


def _metric_type(family: str) -> str:
    if family.endswith("_seconds"):
        return "histogram"
    return "counter" if family.endswith("_total") else "gauge"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _histogram_lines(family: str, labels: dict[str, str], latency: dict):
    """Classic Prometheus histogram of a ``/stats`` latency section."""
    cumulative = 0
    for bound, count in zip(BUCKET_BOUNDS_S, latency["counts"]):
        cumulative += count
        le = {**labels, "le": _fmt_value(bound)}
        yield f"{family}_bucket{_fmt_labels(le)} {cumulative}"
    le = {**labels, "le": "+Inf"}
    yield f"{family}_bucket{_fmt_labels(le)} {latency['count']}"
    sum_s = _fmt_value(latency["sum_ms"] / 1e3)
    yield f"{family}_sum{_fmt_labels(labels)} {sum_s}"
    yield f"{family}_count{_fmt_labels(labels)} {latency['count']}"


def render_metrics(router: "Router") -> str:
    """Prometheus text exposition (0.0.4) for a router.

    Walks the row tables over each deployment's ``/stats`` document;
    families keep their first-seen order and group their samples.
    Always ends in a newline; serve with ``Content-Type: text/plain;
    version=0.0.4``.
    """
    families: dict[str, list[str]] = {}

    def emit(rows: tuple[MetricRow, ...], source: dict, labels: dict) -> None:
        for row in rows:
            kind = _metric_type(row.family)
            lines = families.setdefault(row.family, [
                f"# HELP {row.family} {row.help}",
                f"# TYPE {row.family} {kind}",
            ])
            sample_labels = {**labels, **row.labels}
            if kind == "histogram":
                lines.extend(
                    _histogram_lines(row.family, sample_labels, source[row.field])
                )
            else:
                lines.append(
                    f"{row.family}{_fmt_labels(sample_labels)} "
                    f"{_fmt_value(source[row.field])}"
                )

    for model_id in router.deployments:
        document = router.stats(model_id)
        labels = {"model": model_id}
        emit(DEPLOYMENT_ROWS, document, labels)
        for lane in document["lanes"]:
            emit(LANE_ROWS, lane, {**labels, "lane": lane["name"]})
    # wires front the router as a whole and the encoder cache is
    # process-wide: every document carries the same sections
    for wire in document["transports"]:
        emit(WIRE_ROWS, wire, {"transport": wire["name"]})
    emit(CACHE_ROWS, document["cache"], {})
    return "\n".join(chain.from_iterable(families.values())) + "\n"


# --------------------------------------------------------------- parser


def _parse_sample_line(line: str) -> tuple[str, dict[str, str], float]:
    """One sample line -> (name, labels, value); strict, raises ValueError."""
    rest = line
    if "{" in rest:
        name, rest = rest.split("{", 1)
        if "}" not in rest:
            raise ValueError(f"unterminated label set: {line!r}")
        label_blob, rest = rest.rsplit("}", 1)
        labels = _parse_labels(label_blob, line)
    else:
        parts = rest.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"sample line needs a value: {line!r}")
        name, rest = parts[0], " " + parts[1]
        labels = {}
    if not _is_metric_name(name):
        raise ValueError(f"invalid metric name {name!r} in line {line!r}")
    value_text = rest.strip()
    if not value_text:
        raise ValueError(f"sample line needs a value: {line!r}")
    value_token = value_text.split()[0]  # ignore an optional timestamp
    try:
        value = float(value_token)
    except ValueError:
        raise ValueError(
            f"invalid sample value {value_token!r} in line {line!r}"
        ) from None
    return name, labels, value


def _is_metric_name(name: str) -> bool:
    if not name:
        return False
    if not (name[0].isalpha() or name[0] in "_:"):
        return False
    return all(ch.isalnum() or ch in "_:" for ch in name)


def _parse_labels(blob: str, line: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(blob):
        if blob[i] == ",":
            i += 1
            continue
        eq = blob.find("=", i)
        if eq < 0:
            raise ValueError(f"malformed labels in line {line!r}")
        key = blob[i:eq].strip()
        if not _is_metric_name(key):
            raise ValueError(f"invalid label name {key!r} in line {line!r}")
        if eq + 1 >= len(blob) or blob[eq + 1] != '"':
            raise ValueError(f"unquoted label value in line {line!r}")
        # scan the quoted value honouring backslash escapes
        j = eq + 2
        chars: list[str] = []
        while j < len(blob):
            ch = blob[j]
            if ch == "\\":
                if j + 1 >= len(blob):
                    raise ValueError(f"dangling escape in line {line!r}")
                nxt = blob[j + 1]
                chars.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
                j += 2
                continue
            if ch == '"':
                break
            chars.append(ch)
            j += 1
        else:
            raise ValueError(f"unterminated label value in line {line!r}")
        if key in labels:
            raise ValueError(f"duplicate label {key!r} in line {line!r}")
        labels[key] = "".join(chars)
        i = j + 1
    return labels


def _base_family(name: str, types: dict[str, str]) -> str:
    """Map a sample name to its family (histogram suffixes fold back)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return name


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse (and validate) Prometheus text format 0.0.4.

    Returns ``{family: {"help": str|None, "type": str, "samples":
    [(name, labels, value), ...]}}``.  Raises :class:`ValueError` on any
    conformance violation: samples before their TYPE line, malformed
    labels, duplicate series, non-cumulative histogram buckets, a
    histogram missing its ``+Inf`` bucket or whose ``_count`` disagrees
    with it.  Strict on purpose — this is the CI gate for ``/metrics``.
    """
    families: dict[str, dict] = {}
    types: dict[str, str] = {}
    seen_series: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
    for raw_line in text.split("\n"):
        line = raw_line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP ") :].split(None, 1)
            if not parts or not _is_metric_name(parts[0]):
                raise ValueError(f"malformed HELP line: {line!r}")
            family = parts[0]
            entry = families.setdefault(
                family, {"help": None, "type": "untyped", "samples": []}
            )
            if entry["samples"]:
                raise ValueError(f"HELP after samples for {family!r}")
            entry["help"] = parts[1] if len(parts) > 1 else ""
        elif line.startswith("# TYPE "):
            parts = line[len("# TYPE ") :].split()
            if len(parts) != 2 or not _is_metric_name(parts[0]):
                raise ValueError(f"malformed TYPE line: {line!r}")
            family, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"unknown metric type {kind!r}: {line!r}")
            entry = families.setdefault(
                family, {"help": None, "type": "untyped", "samples": []}
            )
            if entry["samples"]:
                raise ValueError(f"TYPE after samples for {family!r}")
            entry["type"] = kind
            types[family] = kind
        elif line.startswith("#"):
            continue  # plain comment
        else:
            name, labels, value = _parse_sample_line(line)
            family = _base_family(name, types)
            if family not in families:
                raise ValueError(
                    f"sample {name!r} appears before its # TYPE line"
                )
            series = (name, tuple(sorted(labels.items())))
            if series in seen_series:
                raise ValueError(f"duplicate series {name}{labels}")
            seen_series.add(series)
            families[family]["samples"].append((name, labels, value))
    for family, entry in families.items():
        if entry["type"] == "histogram":
            _validate_histogram(family, entry["samples"])
    return families


def _validate_histogram(
    family: str, samples: list[tuple[str, dict[str, str], float]]
) -> None:
    """Cumulative-bucket and completeness invariants per label set."""
    by_series: dict[tuple, dict] = {}
    for name, labels, value in samples:
        key = tuple(
            sorted((k, v) for k, v in labels.items() if k != "le")
        )
        entry = by_series.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if name == family + "_bucket":
            if "le" not in labels:
                raise ValueError(f"{family} bucket without le label: {labels}")
            entry["buckets"].append((labels["le"], value))
        elif name == family + "_sum":
            entry["sum"] = value
        elif name == family + "_count":
            entry["count"] = value
        else:
            raise ValueError(f"unexpected histogram sample {name!r}")
    for key, entry in by_series.items():
        buckets = entry["buckets"]
        if not buckets:
            raise ValueError(f"{family}{dict(key)} has no buckets")
        if buckets[-1][0] != "+Inf":
            raise ValueError(f"{family}{dict(key)} missing +Inf bucket")
        bounds = [float("inf") if le == "+Inf" else float(le) for le, _ in buckets]
        if bounds != sorted(bounds):
            raise ValueError(f"{family}{dict(key)} buckets out of order")
        counts = [count for _, count in buckets]
        if any(b > a for b, a in zip(counts, counts[1:])):
            raise ValueError(f"{family}{dict(key)} buckets are not cumulative")
        if entry["count"] is None or entry["sum"] is None:
            raise ValueError(f"{family}{dict(key)} missing _sum/_count")
        if entry["count"] != counts[-1]:
            raise ValueError(
                f"{family}{dict(key)} _count={entry['count']} disagrees with "
                f"+Inf bucket {counts[-1]}"
            )
