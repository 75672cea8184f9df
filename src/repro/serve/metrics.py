"""Prometheus text exposition for the serving stack (stdlib-only).

:func:`render_metrics` turns a live :class:`~repro.serve.router.Router`
into the Prometheus text format 0.0.4 the ``GET /metrics`` endpoint
serves — ``# HELP`` / ``# TYPE`` headers, counters/gauges, and one
classic histogram per lane whose ``_bucket{le=...}`` lines are the
*cumulative* view of the fixed log-spaced buckets in
:mod:`repro.serve.histogram`.  Everything is derived from the same
deployment snapshots ``/stats`` serves, so the two endpoints can never
disagree.

:func:`parse_exposition` is the matching strict parser.  It exists so
tests and CI can validate conformance without a Prometheus binary:
it checks HELP/TYPE placement, label syntax, histogram completeness
(``+Inf`` bucket present, buckets cumulative and monotone,
``_count`` == the ``+Inf`` bucket) and rejects duplicate samples.

Metric names
------------
Per-deployment families carry a ``model`` label (per-lane ones also
``lane``); transport and cache families are router- and process-wide:

====================================  =======  =====================================
``uhd_requests_total``                counter  ``submit()`` calls accepted
``uhd_images_total``                  counter  images across those requests
``uhd_batches_total``                 counter  dispatched batches / executed chunks
``uhd_expired_total``                 counter  request parts failed on a deadline
``uhd_restarts_total``                counter  worker respawns (crash recovery)
``uhd_workers``                       gauge    worker processes (0 = in-process)
``uhd_mean_batch_size``               gauge    coalescing health (images/batch)
``uhd_lane_queue_depth``              gauge    items queued, per ``{lane}``
``uhd_lane_queued_rows``              gauge    rows across those items, per ``{lane}``
``uhd_lane_served_total``             counter  items served, per ``{lane}``
``uhd_lane_served_rows_total``        counter  rows served, per ``{lane}``
``uhd_lane_expired_total``            counter  items expired, per ``{lane}``
``uhd_lane_latency_seconds``          histogram  scheduling latency, per ``{lane}``
``uhd_transport_connections``         gauge    open connections, per ``{transport}``
``uhd_transport_connections_total``   counter  connections accepted, per ``{transport}``
``uhd_transport_frames_total``        counter  frames/requests, per ``{transport,direction}``
``uhd_transport_bytes_total``         counter  payload bytes, per ``{transport,direction}``
``uhd_transport_malformed_frames_total``  counter  unparseable frames, per ``{transport}``
``uhd_cache_encoders``                gauge    encoder-cache entries (process-wide)
``uhd_cache_table_bytes``             gauge    gather-table bytes cached
``uhd_cache_publications``            gauge    live table files (spawn/forkserver)
====================================  =======  =====================================

Lane latency histograms are **merged across live replicas and retired
generations**, so quantiles survive hot reloads.  The fleet gauges are
``uhd_deployment_generation{model}``, ``uhd_deployment_target_replicas
{model}``, ``uhd_deployment_ready_replicas{model}`` and
``uhd_deployment_retired_replicas_total{model}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from .histogram import BUCKET_BOUNDS_S, HistogramSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router
    from .scheduler import LaneStats

__all__ = ["render_metrics", "parse_exposition"]

_PREFIX = "uhd"

#: HELP text per family (also the single source the renderer emits from;
#: the parser only checks placement, not wording)
_HELP = {
    "uhd_requests_total": "Prediction requests accepted by submit().",
    "uhd_images_total": "Images across all accepted requests.",
    "uhd_batches_total": "Batches dispatched to workers (or executed in-process).",
    "uhd_expired_total": "Request parts failed on an expired deadline.",
    "uhd_restarts_total": "Worker processes respawned after a crash.",
    "uhd_workers": "Worker processes serving (0 means in-process mode).",
    "uhd_mean_batch_size": "Mean images per dispatched batch (coalescing health).",
    "uhd_lane_queue_depth": "Items currently queued in the lane.",
    "uhd_lane_queued_rows": "Rows across the items currently queued in the lane.",
    "uhd_lane_served_total": "Items the lane has handed out in batches.",
    "uhd_lane_served_rows_total": "Rows the lane has handed out in batches.",
    "uhd_lane_expired_total": "Items failed on deadline while queued in the lane.",
    "uhd_lane_latency_seconds": (
        "Scheduling latency of served items (expired items are excluded)."
    ),
    "uhd_cache_encoders": "Warm encoders in the process-wide cache.",
    "uhd_cache_table_bytes": "Gather-table bytes held by cached encoders.",
    "uhd_cache_publications": "Live gather-table files (spawn/forkserver workers attach).",
    "uhd_transport_connections": (
        "Client connections currently open, per transport kind."
    ),
    "uhd_transport_connections_total": (
        "Client connections accepted since start, per transport kind."
    ),
    "uhd_transport_frames_total": (
        "Frames (binary) or requests (http) moved, per transport and "
        "direction (in/out)."
    ),
    "uhd_transport_bytes_total": (
        "Payload bytes moved, per transport and direction (in/out)."
    ),
    "uhd_transport_malformed_frames_total": (
        "Frames/requests rejected as unparseable, per transport kind."
    ),
    "uhd_deployment_generation": "Current model generation (bumped by hot reload).",
    "uhd_deployment_target_replicas": "Replica count the deployment converges to.",
    "uhd_deployment_ready_replicas": "Replicas currently in the ready state.",
    "uhd_deployment_retired_replicas_total": (
        "Replicas retired across all past generations."
    ),
}

_TYPE = {
    name: (
        "histogram"
        if name.endswith("_seconds")
        else "counter" if name.endswith("_total") else "gauge"
    )
    for name in _HELP
}


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


class _Exposition:
    """Accumulates samples per family, renders HELP/TYPE-grouped text."""

    def __init__(self) -> None:
        self._samples: dict[str, list[tuple[str, dict[str, str], float]]] = {}

    def add(self, family: str, labels: dict[str, str], value: float) -> None:
        if family not in _HELP:
            raise KeyError(f"unregistered metric family {family!r}")
        self._samples.setdefault(family, []).append((family, labels, value))

    def add_histogram(
        self, family: str, labels: dict[str, str], snap: HistogramSnapshot
    ) -> None:
        """Classic Prometheus histogram: cumulative buckets + sum + count."""
        if family not in _HELP:
            raise KeyError(f"unregistered metric family {family!r}")
        rows = self._samples.setdefault(family, [])
        cumulative = 0
        for bound, count in zip(BUCKET_BOUNDS_S, snap.counts):
            cumulative += count
            rows.append(
                (
                    family + "_bucket",
                    {**labels, "le": _fmt_value(bound)},
                    float(cumulative),
                )
            )
        rows.append(
            (family + "_bucket", {**labels, "le": "+Inf"}, float(snap.count))
        )
        rows.append((family + "_sum", dict(labels), snap.sum_s))
        rows.append((family + "_count", dict(labels), float(snap.count)))

    def render(self) -> str:
        lines: list[str] = []
        for family, rows in self._samples.items():
            lines.append(f"# HELP {family} {_HELP[family]}")
            lines.append(f"# TYPE {family} {_TYPE[family]}")
            for name, labels, value in rows:
                lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(value)}")
        return "\n".join(lines) + "\n"


def _lane_rows(
    exp: _Exposition, lanes: Iterable[LaneStats], labels: dict[str, str]
) -> None:
    """Per-lane gauges/counters/histogram."""
    for lane in lanes:
        lane_labels = {**labels, "lane": lane.name}
        exp.add("uhd_lane_queue_depth", lane_labels, lane.depth)
        exp.add("uhd_lane_queued_rows", lane_labels, lane.queued_rows)
        exp.add("uhd_lane_served_total", lane_labels, lane.served)
        exp.add("uhd_lane_served_rows_total", lane_labels, lane.served_rows)
        exp.add("uhd_lane_expired_total", lane_labels, lane.expired)
        exp.add_histogram("uhd_lane_latency_seconds", lane_labels, lane.latency)


def _transport_rows(exp: _Exposition, snapshots: Iterable[Any]) -> None:
    """Per-transport wire counters; one label set per transport kind."""
    for snap in snapshots:
        labels = {"transport": snap.name}
        exp.add("uhd_transport_connections", labels, snap.connections_open)
        exp.add(
            "uhd_transport_connections_total", labels, snap.connections_total
        )
        exp.add(
            "uhd_transport_frames_total",
            {**labels, "direction": "in"},
            snap.frames_in,
        )
        exp.add(
            "uhd_transport_frames_total",
            {**labels, "direction": "out"},
            snap.frames_out,
        )
        exp.add(
            "uhd_transport_bytes_total",
            {**labels, "direction": "in"},
            snap.bytes_in,
        )
        exp.add(
            "uhd_transport_bytes_total",
            {**labels, "direction": "out"},
            snap.bytes_out,
        )
        exp.add(
            "uhd_transport_malformed_frames_total", labels, snap.malformed
        )


def _cache_rows(exp: _Exposition, cache: Any) -> None:
    exp.add("uhd_cache_encoders", {}, cache.entries)
    exp.add("uhd_cache_table_bytes", {}, cache.table_bytes)
    exp.add("uhd_cache_publications", {}, len(cache.published))


def render_metrics(router: "Router") -> str:
    """Prometheus text exposition (0.0.4) for a router.

    One ``model``-labelled row set per deployment, from the same merged
    snapshot its ``/stats`` document serializes.  Always ends in a
    newline; serve with ``Content-Type: text/plain; version=0.0.4``.
    """
    exp = _Exposition()
    for model_id, deployment in router.deployments.items():
        labels = {"model": model_id}
        stats, fleet = deployment.snapshot()
        exp.add("uhd_requests_total", labels, stats.requests)
        exp.add("uhd_images_total", labels, stats.images)
        exp.add("uhd_batches_total", labels, stats.batches)
        exp.add("uhd_expired_total", labels, stats.expired)
        exp.add("uhd_restarts_total", labels, stats.restarts)
        exp.add("uhd_workers", labels, stats.workers)
        exp.add("uhd_mean_batch_size", labels, stats.mean_batch_size)
        exp.add("uhd_deployment_generation", labels, fleet["generation"])
        exp.add(
            "uhd_deployment_target_replicas", labels, fleet["target_replicas"]
        )
        exp.add("uhd_deployment_ready_replicas", labels, fleet["ready_replicas"])
        exp.add(
            "uhd_deployment_retired_replicas_total",
            labels,
            fleet["retired_replicas"],
        )
        _lane_rows(exp, stats.lanes, labels)
    # transports front the router as a whole, not any one deployment
    _transport_rows(exp, router.transport_stats())
    # the encoder cache is process-wide, not per-deployment
    from .cache import encoder_cache

    _cache_rows(exp, encoder_cache().stats())
    return exp.render()


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
