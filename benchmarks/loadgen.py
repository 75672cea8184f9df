#!/usr/bin/env python
"""Open-loop load generator for a live uHD serving endpoint.

Closed-loop clients (send, wait, send again) measure a server at the
rate the *server* chooses — under saturation they self-throttle and the
latency numbers look flattering.  This harness is **open-loop**: every
request's send time is drawn from an arrival process *before the run
starts*, and sender threads fire at those times whether or not earlier
requests have completed.  Offered load is what you asked for; achieved
load and the latency distribution are what the server earned.

Arrival processes (``--process``):

* ``poisson`` — independent exponential gaps (the classic open-loop
  model of many uncoordinated clients).
* ``uniform`` — evenly spaced arrivals (a pessimal best case: zero
  burstiness).
* ``bursty`` — arrivals grouped into back-to-back bursts of
  ``--burst-size`` at burst epochs spaced to hold the target rate; the
  stress case for coalescing and lane weights.

``--ramp 5,20,80`` runs one stage per listed rate (each ``--duration``
seconds long) and emits per-stage rows — the quick way to find the knee
of the latency curve.  ``--lanes interactive:4,bulk:1`` mixes traffic
across named priority lanes with the given weights; each request's lane
is drawn deterministically from ``--seed``.

Results go to ``--csv`` as a **fixed-schema run table**: one row per
(stage x lane) plus a per-stage ``(all)`` row carrying the
whole-process numbers (CPU, RSS, joules/request).  Latency quantiles
come from the same fixed log-spaced buckets the server's own
``/metrics`` histograms use (:mod:`repro.serve.histogram`), so client-
and server-side p95s are directly comparable.  Energy per request is
the gate-level-simulated encode energy from :mod:`repro.eval.energy`
(``--dim``/``--pixels`` must match the served model; ``--no-energy``
blanks the column).  CPU/RSS are read from ``/proc/<pid>`` when
``--server-pid`` is given (Linux only).

``--transport http`` (default) speaks keep-alive ``http.client``;
``--transport binary`` drives the framed socket protocol through
:class:`repro.serve.BinaryClient` against a ``--binary-port`` endpoint
— same schedule, same outcome taxonomy, same CSV schema (the
``transport`` column tells the rows apart).  Beyond that client, the
harness is stdlib-only at runtime — the only other non-stdlib imports
are the repo's own histogram and energy modules.

Usage::

    PYTHONPATH=src python benchmarks/loadgen.py --url http://127.0.0.1:8080 \\
        --rps 50 --duration 10 --lanes interactive:4,bulk:1
    PYTHONPATH=src python benchmarks/loadgen.py --url ... --ramp 5,20,80
    PYTHONPATH=src python benchmarks/loadgen.py --url ... --smoke
    PYTHONPATH=src python benchmarks/loadgen.py --url uhd://127.0.0.1:9090 \\
        --transport binary --rps 200

``--smoke`` is the CI mode: a short fixed run that exits non-zero if
any request failed (expired deadlines are counted separately and are
not failures).
"""

from __future__ import annotations

import argparse
import csv
import http.client
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode, urlsplit

if __package__ in (None, ""):  # direct script run: make repro importable
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.exists() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.serve.histogram import HistogramSnapshot, LatencyHistogram

#: CSV schema, pinned — tests and CI assert these exact columns
CSV_COLUMNS = (
    "run",
    "process",
    "transport",
    "lane",
    "offered_rps",
    "achieved_rps",
    "duration_s",
    "requests",
    "ok",
    "failed",
    "expired",
    "failure_rate",
    "expiry_rate",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_ms",
    "cpu_pct",
    "rss_mb",
    "joules_per_request",
)

#: the label the run table uses for the whole-stage aggregate row
ALL_LANES = "(all)"
#: the label used when requests are sent without naming a lane
DEFAULT_LANE = "(default)"


# ------------------------------------------------------------ schedules


def build_schedule(
    process: str,
    rps: float,
    duration_s: float,
    lanes: list[tuple[str | None, int]],
    seed: int,
    burst_size: int = 8,
) -> list[tuple[float, str | None]]:
    """Precompute the full arrival schedule: ``[(t_offset_s, lane), ...]``.

    Deterministic in ``seed`` — two runs with the same arguments offer
    byte-identical load, which is what makes A/B comparisons honest.
    """
    if rps <= 0:
        raise ValueError(f"rps must be > 0, got {rps}")
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    rng = random.Random(seed)
    times: list[float] = []
    if process == "poisson":
        t = 0.0
        while True:
            t += rng.expovariate(rps)
            if t >= duration_s:
                break
            times.append(t)
    elif process == "uniform":
        gap = 1.0 / rps
        times = [i * gap for i in range(1, int(duration_s * rps) + 1)]
        times = [t for t in times if t < duration_s]
    elif process == "bursty":
        if burst_size < 1:
            raise ValueError(f"burst size must be >= 1, got {burst_size}")
        epoch_gap = burst_size / rps
        t = 0.0
        while t < duration_s:
            times.extend([t] * burst_size)
            t += epoch_gap
        times = [t for t in times if t < duration_s]
    else:
        raise ValueError(f"unknown arrival process {process!r}")
    names = [name for name, _ in lanes]
    weights = [weight for _, weight in lanes]
    assigned = rng.choices(names, weights=weights, k=len(times))
    return list(zip(times, assigned))


def parse_lanes(spec: str) -> list[tuple[str | None, int]]:
    """``"interactive:4,bulk:1"`` -> ``[("interactive", 4), ("bulk", 1)]``.

    An empty spec means a single unnamed lane (the server's default);
    a bare name gets weight 1.
    """
    if not spec.strip():
        return [(None, 1)]
    lanes: list[tuple[str | None, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, weight_text = part.rsplit(":", 1)
            try:
                weight = int(weight_text)
            except ValueError:
                raise ValueError(
                    f"lane weight must be an integer: {part!r}"
                ) from None
        else:
            name, weight = part, 1
        if weight < 1:
            raise ValueError(f"lane weight must be >= 1: {part!r}")
        lanes.append((name or None, weight))
    if not lanes:
        return [(None, 1)]
    return lanes


# ------------------------------------------------------------ resources


class ProcSampler:
    """CPU%% and RSS of a server process via ``/proc`` (Linux only).

    ``start()`` snapshots CPU time; ``finish()`` returns
    ``(cpu_pct, rss_mb)`` over the elapsed window, or ``(None, None)``
    when the pid is gone or the platform has no ``/proc``.
    """

    def __init__(self, pid: int | None) -> None:
        self.pid = pid
        self._t0: float | None = None
        self._cpu0: float | None = None

    def _cpu_seconds(self) -> float | None:
        if self.pid is None:
            return None
        try:
            with open(f"/proc/{self.pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            return None
        # utime + stime are fields 14/15 (1-based); after the comm split
        # the first remaining field is state (#3), so indices 11 and 12
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float | None:
        if self.pid is None:
            return None
        try:
            with open(f"/proc/{self.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            return None
        return None

    def start(self) -> None:
        self._t0 = time.monotonic()
        self._cpu0 = self._cpu_seconds()

    def finish(self) -> tuple[float | None, float | None]:
        rss = self.rss_mb()
        if self._t0 is None or self._cpu0 is None:
            return None, rss
        cpu1 = self._cpu_seconds()
        if cpu1 is None:
            return None, rss
        elapsed = time.monotonic() - self._t0
        if elapsed <= 0:
            return None, rss
        return 100.0 * (cpu1 - self._cpu0) / elapsed, rss


# ------------------------------------------------------------ the runner


@dataclass
class LaneTally:
    """Client-side per-lane outcome counters plus the latency recorder."""

    ok: int = 0
    failed: int = 0
    expired: int = 0
    hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def requests(self) -> int:
        return self.ok + self.failed + self.expired


class OpenLoopRunner:
    """Fires a precomputed schedule at a URL from a sender-thread pool.

    Open-loop: each sender claims the next arrival, sleeps until its
    scheduled time, and fires — it never waits for other requests.  If
    every sender is busy when an arrival comes due, the request goes out
    late (and ``achieved_rps`` < ``offered_rps`` records the shortfall)
    rather than being dropped: the offered schedule is the contract.
    """

    def __init__(
        self,
        url: str,
        schedule: list[tuple[float, str | None]],
        body: bytes,
        rows: int,
        concurrency: int,
        deadline_ms: float | None = None,
        timeout_s: float = 30.0,
        transport: str = "http",
    ) -> None:
        if transport not in ("http", "binary"):
            raise ValueError(f"unknown transport {transport!r}")
        split = urlsplit(url)
        allowed = ("http",) if transport == "http" else ("http", "uhd")
        if split.scheme not in allowed or not split.hostname:
            raise ValueError(
                f"need a {' or '.join(s + '://' for s in allowed)} URL, "
                f"got {url!r}"
            )
        self._transport = transport
        self._host = split.hostname
        self._port = split.port or 80
        self._path_prefix = split.path.rstrip("/")
        self._schedule = schedule
        self._body = body
        self._rows = rows
        self._images = None
        if transport == "binary":
            import numpy as np

            pixels = len(body) // rows if rows else 0
            self._images = np.frombuffer(body, dtype=np.uint8).reshape(
                rows, pixels
            )
        self._concurrency = max(1, min(concurrency, len(schedule) or 1))
        self._deadline_ms = deadline_ms
        self._timeout_s = timeout_s
        self._next = 0
        self._lock = threading.Lock()
        self.tallies: dict[str, LaneTally] = {}
        self.errors: list[str] = []  # first few failure reasons, for humans

    def _claim(self) -> tuple[float, str | None] | None:
        with self._lock:
            if self._next >= len(self._schedule):
                return None
            item = self._schedule[self._next]
            self._next += 1
            return item

    def _tally(self, lane: str | None) -> LaneTally:
        key = lane if lane is not None else DEFAULT_LANE
        with self._lock:
            tally = self.tallies.get(key)
            if tally is None:
                tally = self.tallies.setdefault(key, LaneTally())
            return tally

    def _predict_path(self, lane: str | None) -> str:
        params = {}
        if lane is not None:
            params["lane"] = lane
        if self._deadline_ms is not None:
            params["deadline_ms"] = f"{self._deadline_ms:g}"
        query = f"?{urlencode(params)}" if params else ""
        return f"{self._path_prefix}/predict{query}"

    def _send_one(self, conn: http.client.HTTPConnection, lane: str | None):
        """One request; returns (status_class, latency_s)."""
        headers = {
            "Content-Type": "application/octet-stream",
            "X-UHD-Rows": str(self._rows),
        }
        t0 = time.monotonic()
        conn.request("POST", self._predict_path(lane), self._body, headers)
        response = conn.getresponse()
        payload = response.read()  # always drain: keep-alive hygiene
        latency = time.monotonic() - t0
        if response.status == 200:
            return "ok", latency
        if response.status == 504:
            return "expired", latency
        with self._lock:
            if len(self.errors) < 5:
                self.errors.append(
                    f"HTTP {response.status}: {payload[:120]!r}"
                )
        return "failed", latency

    def _record(self, tally: LaneTally, outcome: str, latency: float) -> None:
        with self._lock:
            if outcome == "ok":
                tally.ok += 1
            elif outcome == "expired":
                tally.expired += 1
            else:
                tally.failed += 1
        if outcome == "ok":
            tally.hist.record(latency)
        elif outcome == "expired":
            tally.hist.exclude()

    def _note_error(self, text: str) -> None:
        with self._lock:
            if len(self.errors) < 5:
                self.errors.append(text)

    def _worker(self, start: float) -> None:
        if self._transport == "binary":
            self._worker_binary(start)
            return
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout_s
        )
        try:
            while True:
                claimed = self._claim()
                if claimed is None:
                    return
                offset, lane = claimed
                delay = (start + offset) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                tally = self._tally(lane)
                try:
                    outcome, latency = self._send_one(conn, lane)
                except OSError as exc:
                    self._note_error(f"connection error: {exc}")
                    outcome, latency = "failed", 0.0
                    conn.close()  # force a clean reconnect next request
                self._record(tally, outcome, latency)
        finally:
            conn.close()

    def _send_one_binary(self, client, lane: str | None):
        """One framed round trip; returns (outcome, latency_s)."""
        from repro.serve import DeadlineExpiredError, ServeError

        t0 = time.monotonic()
        try:
            client.predict(
                self._images, lane=lane, deadline_ms=self._deadline_ms
            )
        except DeadlineExpiredError:
            return "expired", time.monotonic() - t0
        except (ValueError, ServeError) as exc:
            self._note_error(f"binary error: {exc}")
            return "failed", time.monotonic() - t0
        return "ok", time.monotonic() - t0

    def _worker_binary(self, start: float) -> None:
        from repro.serve import BinaryClient

        client = None
        try:
            while True:
                claimed = self._claim()
                if claimed is None:
                    return
                offset, lane = claimed
                delay = (start + offset) - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                tally = self._tally(lane)
                try:
                    if client is None:
                        client = BinaryClient(
                            self._host, self._port, timeout_s=self._timeout_s
                        )
                    outcome, latency = self._send_one_binary(client, lane)
                except OSError as exc:
                    self._note_error(f"connection error: {exc}")
                    outcome, latency = "failed", 0.0
                    if client is not None:  # reconnect on the next request
                        client.close()
                        client = None
                self._record(tally, outcome, latency)
        finally:
            if client is not None:
                client.close()

    def run(self) -> float:
        """Fire the whole schedule; returns the actual wall duration."""
        start = time.monotonic()
        threads = [
            threading.Thread(
                target=self._worker, args=(start,), name=f"loadgen-{i}"
            )
            for i in range(self._concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.monotonic() - start


# ------------------------------------------------------------ run table


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def stage_rows(
    run_name: str,
    process: str,
    transport: str,
    offered_rps: float,
    planned_duration_s: float,
    actual_duration_s: float,
    tallies: dict[str, LaneTally],
    cpu_pct: float | None,
    rss_mb: float | None,
    joules_per_request: float | None,
) -> list[dict]:
    """The fixed-schema rows for one stage: per lane, then ``(all)``."""
    rows: list[dict] = []
    snapshots = {name: tally.hist.snapshot() for name, tally in tallies.items()}

    def make_row(lane: str, requests, ok, failed, expired, snap, whole_stage):
        achieved = ok / actual_duration_s if actual_duration_s > 0 else 0.0
        return {
            "run": run_name,
            "process": process,
            "transport": transport,
            "lane": lane,
            "offered_rps": offered_rps,
            "achieved_rps": achieved,
            "duration_s": actual_duration_s,
            "requests": requests,
            "ok": ok,
            "failed": failed,
            "expired": expired,
            "failure_rate": failed / requests if requests else 0.0,
            "expiry_rate": expired / requests if requests else 0.0,
            "p50_ms": snap.p50_ms,
            "p95_ms": snap.p95_ms,
            "p99_ms": snap.p99_ms,
            "mean_ms": snap.mean_ms,
            "cpu_pct": cpu_pct if whole_stage else None,
            "rss_mb": rss_mb if whole_stage else None,
            "joules_per_request": joules_per_request if whole_stage else None,
        }

    for lane in sorted(tallies):
        tally = tallies[lane]
        rows.append(
            make_row(
                lane,
                tally.requests,
                tally.ok,
                tally.failed,
                tally.expired,
                snapshots[lane],
                whole_stage=False,
            )
        )
    merged = HistogramSnapshot.merge(snapshots.values())
    rows.append(
        make_row(
            ALL_LANES,
            sum(t.requests for t in tallies.values()),
            sum(t.ok for t in tallies.values()),
            sum(t.failed for t in tallies.values()),
            sum(t.expired for t in tallies.values()),
            merged,
            whole_stage=True,
        )
    )
    return rows


def write_run_table(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[column]) for column in CSV_COLUMNS])


def render_rows(rows: list[dict]) -> str:
    lines = [
        f"{'run':<8} {'lane':<14} {'offered':>8} {'achieved':>9} "
        f"{'ok':>6} {'fail':>5} {'exp':>5} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row['run']:<8} {row['lane']:<14} {row['offered_rps']:>8.1f} "
            f"{row['achieved_rps']:>9.1f} {row['ok']:>6} {row['failed']:>5} "
            f"{row['expired']:>5} {row['p50_ms']:>8.2f} {row['p95_ms']:>8.2f} "
            f"{row['p99_ms']:>8.2f}"
        )
    return "\n".join(lines)


# ------------------------------------------------------------ entrypoint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--url", default="http://127.0.0.1:8080",
                        help="base URL of the running server; with "
                             "--transport binary, uhd://HOST:PORT (or "
                             "http://HOST:PORT) naming the --binary-port "
                             "endpoint")
    parser.add_argument("--transport", default="http",
                        choices=("http", "binary"),
                        help="wire protocol: keep-alive HTTP or the framed "
                             "binary fast lane (repro.serve.BinaryClient)")
    parser.add_argument("--rps", type=float, default=20.0,
                        help="offered request rate (per second)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds per stage")
    parser.add_argument("--ramp", default="",
                        help="comma-separated rps stages overriding --rps, "
                             "e.g. 5,20,80 (each --duration long)")
    parser.add_argument("--process", default="poisson",
                        choices=("poisson", "uniform", "bursty"),
                        help="arrival process")
    parser.add_argument("--burst-size", type=int, default=8,
                        help="arrivals per burst for --process bursty")
    parser.add_argument("--lanes", default="",
                        help="lane mix 'name:weight,...'; empty = server default")
    parser.add_argument("--rows", type=int, default=1,
                        help="images per request")
    parser.add_argument("--pixels", type=int, default=784,
                        help="pixels per image (must match the served model)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="attach this deadline to every request")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="sender threads (bounds in-flight requests)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request client timeout (seconds)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="arrival-schedule RNG seed")
    parser.add_argument("--dim", type=int, default=256,
                        help="served model's hypervector dim (for energy)")
    parser.add_argument("--no-energy", action="store_true",
                        help="leave the joules_per_request column blank")
    parser.add_argument("--server-pid", type=int, default=None,
                        help="server pid for /proc CPU + RSS sampling")
    parser.add_argument("--csv", default="loadgen_results.csv",
                        help="run-table output path")
    parser.add_argument("--smoke", action="store_true",
                        help="short fixed run; exit non-zero on any failure")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.ramp = ""
        args.rps = min(args.rps, 20.0)
        args.duration = min(args.duration, 2.0)
    stages = (
        [float(r) for r in args.ramp.split(",") if r.strip()]
        if args.ramp
        else [args.rps]
    )
    lanes = parse_lanes(args.lanes)
    body = random.Random(args.seed ^ 0xA5A5).randbytes(args.rows * args.pixels)
    joules = None
    if not args.no_energy:
        from repro.eval.energy import uhd_image_energy_fj

        joules = uhd_image_energy_fj(args.dim, args.pixels) * args.rows * 1e-15

    all_rows: list[dict] = []
    total_failed = 0
    for index, rps in enumerate(stages):
        schedule = build_schedule(
            args.process, rps, args.duration, lanes, args.seed + index,
            burst_size=args.burst_size,
        )
        runner = OpenLoopRunner(
            args.url, schedule, body, args.rows, args.concurrency,
            deadline_ms=args.deadline_ms, timeout_s=args.timeout,
            transport=args.transport,
        )
        sampler = ProcSampler(args.server_pid)
        sampler.start()
        actual = runner.run()
        cpu_pct, rss_mb = sampler.finish()
        rows = stage_rows(
            run_name=f"stage{index}",
            process=args.process,
            transport=args.transport,
            offered_rps=rps,
            planned_duration_s=args.duration,
            actual_duration_s=actual,
            tallies=runner.tallies,
            cpu_pct=cpu_pct,
            rss_mb=rss_mb,
            joules_per_request=joules,
        )
        all_rows.extend(rows)
        total_failed += sum(tally.failed for tally in runner.tallies.values())
        for error in runner.errors:
            print(f"  ! {error}", file=sys.stderr)

    write_run_table(args.csv, all_rows)
    print(render_rows(all_rows))
    print(f"run table -> {args.csv}")
    if args.smoke:
        total_ok = sum(
            row["ok"] for row in all_rows if row["lane"] == ALL_LANES
        )
        if total_failed or not total_ok:
            print(
                f"SMOKE FAILED: {total_failed} failed requests, "
                f"{total_ok} succeeded",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
