"""Serving workloads against a ``repro-uhd serve`` daemon subprocess.

``serve_trickle``: open-loop Poisson arrivals of single-image requests on
one pipelined binary connection, default lane (max_batch 64, 2 ms
window).  Each latency is timed from the request's *scheduled* send time,
so a stall also charges the requests queued behind it.

``serve_mixed``: lanes ``interactive:16:1:4`` and ``bulk:64:50``.  Bulk
keeps 4 pipelined 64-image requests of dense random pixels outstanding
on a binary connection (closed loop, saturates the worker); interactive
sends single images over one keep-alive HTTP connection (closed loop,
short think time).
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from common import BENCH_DIR, now_ns, sleep_until

TRICKLE_RATE = 200.0  #: requests per second, open loop
BULK_ROWS = 64
BULK_OUTSTANDING = 4
THINK_S = 0.002  #: interactive think time between requests
WARMUP_S = 1.0
MIXED_LANES = ("interactive:16:1:4", "bulk:64:50")


class LaneCounts:
    """Client-side outcome counts for one lane (reconciled with /stats)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.ok_rows = 0
        self.failed = 0  #: error replies, refused and wrong-label requests
        self.expired = 0
        self.wrong = 0


def _die_with_parent() -> None:
    """In the child: get SIGTERM (a drain) if the benchmark process dies."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class Daemon:
    """One ``repro-uhd serve --serve-forever`` process on ephemeral ports."""

    def __init__(self, model: Path, lanes=(), trace_dir=None, log=None):
        self.model = model
        self.lanes = tuple(lanes)
        self.trace_dir = trace_dir
        self.log = log
        self.proc = None
        self.http = self.binary = None
        self.counts: dict[str, LaneCounts] = {}

    def lane(self, name: str) -> LaneCounts:
        return self.counts.setdefault(name, LaneCounts())

    def start(self, probe_image, probe_label, timeout_s: float = 120.0) -> float:
        """Launch; returns seconds from launch to the first correct reply."""
        cmd = [sys.executable, str(BENCH_DIR / "daemon.py")]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", str(self.trace_dir)]
        cmd += [
            "--", "serve", "--model", str(self.model),
            "--workers", "1", "--start-method", "fork",
            "--http-port", "0", "--binary-port", "0", "--serve-forever",
        ]
        for spec in self.lanes:
            cmd += ["--lane", spec]
        t0 = now_ns()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True,
            preexec_fn=_die_with_parent,
        )
        deadline = time.monotonic() + timeout_s
        while self.http is None or self.binary is None:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon exited before listening")
            match = re.search(r"(http|binary): listening on \w+://([\d.]+):(\d+)", line)
            if match:
                address = (match.group(2), int(match.group(3)))
                setattr(self, match.group(1), address)
        from repro.serve import BinaryClient

        with BinaryClient(*self.binary) as client:
            labels = client.predict(probe_image[None, :])
        self.lane(self.default_lane).attempted += 1
        if labels.tolist() != [int(probe_label)]:
            self.stop()
            raise RuntimeError(f"first reply {labels} != expected {probe_label}")
        self.lane(self.default_lane).ok_rows += 1
        return (now_ns() - t0) / 1e9

    @property
    def default_lane(self) -> str:
        return self.lanes[0].split(":")[0] if self.lanes else "default"

    def get(self, path: str) -> bytes:
        url = f"http://{self.http[0]}:{self.http[1]}{path}"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read()

    def stats(self) -> dict:
        return json.loads(self.get("/stats"))

    def stop(self) -> None:
        """SIGTERM (drain), then wait for the daemon and its workers."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None


# ---------------------------------------------------------------- trickle


def trickle_schedule(seed: int, seconds: float, pool_size: int):
    """Poisson arrival offsets (ns) over warm-up + ``seconds``, and which
    pool image each arrival sends — the benchmark's own RNG."""
    rng = np.random.default_rng([seed, 0x7121C])
    total = WARMUP_S + seconds
    gaps = rng.exponential(1.0 / TRICKLE_RATE, size=int(TRICKLE_RATE * total * 1.5) + 64)
    times = np.cumsum(gaps)
    offsets = (times[times < total] * 1e9).astype(np.int64)
    return offsets, rng.integers(0, pool_size, len(offsets))


def trickle(daemon: Daemon, pool, expected, seed: int, seconds: float) -> dict:
    """Open-loop Poisson single-image requests on one binary connection."""
    from repro.serve import BinaryClient, DeadlineExpiredError

    offsets, order = trickle_schedule(seed, seconds, len(pool))
    n = len(offsets)
    counts = daemon.lane(daemon.default_lane)
    sent_at = np.zeros(n, dtype=np.int64)
    done_at = np.zeros(n, dtype=np.int64)
    ok = np.zeros(n, dtype=bool)
    client = BinaryClient(*daemon.binary)
    first_id = None
    t0 = now_ns() + 20_000_000
    due = t0 + offsets

    def receive():
        for _ in range(n):
            try:
                rid, labels = client.recv()
            except (ValueError, RuntimeError) as exc:  # error reply frames
                rid, labels = getattr(exc, "request_id", None), None
                counts.expired += isinstance(exc, DeadlineExpiredError)
            except OSError:  # connection lost: the rest stay unanswered
                return
            if rid is None:
                continue
            k = rid - first_id
            done_at[k] = now_ns()
            ok[k] = labels is not None and labels.tolist() == [int(expected[order[k]])]

    receiver = threading.Thread(target=receive)
    for k in range(n):
        sleep_until(int(due[k]))
        sent_at[k] = now_ns()
        rid = client.send(pool[order[k]][None, :])
        if first_id is None:
            first_id = rid
            receiver.start()
    receiver.join(timeout=60)
    client.close()
    receiver.join(timeout=10)

    answered = done_at > 0
    counts.attempted += n
    counts.ok_rows += int(ok.sum())
    counts.wrong += int((answered & ~ok).sum())
    counts.failed += int((~ok).sum())
    window = offsets >= WARMUP_S * 1e9
    lat_ms = ((done_at - due)[window & ok] / 1e6).tolist()
    return {
        "attempted": int(window.sum()),
        "failed": int((window & ~ok).sum()),
        "wrong": int((window & answered & ~ok).sum()),
        "latency_ms": lat_ms,
        "late_ms": ((sent_at - due)[window] / 1e6).tolist(),
        "images_per_s": int((window & ok).sum()) / seconds,
        "window_ns": (int(t0 + WARMUP_S * 1e9), int(t0 + (WARMUP_S + seconds) * 1e9)),
    }


# ---------------------------------------------------------------- mixed


def mixed(daemon: Daemon, pool, expected, bulk_pool, bulk_expected,
          seed: int, seconds: float) -> dict:
    """Closed-loop binary bulk + closed-loop HTTP interactive, one daemon."""
    from repro.serve import BinaryClient, DeadlineExpiredError

    t_start = now_ns()
    w0 = t_start + int(WARMUP_S * 1e9)
    w1 = w0 + int(seconds * 1e9)
    bulk_counts = daemon.lane("bulk")
    inter_counts = daemon.lane("interactive")
    bulk = {"rows": 0, "attempted": 0, "failed": 0, "wrong": 0}
    inter = {"rtt": [], "attempted": 0, "failed": 0, "wrong": 0}
    rng_bulk = np.random.default_rng([seed, 0xB01C])
    rng_inter = np.random.default_rng([seed, 0x1A7E])

    def bulk_loop():
        client = BinaryClient(*daemon.binary)
        pending: dict[int, tuple[int, int]] = {}

        def send():
            b = int(rng_bulk.integers(0, len(bulk_pool)))
            pending[client.send(bulk_pool[b], lane="bulk")] = (b, now_ns())
            bulk_counts.attempted += 1

        try:
            for _ in range(BULK_OUTSTANDING):
                send()
            while pending:
                try:
                    rid, labels = client.recv()
                except (ValueError, RuntimeError) as exc:
                    rid, labels = exc.request_id, None
                    bulk_counts.expired += isinstance(exc, DeadlineExpiredError)
                except OSError:  # connection lost: what is pending failed
                    bulk_counts.failed += len(pending)
                    bulk["failed"] += len(pending)
                    bulk["attempted"] += len(pending)
                    return
                t = now_ns()
                b, sent = pending.pop(rid)
                good = labels is not None and np.array_equal(labels, bulk_expected[b])
                if good:
                    bulk_counts.ok_rows += len(labels)
                else:
                    bulk_counts.failed += 1
                    bulk_counts.wrong += labels is not None
                if w0 <= sent and t < w1:
                    bulk["attempted"] += 1
                    if good:
                        bulk["rows"] += len(labels)
                    else:
                        bulk["failed"] += 1
                        bulk["wrong"] += labels is not None
                if t < w1:
                    send()
        finally:
            client.close()

    def interactive_loop():
        conn = http.client.HTTPConnection(*daemon.http, timeout=30)
        headers = {
            "Content-Type": "application/octet-stream",
            "Accept": "application/octet-stream",
            "X-UHD-Rows": "1",
        }
        try:
            while now_ns() < w1:
                i = int(rng_inter.integers(0, len(pool)))
                t0 = now_ns()
                inter_counts.attempted += 1
                try:
                    conn.request("POST", "/predict?lane=interactive",
                                 body=pool[i].tobytes(), headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                    good = response.status == 200 and (
                        np.frombuffer(body, dtype="<i8").tolist() == [int(expected[i])]
                    )
                    answered = response.status == 200
                except (OSError, http.client.HTTPException):
                    conn.close()
                    good = answered = False
                t1 = now_ns()
                if good:
                    inter_counts.ok_rows += 1
                else:
                    inter_counts.failed += 1
                    inter_counts.wrong += answered
                if t0 >= w0:
                    inter["attempted"] += 1
                    if good:
                        inter["rtt"].append((t0, t1))
                    else:
                        inter["failed"] += 1
                        inter["wrong"] += answered
                time.sleep(THINK_S)
        finally:
            conn.close()

    threads = [threading.Thread(target=bulk_loop),
               threading.Thread(target=interactive_loop)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "attempted": bulk["attempted"] + inter["attempted"],
        "failed": bulk["failed"] + inter["failed"],
        "wrong": bulk["wrong"] + inter["wrong"],
        "images_per_s": bulk["rows"] / seconds,
        "latency_ms": [(t1 - t0) / 1e6 for t0, t1 in inter["rtt"]],
        "rtt_ns": inter["rtt"],
        "window_ns": (w0, w1),
    }


# ---------------------------------------------------------------- counters


_SAMPLE = re.compile(r'^(\w+)\{([^}]*)\}\s+(\S+)$')


def lane_metrics(text: str) -> dict[tuple[str, str], float]:
    """``{(family, lane): value}`` for the per-lane series of /metrics."""
    out = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(2)))
        if "lane" in labels and "le" not in labels:
            out[(match.group(1), labels["lane"])] = float(match.group(3))
    return out


def reconcile(daemon: Daemon) -> tuple[int, list[str]]:
    """Client counts vs /stats vs /metrics, per lane; returns mismatches."""
    stats = daemon.stats()
    metrics = lane_metrics(daemon.get("/metrics").decode())
    problems = []

    def check(what, a, b):
        if a != b:
            problems.append(f"{what}: {a} != {b}")

    for lane in stats["lanes"]:
        name = lane["name"]
        client = daemon.lane(name)
        check(f"{name} submitted (stats vs client attempted)",
              lane["submitted"], client.attempted)
        check(f"{name} served_rows (stats vs client ok rows)",
              lane["served_rows"], client.ok_rows)
        check(f"{name} expired (stats vs client)", lane["expired"], client.expired)
        check(f"{name} served_rows (metrics vs stats)",
              metrics.get(("uhd_lane_served_rows_total", name)), lane["served_rows"])
        check(f"{name} expired (metrics vs stats)",
              metrics.get(("uhd_lane_expired_total", name)), lane["expired"])
    return len(problems), problems
