"""The open-loop load harness: schedules, run table, and a live smoke.

The schedule builder is the heart of open-loop honesty — it must be
deterministic in the seed (same arguments => byte-identical offered
load) and hold the requested rate for every arrival process.  The live
test drives a real server over HTTP exactly like CI's metrics-smoke
job does and asserts the fixed CSV schema with zero failed requests.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

import loadgen  # noqa: E402  (needs the path bootstrap above)

from repro.serve import (  # noqa: E402
    DeploymentSpec,
    HttpTransport,
    LaneConfig,
    Router,
    ServeConfig,
)


class TestSchedules:
    @pytest.mark.parametrize("process", ["poisson", "uniform", "bursty"])
    def test_deterministic_in_seed(self, process):
        lanes = [("interactive", 4), ("bulk", 1)]
        a = loadgen.build_schedule(process, 50.0, 2.0, lanes, seed=7)
        b = loadgen.build_schedule(process, 50.0, 2.0, lanes, seed=7)
        c = loadgen.build_schedule(process, 50.0, 2.0, lanes, seed=8)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("process", ["poisson", "uniform", "bursty"])
    def test_holds_the_requested_rate(self, process):
        rps, duration = 200.0, 5.0
        schedule = loadgen.build_schedule(
            process, rps, duration, [(None, 1)], seed=3
        )
        assert len(schedule) == pytest.approx(rps * duration, rel=0.15)
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert all(0 <= t < duration for t in times)

    def test_lane_mix_respects_weights(self):
        schedule = loadgen.build_schedule(
            "poisson", 500.0, 4.0, [("hot", 3), ("cold", 1)], seed=5
        )
        hot = sum(1 for _, lane in schedule if lane == "hot")
        assert hot / len(schedule) == pytest.approx(0.75, abs=0.08)

    def test_bursty_arrivals_actually_burst(self):
        schedule = loadgen.build_schedule(
            "bursty", 40.0, 2.0, [(None, 1)], seed=1, burst_size=8
        )
        times = [t for t, _ in schedule]
        # arrivals arrive in ties of burst_size at shared epochs
        assert times.count(times[0]) == 8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="rps"):
            loadgen.build_schedule("poisson", 0.0, 1.0, [(None, 1)], seed=0)
        with pytest.raises(ValueError, match="duration"):
            loadgen.build_schedule("poisson", 1.0, 0.0, [(None, 1)], seed=0)
        with pytest.raises(ValueError, match="process"):
            loadgen.build_schedule("exponential", 1.0, 1.0, [(None, 1)], seed=0)

    def test_ramp_stages_change_rate(self):
        low = loadgen.build_schedule("uniform", 10.0, 2.0, [(None, 1)], seed=0)
        high = loadgen.build_schedule("uniform", 80.0, 2.0, [(None, 1)], seed=0)
        assert len(high) > 4 * len(low)


class TestLaneSpecs:
    def test_empty_spec_is_the_default_lane(self):
        assert loadgen.parse_lanes("") == [(None, 1)]

    def test_named_weights(self):
        assert loadgen.parse_lanes("interactive:4,bulk:1") == [
            ("interactive", 4),
            ("bulk", 1),
        ]

    def test_bare_name_gets_weight_one(self):
        assert loadgen.parse_lanes("bulk") == [("bulk", 1)]

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            loadgen.parse_lanes("bulk:fast")
        with pytest.raises(ValueError, match="weight"):
            loadgen.parse_lanes("bulk:0")


class TestRunTable:
    def test_csv_schema_is_pinned(self):
        assert loadgen.CSV_COLUMNS == (
            "run", "process", "transport", "lane", "offered_rps",
            "achieved_rps", "duration_s", "requests", "ok", "failed",
            "expired", "failure_rate", "expiry_rate", "p50_ms", "p95_ms",
            "p99_ms", "mean_ms", "cpu_pct", "rss_mb", "joules_per_request",
        )

    def test_stage_rows_aggregate_lanes(self):
        tallies = {
            "interactive": loadgen.LaneTally(ok=3),
            "bulk": loadgen.LaneTally(ok=1, failed=1, expired=1),
        }
        tallies["interactive"].hist.record_many([0.001, 0.002, 0.003])
        tallies["bulk"].hist.record(0.05)
        tallies["bulk"].hist.exclude()
        rows = loadgen.stage_rows(
            "stage0", "poisson", "http", 10.0, 1.0, 1.0, tallies,
            cpu_pct=12.5, rss_mb=64.0, joules_per_request=1e-9,
        )
        assert all(row["transport"] == "http" for row in rows)
        assert [row["lane"] for row in rows] == [
            "bulk", "interactive", loadgen.ALL_LANES,
        ]
        total = rows[-1]
        assert total["requests"] == 6
        assert total["ok"] == 4
        assert total["failed"] == 1
        assert total["expired"] == 1
        assert total["failure_rate"] == pytest.approx(1 / 6)
        assert total["cpu_pct"] == 12.5
        assert rows[0]["cpu_pct"] is None  # whole-stage numbers only on (all)


class TestLiveSmoke:
    def test_smoke_run_against_a_real_server(
        self, model_path, serve_data, tmp_path
    ):
        """End-to-end: loadgen --smoke over HTTP, zero failures, CSV
        schema intact — the same invocation CI's metrics-smoke job runs."""
        config = ServeConfig(
            workers=0,
            lanes=(
                LaneConfig("interactive", max_wait_ms=1.0, weight=4.0),
                LaneConfig("bulk", max_wait_ms=10.0),
            ),
        )
        csv_path = tmp_path / "run_table.csv"
        with Router({"m": DeploymentSpec(model_path, serve=config)}) as router:
            with HttpTransport(router) as transport:
                rc = loadgen.main([
                    "--url", transport.address,
                    "--smoke",
                    "--rps", "25",
                    "--duration", "1.0",
                    "--lanes", "interactive:4,bulk:1",
                    "--pixels", str(serve_data.num_pixels),
                    "--dim", "256",
                    "--csv", str(csv_path),
                ])
                stats = router.stats()
        assert rc == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "run table is empty"
        assert tuple(rows[0].keys()) == loadgen.CSV_COLUMNS
        all_rows = [r for r in rows if r["lane"] == loadgen.ALL_LANES]
        assert len(all_rows) == 1
        total = all_rows[0]
        assert int(total["failed"]) == 0
        assert int(total["ok"]) >= 1
        assert float(total["p95_ms"]) > 0.0
        assert float(total["joules_per_request"]) > 0.0
        # client- and server-side accounting agree on request count
        assert int(total["ok"]) == stats["requests"]

    def test_smoke_run_over_the_binary_transport(
        self, model_path, serve_data, tmp_path
    ):
        """Same smoke over the framed socket wire — zero failures, same
        CSV schema, transport column says 'binary'."""
        from repro.serve import SocketTransport

        csv_path = tmp_path / "run_table.csv"
        spec = DeploymentSpec(model_path, serve=ServeConfig(workers=0))
        with Router({"m": spec}) as router:
            with SocketTransport(router) as transport:
                rc = loadgen.main([
                    "--url", transport.address,  # uhd://host:port
                    "--transport", "binary",
                    "--smoke",
                    "--rps", "25",
                    "--duration", "1.0",
                    "--pixels", str(serve_data.num_pixels),
                    "--dim", "256",
                    "--csv", str(csv_path),
                ])
                stats = router.stats()
        assert rc == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "run table is empty"
        assert tuple(rows[0].keys()) == loadgen.CSV_COLUMNS
        assert all(row["transport"] == "binary" for row in rows)
        total = next(r for r in rows if r["lane"] == loadgen.ALL_LANES)
        assert int(total["failed"]) == 0
        assert int(total["ok"]) >= 1
        assert int(total["ok"]) == stats["requests"]
        (snap,) = stats["transports"]
        assert snap["name"] == "binary"
        assert snap["frames_in"] == stats["requests"]

    def test_smoke_fails_loudly_when_requests_fail(self, tmp_path):
        """Against a dead endpoint every request fails -> exit code 1."""
        csv_path = tmp_path / "run_table.csv"
        rc = loadgen.main([
            "--url", "http://127.0.0.1:9",  # discard port: refused
            "--smoke",
            "--process", "uniform",  # guaranteed arrivals in the window
            "--rps", "20",
            "--duration", "0.5",
            "--no-energy",
            "--csv", str(csv_path),
        ])
        assert rc == 1
