"""CLI integration: repro-uhd serve / serve-check over a saved model."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestServeCheckCli:
    def test_serve_check_reports_probe(self, model_path, capsys):
        assert main([
            "serve-check", "--model", model_path, "--batch", "8",
            "--repeats", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve-check OK" in out
        assert "predictions deterministic" in out


class TestServeCli:
    def test_serve_round_trip_pool(self, model_path, capsys):
        assert main([
            "serve", "--model", model_path, "--workers", "2",
            "--rounds", "2", "--batch", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 executor thread(s) per model" in out
        assert "model: ready, serve-check probe median" in out
        assert "verify OK" in out  # bit-exact with UHDClassifier.predict
        assert "shutdown clean" in out

    def test_start_method_still_parses_as_a_no_op(self, model_path, capsys):
        """Scripts written for worker processes keep working unchanged."""
        assert main([
            "serve", "--model", model_path, "--workers", "1",
            "--start-method", "fork", "--rounds", "1", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 executor thread(s) per model" in out
        assert "verify OK" in out

    def test_serve_in_process_fallback(self, model_path, capsys):
        assert main([
            "serve", "--model", model_path, "--workers", "0",
            "--rounds", "1", "--batch", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "in-process fallback" in out
        # lanes resolve the same in-process as with executor threads
        assert "lanes: default max_wait=2ms" in out
        assert "verify OK" in out
        assert "shutdown clean" in out

    def test_serve_backend_override(self, model_path, capsys):
        assert main([
            "serve", "--model", model_path, "--workers", "1",
            "--rounds", "1", "--batch", "4", "--backend", "reference",
        ]) == 0
        assert "verify OK" in capsys.readouterr().out

    def test_serve_requires_model(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_serve_verifies_streaming_model_too(
        self, serve_data, tmp_path, capsys
    ):
        """--verify must load generically, not assume UHDClassifier; and
        a stream re-homes onto another backend like any UHDClassifier."""
        from repro.core.config import UHDConfig
        from repro.core.streaming import StreamingUHD

        model = StreamingUHD(
            serve_data.num_pixels,
            serve_data.num_classes,
            UHDConfig(dim=128, backend="packed", binarize=True),
        )
        model.fit(serve_data.train_images, serve_data.train_labels)
        path = str(tmp_path / "streaming.npz")
        model.save(path)
        for rehome in ([], ["--backend", "reference"]):
            assert main([
                "serve", "--model", path, "--workers", "1",
                "--rounds", "1", "--batch", "4", *rehome,
            ]) == 0
            assert "verify OK" in capsys.readouterr().out

    def test_serve_listed_in_lifecycle_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve" in out and "serve-check" in out


class TestServeHttpCli:
    def test_http_round_trip_with_lanes_and_deadline(self, model_path, capsys):
        """The CI HTTP leg: --http-port 0 round-trips go over real HTTP,
        verify bit-exactness, and hit /healthz and /stats."""
        assert main([
            "serve", "--model", model_path, "--workers", "1",
            "--rounds", "2", "--batch", "4", "--http-port", "0",
            "--lane", "interactive:16:1:4", "--lane", "bulk:64:20",
            "--deadline-ms", "60000",
        ]) == 0
        out = capsys.readouterr().out
        assert "http: listening on http://127.0.0.1:" in out
        assert "interactive max_wait=1ms, bulk max_wait=20ms" in out
        assert "via HTTP" in out
        assert "verify OK" in out  # HTTP labels bit-exact with direct predict
        assert "healthz: ok" in out
        assert "interactive: served 8 row(s), expired 0" in out
        assert "shutdown clean" in out

    def test_binary_round_trip_names_the_binary_wire(self, model_path, capsys):
        """With both ports up, the rounds go over the binary wire and the
        report says so — it must not claim HTTP."""
        assert main([
            "serve", "--model", model_path, "--workers", "0",
            "--rounds", "2", "--batch", "4", "--http-port", "0",
            "--binary-port", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "binary: listening on uhd://127.0.0.1:" in out
        assert "via binary" in out and "via HTTP" not in out
        assert "verify OK" in out

    def test_http_in_process_fallback(self, model_path, capsys):
        assert main([
            "serve", "--model", model_path, "--workers", "0",
            "--rounds", "1", "--batch", "4", "--http-port", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "via HTTP" in out and "verify OK" in out
        assert "healthz: ok" in out

    def test_lane_spec_parsing(self):
        from repro.cli import _parse_lane

        lane = _parse_lane("bulk::50")
        assert lane.name == "bulk"
        assert lane.max_batch is None  # inherits --max-batch
        assert lane.max_wait_ms == 50.0
        assert lane.weight == 1.0
        full = _parse_lane("interactive:16:1:4")
        assert (full.max_batch, full.max_wait_ms, full.weight) == (16, 1.0, 4.0)

    @pytest.mark.parametrize(
        "spec", ["", "a:b", "a:1:x", "a:1:2:3:4:5", "a:0"]
    )
    def test_bad_lane_spec_rejected(self, spec):
        import argparse

        from repro.cli import _parse_lane

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_lane(spec)

    def test_serve_forever_without_http_port_fails_fast(self, model_path):
        """A supervisor must get an error, not a self-test run that exits."""
        with pytest.raises(SystemExit, match="requires --http-port"):
            main([
                "serve", "--model", model_path, "--workers", "0",
                "--serve-forever",
            ])

    def test_duplicate_lane_names_fail_at_config(self, model_path):
        with pytest.raises(ValueError, match="duplicate"):
            main([
                "serve", "--model", model_path, "--workers", "0",
                "--rounds", "1", "--lane", "a", "--lane", "a",
            ])


class TestRouteCli:
    def test_route_two_models_in_process(self, zoo_model_paths, capsys):
        argv = ["route", "--workers", "0", "--rounds", "2", "--batch", "4"]
        for name, path in zoo_model_paths.items():
            argv += ["--model", f"{name}={path}"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for name in zoo_model_paths:
            assert f"model {name}: generation 1, ok" in out
        assert "verify OK" in out
        assert "shutdown clean" in out

    def test_route_http_with_reload(self, zoo_model_paths, capsys):
        argv = ["route", "--workers", "0", "--rounds", "2", "--batch", "4",
                "--http-port", "0", "--reload"]
        for name, path in zoo_model_paths.items():
            argv += ["--model", f"{name}={path}"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "via HTTP" in out
        for name in zoo_model_paths:
            assert f"reload: {name} generation 1 -> 2" in out
            assert f"stats {name}: generation 2" in out
        assert "verify OK" in out
        assert "shutdown clean" in out

    def test_route_duplicate_model_id_fails_fast(self, zoo_model_paths):
        path = next(iter(zoo_model_paths.values()))
        with pytest.raises(SystemExit, match="duplicate model id"):
            main(["route", "--model", f"m={path}", "--model", f"m={path}",
                  "--workers", "0"])

    def test_route_bad_model_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["route", "--model", "no-equals-sign", "--workers", "0"])

    def test_route_serve_forever_without_http_port_fails_fast(
        self, zoo_model_paths
    ):
        name, path = next(iter(zoo_model_paths.items()))
        with pytest.raises(SystemExit, match="requires --http-port"):
            main(["route", "--model", f"{name}={path}", "--workers", "0",
                  "--serve-forever"])


class TestRouteDaemonDrainSummary:
    def test_sigterm_drain_logs_per_lane_quantiles(
        self, model_path, serve_data
    ):
        """``route --serve-forever`` must end with a per-lane p50/p95
        summary line (from the merged histogram snapshots) when SIGTERM
        asks for the drain — the operator's last look at the tail."""
        import json
        import re
        import signal
        import subprocess
        import sys
        import urllib.request

        process = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main("
                f"['route', '--model', 'm={model_path}', '--workers', '0',"
                " '--http-port', '0', '--serve-forever']))",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            address = None
            for _ in range(200):
                line = process.stdout.readline()
                assert line, "daemon exited before listening"
                match = re.search(r"listening on (http://[\d.:]+)", line)
                if match:
                    address = match.group(1)
                    break
            assert address, "never saw the listening line"
            payload = json.dumps(
                {"images": serve_data.test_images[:3].tolist()}
            ).encode()
            for _ in range(2):
                request = urllib.request.Request(
                    address + "/predict",
                    data=payload,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30.0) as reply:
                    assert json.load(reply)["rows"] == 3
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "signal received: draining deployments" in out
        drain = re.search(
            r"drain m/default: (\d+) served, "
            r"p50 ([\d.]+)ms, p95 ([\d.]+)ms, (\d+) expired",
            out,
        )
        assert drain, f"no drain summary in output:\n{out}"
        assert int(drain.group(1)) == 2
        assert float(drain.group(3)) >= float(drain.group(2)) >= 0.0
        assert int(drain.group(4)) == 0
        assert "shutdown clean" in out


class TestServeDaemonReconciles:
    def test_stats_and_metrics_match_client_counts_over_both_wires(
        self, model_path, serve_data
    ):
        """A ``serve`` daemon with both wires: per lane, bare ``/stats``
        and ``/metrics`` must agree with what the client sent, got back
        and saw expire."""
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import urllib.request

        from repro.serve import BinaryClient, DeadlineExpiredError
        from repro.serve.metrics import parse_exposition

        process = subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main("
                f"['serve', '--model', {model_path!r}, '--workers', '1',"
                " '--http-port', '0', '--binary-port', '0',"
                " '--lane', 'interactive:16:1:4', '--lane', 'bulk:1:0',"
                " '--serve-forever']))",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,  # so a failure can kill the whole group
        )
        images = serve_data.test_images.reshape(
            len(serve_data.test_images), -1
        )
        sent = {"interactive": 0, "bulk": 0}
        rows = {"interactive": 0, "bulk": 0}
        expired = {"interactive": 0, "bulk": 0}
        try:
            wires = {}
            while len(wires) < 2:
                line = process.stdout.readline()
                assert line, "daemon exited before listening"
                match = re.search(
                    r"(http|binary): listening on \w+://([\d.]+):(\d+)", line
                )
                if match:
                    wires[match.group(1)] = (match.group(2), int(match.group(3)))
            http = "http://%s:%d" % wires["http"]
            for count in (1, 2, 3):  # interactive over HTTP
                request = urllib.request.Request(
                    http + "/predict?lane=interactive",
                    data=json.dumps(
                        {"images": images[:count].tolist()}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30.0) as reply:
                    rows["interactive"] += json.load(reply)["rows"]
                sent["interactive"] += 1
            # bulk over binary: a pipelined one-row flood, then a request
            # whose 1 ms deadline cannot be met behind it
            with BinaryClient(*wires["binary"]) as client:
                for i in range(40):
                    client.send(images[i % 8], lane="bulk")
                client.send(images[0], lane="bulk", deadline_ms=1.0)
                sent["bulk"] += 41
                for _ in range(41):
                    try:
                        _, labels = client.recv()
                        rows["bulk"] += len(labels)
                    except DeadlineExpiredError:
                        expired["bulk"] += 1
            with urllib.request.urlopen(http + "/stats", timeout=30.0) as reply:
                stats = json.load(reply)
            with urllib.request.urlopen(http + "/metrics", timeout=30.0) as reply:
                families = parse_exposition(reply.read().decode())
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
        assert process.returncode == 0 and "shutdown clean" in out

        def metric(family, lane):
            (value,) = [
                v for _, labels, v in families[family]["samples"]
                if labels.get("lane") == lane
            ]
            return value

        lanes = {lane["name"]: lane for lane in stats["lanes"]}
        assert set(lanes) == set(sent)
        for name in sent:
            assert lanes[name]["submitted"] == sent[name]
            assert lanes[name]["served_rows"] == rows[name]
            assert lanes[name]["expired"] == expired[name]
            assert metric("uhd_lane_served_rows_total", name) == rows[name]
            assert metric("uhd_lane_expired_total", name) == expired[name]
        assert rows["interactive"] == 6
        assert {t["name"] for t in stats["transports"]} == {"http", "binary"}
