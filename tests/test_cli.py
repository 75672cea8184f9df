"""Command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig6" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "uhd" in out and "baseline" in out

    def test_table2_custom_dims(self, capsys):
        assert main(["table2", "--dims", "1024"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "1024" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "This work (measured)" in out
        assert "Semi-HD" in out

    def test_checkpoints(self, capsys):
        assert main(["checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint1" in out and "checkpoint3" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_bench_writes_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        assert main(["bench", "--dims", "64", "--repeats", "2",
                     "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert "uhd_encode_packed" in printed
        results = json.loads(out_path.read_text())
        names = [b["name"] for b in results["benchmarks"]]
        assert "uhd_encode_reference" in names
        packed = next(b for b in results["benchmarks"]
                      if b["name"] == "uhd_encode_packed")
        assert packed["speedup_vs_reference"] > 0

    def test_backend_flag_accepted(self, capsys):
        with pytest.raises(SystemExit):
            main(["table4", "--backend", "gpu"])

    def test_backend_choices_come_from_registry(self, capsys):
        with pytest.raises(SystemExit):
            main(["table4", "--help"])
        assert "{auto,packed,reference}" in capsys.readouterr().out


class TestModelLifecycleCli:
    def _save(self, tmp_path, capsys, backend="packed"):
        path = tmp_path / "model.npz"
        assert main([
            "save", "--out", str(path), "--dim", "128",
            "--n-train", "200", "--n-test", "80", "--backend", backend,
        ]) == 0
        return path, capsys.readouterr().out

    def test_save_then_load_round_trip(self, tmp_path, capsys):
        path, saved_out = self._save(tmp_path, capsys)
        assert "saved model to" in saved_out
        assert path.exists()
        saved_accuracy = saved_out.split("test accuracy ")[1].split("%")[0]
        assert main([
            "load", "--model", str(path), "--n-train", "200", "--n-test", "80",
        ]) == 0
        loaded_out = capsys.readouterr().out
        assert "without retraining" in loaded_out
        # same split, warm-loaded model: bit-exact accuracy
        assert f"test accuracy on mnist: {saved_accuracy}%" in loaded_out

    def test_load_with_backend_override(self, tmp_path, capsys):
        path, saved_out = self._save(tmp_path, capsys, backend="reference")
        saved_accuracy = saved_out.split("test accuracy ")[1].split("%")[0]
        assert main([
            "load", "--model", str(path), "--n-train", "200", "--n-test", "80",
            "--backend", "packed",
        ]) == 0
        loaded_out = capsys.readouterr().out
        assert "backend=packed" in loaded_out
        assert f"test accuracy on mnist: {saved_accuracy}%" in loaded_out

    def test_serve_check(self, tmp_path, capsys):
        path, _ = self._save(tmp_path, capsys, backend="auto")
        assert main([
            "serve-check", "--model", str(path), "--batch", "16",
            "--repeats", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "serve-check OK" in out
        assert "deterministic" in out

    def test_list_mentions_lifecycle(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "serve-check" in out
