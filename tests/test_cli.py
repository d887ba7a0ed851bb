"""Tests for the motivo-py command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph.io import load_edge_list


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self):
        args = build_parser().parse_args(["count", "facebook"])
        assert args.k == 5
        assert args.samples == 20000
        assert not args.ags

    def test_generate_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "nope", "out.txt"])

    @pytest.mark.parametrize("command", [
        ["count", "facebook"], ["sample", "some-artifact"],
    ])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_batch_size_below_one_is_a_usage_error(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--batch-size", value])
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err


class TestGenerate:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "lollipop.txt"
        assert main(["generate", "lollipop", str(out)]) == 0
        graph = load_edge_list(out)
        assert graph.num_edges > 0
        # Notice lines log to stderr; results stay on stdout.
        assert "wrote lollipop" in capsys.readouterr().err

    def test_writes_binary(self, tmp_path):
        out = tmp_path / "lollipop.npz"
        assert main(["generate", "lollipop", str(out)]) == 0
        from repro.graph.io import load_binary

        assert load_binary(out).num_edges > 0


class TestInfo:
    def test_dataset_by_name(self, capsys):
        assert main(["info", "lollipop"]) == 0
        out = capsys.readouterr().out
        assert "n = " in out
        assert "max degree" in out

    def test_file_path(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        assert main(["info", str(path)]) == 0
        assert "m = 2" in capsys.readouterr().out


class TestExact:
    def test_exact_counts_printed(self, tmp_path, capsys):
        path = tmp_path / "c6.txt"
        path.write_text("\n".join(f"{i} {(i + 1) % 6}" for i in range(6)))
        assert main(["exact", str(path), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "distinct 3-graphlets" in out


class TestCount:
    def test_end_to_end_naive(self, capsys):
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "400", "--seed", "1",
        ]) == 0
        captured = capsys.readouterr()
        # Progress lines log to stderr, the estimate table to stdout.
        assert "build-up" in captured.err
        assert "naive sampling" in captured.err
        assert "graphlet" in captured.out

    def test_end_to_end_ags(self, capsys):
        assert main([
            "count", "lollipop", "--k", "4", "--ags",
            "--samples", "400", "--cover-threshold", "50", "--seed", "2",
        ]) == 0
        assert "AGS" in capsys.readouterr().err

    def test_biased_and_no_zero_rooting(self, capsys):
        assert main([
            "count", "friendster", "--k", "4",
            "--samples", "200", "--seed", "3",
            "--biased-lambda", "0.1", "--no-zero-rooting",
        ]) == 0

    def test_spill_dir(self, tmp_path, capsys):
        spill = tmp_path / "spill"
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "100", "--seed", "4",
            "--spill-dir", str(spill),
        ]) == 0
        assert (spill / "layer_4.counts.npy").exists()


class TestSuggestLambda:
    def test_prints_lambda(self, capsys):
        assert main(["suggest-lambda", "friendster", "--k", "4",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "suggested lambda:" in out

    def test_sparse_graph_falls_back_to_uniform(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 2\n")
        assert main(["suggest-lambda", str(path), "--k", "3",
                     "--seed", "6"]) == 0
        assert "uniform" in capsys.readouterr().out


class TestProfile:
    def test_prints_frequencies(self, capsys):
        assert main(["profile", "lollipop", "--k", "4",
                     "--samples", "300", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "motif profile" in out
        assert "e-" in out or "e+" in out  # scientific notation rows


class TestNonInducedFlag:
    def test_count_with_noninduced(self, capsys):
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "300", "--seed", "8", "--noninduced",
        ]) == 0
        out = capsys.readouterr().out
        assert "non-induced" in out


class TestErrors:
    def test_missing_file_reported(self, capsys):
        with pytest.raises(FileNotFoundError):
            main(["info", "/nonexistent/graph.txt"])

    def test_library_errors_become_exit_one(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n")
        status = main(["count", str(path), "--k", "1", "--samples", "10"])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_urn_count_degrades_to_zero(self, tmp_path, capsys):
        # A 2-vertex graph cannot host 4-graphlets: the urn is empty,
        # which is a zero-occurrences answer, not an error.
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n")
        out = tmp_path / "estimates.json"
        status = main([
            "count", str(path), "--k", "4", "--samples", "10",
            "--seed", "3", "--output", str(out),
        ])
        assert status == 0
        assert "empty urn" in capsys.readouterr().err
        from repro.sampling.estimates import GraphletEstimates

        restored = GraphletEstimates.from_json(out.read_text())
        assert restored.empty_urn
        assert restored.counts == {}


class TestJsonOutput:
    def test_count_writes_json(self, tmp_path, capsys):
        out = tmp_path / "estimates.json"
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "200", "--seed", "9",
            "--output", str(out),
        ]) == 0
        from repro.sampling.estimates import GraphletEstimates

        restored = GraphletEstimates.from_json(out.read_text())
        assert restored.k == 4
        assert restored.samples == 200
        assert restored.total > 0


class TestTelemetryFlags:
    def test_count_writes_stats_and_trace(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "200", "--seed", "21",
            "--stats-out", str(stats), "--trace-out", str(trace),
        ]) == 0
        import json

        snapshot = json.loads(stats.read_text())
        assert any(key.startswith("count.") for key in snapshot)
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "buildup" in names

    def test_stats_pretty_prints_snapshot(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "200", "--seed", "22",
            "--stats-out", str(stats),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(stats)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "timers (total seconds):" in out

    def test_stats_pretty_prints_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "count", "lollipop", "--k", "4",
            "--samples", "200", "--seed", "23",
            "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans in" in out
        assert "buildup" in out

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not json at all\n")
        assert main(["stats", str(bad)]) == 1
        assert "neither" in capsys.readouterr().err

    def test_log_level_silences_notices(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main([
            "--log-level", "warning", "generate", "lollipop", str(out),
        ]) == 0
        assert "wrote lollipop" not in capsys.readouterr().err

    def test_log_json_emits_json_lines(self, tmp_path, capsys):
        import json

        out = tmp_path / "g.txt"
        assert main([
            "--log-json", "generate", "lollipop", str(out),
        ]) == 0
        err_lines = [
            line for line in capsys.readouterr().err.splitlines() if line
        ]
        records = [json.loads(line) for line in err_lines]
        assert any("wrote lollipop" in r["message"] for r in records)
        assert all(r["level"] == "info" for r in records)
