"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestTables:
    def test_single_artifact(self, capsys):
        assert main(["tables", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Scenario 1" in out

    def test_multiple_artifacts(self, capsys):
        assert main(["tables", "table2", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 7" in out

    def test_unknown_artifact(self, capsys):
        assert main(["tables", "table99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestSelect:
    def test_scenario1(self, capsys):
        assert main(["select", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 1" in out
        assert "utilization" in out

    def test_no_packing_knapsack(self, capsys):
        assert main(["select", "2", "--method", "knapsack",
                     "--no-packing"]) == 0
        out = capsys.readouterr().out
        assert "packed" not in out

    def test_custom_buffer(self, capsys):
        assert main(["select", "1", "--buffer", "16"]) == 0
        assert "/16 bits" in capsys.readouterr().out


class TestDebug:
    def test_case_study(self, capsys):
        assert main(["debug", "1"]) == 0
        out = capsys.readouterr().out
        assert "symptom: hang" in out
        assert "Non-generation of Mondo" in out

    def test_unknown_case_study(self, capsys):
        assert main(["debug", "9"]) == 2
        assert "unknown case study" in capsys.readouterr().err


class TestUsbAndDot:
    def test_usb(self, capsys):
        assert main(["usb"]) == 0
        out = capsys.readouterr().out
        assert "token_pid_sel" in out
        assert "InfoGain" in out

    def test_dot_flow(self, capsys):
        assert main(["dot", "Mon"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "Mon"')
        assert "reqtot" in out

    def test_dot_scenario(self, capsys):
        assert main(["dot", "scenario1"]) == 0
        assert "digraph interleaved" in capsys.readouterr().out

    def test_dot_unknown(self, capsys):
        assert main(["dot", "nope"]) == 2
        assert "unknown flow" in capsys.readouterr().err


class TestPlan:
    def test_plan_with_target(self, capsys):
        assert main(["plan", "1", "--widths", "16", "32", "48",
                     "--target", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "width sweep" in out
        assert "<- knee" in out
        assert "minimal width for 50% coverage" in out

    def test_plan_unreachable_target(self, capsys):
        assert main(["plan", "2", "--widths", "8",
                     "--target", "0.99"]) == 0
        assert "no swept width" in capsys.readouterr().out


class TestReportAndExport:
    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert main(["report", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "## Table 3" in text
        assert "## Figure 7" in text

    def test_export_to_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "results.json"
        assert main(["export", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["library_version"]
        assert len(payload["table3"]) == 5


class TestSpecCommands:
    def test_spec_round_trips(self, capsys, tmp_path):
        assert main(["spec"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("# repro-flowspec v1")
        path = tmp_path / "t2.flowspec"
        path.write_text(text)
        assert main(["analyze", str(path), "--buffer", "32"]) == 0
        out = capsys.readouterr().out
        assert "interleaved flow has" in out
        assert "utilization" in out

    def test_analyze_empty_spec(self, capsys, tmp_path):
        path = tmp_path / "empty.flowspec"
        path.write_text("# repro-flowspec v1\n")
        assert main(["analyze", str(path)]) == 2
        assert "no flows" in capsys.readouterr().err

    def test_dot_from_spec(self, capsys, tmp_path):
        path = tmp_path / "one.flowspec"
        path.write_text(
            "flow F\n  state a initial\n  state b stop\n"
            "  message m 4\n  transition a -> b on m\nend\n"
        )
        assert main(["dot", "F", "--spec", str(path)]) == 0
        assert 'digraph "F"' in capsys.readouterr().out

    def test_dot_from_spec_unknown_flow(self, capsys, tmp_path):
        path = tmp_path / "one.flowspec"
        path.write_text(
            "flow F\n  state a initial\n  state b stop\n"
            "  message m 4\n  transition a -> b on m\nend\n"
        )
        assert main(["dot", "G", "--spec", str(path)]) == 2
        assert "defines" in capsys.readouterr().err


class TestJobsFlags:
    def test_tables_jobs_matches_serial(self, capsys):
        assert main(["tables", "table1", "table2", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["tables", "table1", "table2", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_debug_campaign_mode(self, capsys):
        assert main(["debug", "1", "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 failing runs" in out
        assert "messages investigated" in out
        assert "plausible:" in out


class TestStreamCommand:
    @pytest.fixture
    def trace_path(self, tmp_path):
        from repro.experiments.common import scenario_selection
        from repro.sim.engine import TransactionSimulator
        from repro.sim.tracefile import write_trace_file

        sc = scenario_selection(1).scenario
        trace = TransactionSimulator(sc.interleaved(), sc.name).run(seed=11)
        path = tmp_path / "s1.trace"
        with path.open("w") as stream:
            write_trace_file(
                stream, trace.records, scenario=sc.name, seed=11
            )
        return path

    def test_stream_follows_trace(self, capsys, trace_path):
        assert main(["stream", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "following" in out
        assert "captured:" in out
        assert "localization:" in out
        assert "seed=11" in out

    def test_stream_window_mode(self, capsys, trace_path):
        assert main(["stream", str(trace_path), "--mode", "window",
                     "--chunk-bytes", "64"]) == 0
        assert "mode=window" in capsys.readouterr().out

    def test_stream_frontier_overflow(self, capsys, trace_path):
        assert main(["stream", str(trace_path),
                     "--max-frontier", "1"]) == 1
        assert "frontier overflowed" in capsys.readouterr().err

    def test_stream_diagnostics_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "noisy.trace"
        path.write_text(
            '# repro-trace v1 scenario="x" seed=0\nthis is garbage\n'
        )
        assert main(["stream", str(path)]) == 0
        assert "skipped" in capsys.readouterr().err


@pytest.fixture(scope="module")
def loadgen_port():
    """A live server for scenario 1 that ``repro loadgen`` drives."""
    from repro.server import ServeContext, ServerThread

    with ServerThread(ServeContext.from_scenario(1)) as thread:
        yield thread.server.port


def _loadgen_json(capsys, port, *argv):
    import json

    assert main(["loadgen", "--port", str(port), "--processes", "0",
                 "--sessions", "3", "--json", *argv]) == 0
    return json.loads(capsys.readouterr().out)


class TestLoadgenCommand:
    def test_loadgen_report(self, capsys, loadgen_port):
        assert main(["loadgen", "--port", str(loadgen_port),
                     "--processes", "0", "--sessions", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 networked session(s)" in out
        assert "p95 feed latency:" in out
        assert "'closed': 3" in out

    def test_loadgen_json(self, capsys, loadgen_port):
        payload = _loadgen_json(capsys, loadgen_port)
        assert set(payload) == {
            "chunk_size", "failures", "fractions", "max_feed_latency_s",
            "mode", "p50_feed_latency_s", "p95_feed_latency_s",
            "p99_feed_latency_s", "records_per_s", "recoveries",
            "retries", "sessions", "statuses", "total_records", "wall_s",
            "workers",
        }
        assert payload["statuses"] == {"closed": 3}
        assert payload["failures"] == []
        assert len(payload["fractions"]) == 3


class TestCacheCommand:
    def test_stats(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cache directory:" in out
        assert "disk entries:" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "directory" in payload
        assert "stats" in payload

    def test_warm_then_clear(self, capsys):
        assert main(["cache", "warm"]) == 0
        out = capsys.readouterr().out
        assert "warmed 3 scenario selection(s)" in out
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out

    def test_rejects_unknown_action(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "bogus"])


class TestProfileCommand:
    def test_prints_counters_and_result(self, capsys):
        assert main(["profile", "2"]) == 0
        out = capsys.readouterr().out
        assert "Scenario 2: profile" in out
        assert "combinations_scored" in out
        assert "coverage_bitset_ors" in out
        assert "interleave_states_expanded" in out
        assert "select_exhaustive" in out
        assert "total wall time" in out
        assert "gain=" in out

    def test_knapsack_method(self, capsys):
        assert main(["profile", "1", "--method", "knapsack",
                     "--no-packing"]) == 0
        out = capsys.readouterr().out
        assert "knapsack_dp_steps" in out
        assert "select_knapsack" in out

    def test_json_output(self, capsys):
        import json

        assert main(["profile", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["combinations_scored"] > 0
        assert "wall_time_s" in payload
        assert "gain=" in payload["result"]


class TestMineCommand:
    def test_mines_and_scores_a_scenario(self, capsys):
        assert main(["mine", "1", "--runs", "20",
                     "--eval-runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "mined 3 flows" in out
        assert "vs ground truth:" in out
        assert "transition recall" in out
        assert "closed loop" in out
        assert "Def-7 coverage" in out

    def test_emit_prints_flowspec(self, capsys):
        assert main(["mine", "1", "--runs", "10", "--emit"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro-flowspec v1")
        assert "flow mined_" in out
        assert "transition q0 ->" in out

    def test_emitted_spec_is_analyzable(self, capsys, tmp_path):
        assert main(["mine", "2", "--runs", "10", "--emit"]) == 0
        path = tmp_path / "mined.flowspec"
        path.write_text(capsys.readouterr().out)
        assert main(["analyze", str(path)]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        assert main(["mine", "1", "--runs", "20", "--eval-runs", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == 1
        assert payload["transition_recall"] >= 0.9
        assert payload["coverage_delta"] <= 0.10
        assert len(payload["flows"]) == 3

    def test_jobs_match_serial(self, capsys):
        assert main(["mine", "1", "--runs", "16", "--eval-runs", "1",
                     "--json"]) == 0
        serial = capsys.readouterr().out
        assert main(["mine", "1", "--runs", "16", "--eval-runs", "1",
                     "--jobs", "2", "--json"]) == 0
        assert capsys.readouterr().out == serial


class TestDocstringSync:
    def test_every_subcommand_documented(self):
        """The module docstring's Commands section must keep pace with
        the registered subparsers."""
        import repro.cli as cli

        parser = cli.build_parser()
        (subparsers,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for name in subparsers.choices:
            assert f"``{name}``" in cli.__doc__, (
                f"command {name!r} missing from the cli module "
                "docstring"
            )


class TestErrorPaths:
    """Unknown scenario/flow names: status 2, one short stderr
    message, never a traceback."""

    def _argparse_rejects(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_select_unknown_scenario(self, capsys):
        self._argparse_rejects(capsys, ["select", "9"])

    def test_stream_unknown_scenario(self, capsys, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text('# repro-trace v1 scenario="x" seed=0\n')
        self._argparse_rejects(
            capsys, ["stream", str(path), "--scenario", "9"]
        )

    def test_profile_unknown_scenario(self, capsys):
        self._argparse_rejects(capsys, ["profile", "9"])

    def test_mine_unknown_scenario(self, capsys):
        self._argparse_rejects(capsys, ["mine", "9"])

    def test_dot_unknown_flow_name(self, capsys):
        assert main(["dot", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown flow" in err
        assert "Traceback" not in err

    def test_dot_unknown_scenario_number(self, capsys):
        assert main(["dot", "scenario9"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown scenario" in err

    def test_dot_malformed_scenario_suffix(self, capsys):
        assert main(["dot", "scenarioXYZ"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "Traceback" not in err


class TestLoadgenSeed:
    def test_synthetic_sessions_reproducible(self):
        from repro.experiments.common import scenario_selection
        from repro.stream.service import synthetic_session_records

        bundle = scenario_selection(1)
        traced = bundle.with_packing.traced
        interleaved = bundle.scenario.interleaved()
        first = synthetic_session_records(interleaved, traced, seed=4)
        again = synthetic_session_records(interleaved, traced, seed=4)
        other = synthetic_session_records(interleaved, traced, seed=5)
        assert first == again
        assert first != other

    def test_loadgen_seed_flag_reproducible(self, capsys, loadgen_port):
        first = _loadgen_json(capsys, loadgen_port, "--seed", "7")
        again = _loadgen_json(capsys, loadgen_port, "--seed", "7")
        assert first["fractions"] == again["fractions"]
