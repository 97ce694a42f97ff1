"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

from .conftest import BAD_CONFIG_FIELDS, BAD_SPEC_FIELDS


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig1"])
        assert args.experiment == "fig1"
        assert args.scale is None

    def test_run_with_scale(self):
        args = build_parser().parse_args(["run", "tab4", "--scale", "smoke"])
        assert args.scale == "smoke"

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig1", "--scale", "huge"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verbosity_flags(self):
        args = build_parser().parse_args(["-vv", "list"])
        assert args.verbose == 2 and not args.quiet
        args = build_parser().parse_args(["-q", "list"])
        assert args.quiet

    def test_trace_record_defaults(self):
        args = build_parser().parse_args(
            ["trace", "record", "--out", "d"]
        )
        assert args.trace_command == "record"
        assert args.schemes == ["ALL"]
        assert args.replications == 1

    def test_trace_filter_rejects_bad_type(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "filter", "t.jsonl", "--type", "nonsense"]
            )

    @pytest.mark.parametrize("command", [
        ["bench"],
        ["trace", "record", "--out", "t"],
        ["probe", "record", "--out", "p"],
        ["job", "submit", "--url", "http://127.0.0.1:1"],
    ])
    def test_unknown_scheme_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--schemes", "R2", "BOGUS"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --schemes: unknown scheme 'BOGUS'" in err
        assert "Traceback" not in err

    def test_generalised_schemes_are_accepted(self):
        args = build_parser().parse_args(
            ["bench", "--schemes", "r2", "F0.25", "R7"]
        )
        assert args.schemes == ["r2", "F0.25", "R7"]

    def test_trace_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestMain:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp in ("fig1", "tab4", "sec4"):
            assert exp in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_sec4_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["run", "sec4"]) == 0
        out = capsys.readouterr().out
        assert "capacity analysis" in out
        assert "bottleneck" in out

    def test_run_with_exports(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        json_path = tmp_path / "report.json"
        csv_dir = tmp_path / "csv"
        assert main([
            "run", "fig5",
            "--json", str(json_path),
            "--csv", str(csv_dir),
        ]) == 0
        assert json_path.exists()
        import json

        payload = json.loads(json_path.read_text())
        assert payload["exp_id"] == "fig5"
        csvs = list(csv_dir.glob("fig5_table*.csv"))
        assert len(csvs) >= 2

    def test_run_diagnostics_on_stderr_not_stdout(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["run", "sec4"]) == 0
        captured = capsys.readouterr()
        assert "took" not in captured.out  # timing line moved to stderr
        assert "took" in captured.err


class TestTraceCommand:
    RECORD = ["trace", "record", "--schemes", "R2", "--replications", "1",
              "--clusters", "2", "--nodes", "16", "--duration", "200"]

    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace")
        assert main(self.RECORD + ["--out", str(out)]) == 0
        return out

    def test_record_writes_artifacts(self, trace_dir):
        assert (trace_dir / "trace.jsonl").exists()
        assert (trace_dir / "manifest.json").exists()
        manifest = json.loads((trace_dir / "manifest.json").read_text())
        assert manifest["kind"] == "repro-manifest"
        assert manifest["extra"]["n_trace_events"] > 0

    def test_summary(self, trace_dir, capsys):
        assert main(["trace", "summary",
                     str(trace_dir / "trace.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_events"] > 0
        assert "submit" in summary["by_type"]

    def test_export_chrome(self, trace_dir, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(["trace", "export-chrome",
                     str(trace_dir / "trace.jsonl"),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_filter_outputs_jsonl(self, trace_dir, capsys):
        assert main(["trace", "filter", str(trace_dir / "trace.jsonl"),
                     "--type", "start", "--cluster", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            ev = json.loads(line)
            assert ev["type"] == "start" and ev["cluster"] == 0

    def test_record_parallel_identical(self, trace_dir, tmp_path):
        out = tmp_path / "parallel"
        assert main(self.RECORD + ["--out", str(out),
                                   "--workers", "2"]) == 0
        assert (out / "trace.jsonl").read_bytes() == (
            trace_dir / "trace.jsonl"
        ).read_bytes()


class TestProbeCommand:
    RECORD = ["probe", "record", "--schemes", "R2", "--replications", "1",
              "--clusters", "2", "--nodes", "16", "--duration", "200",
              "--cadence", "40"]

    @pytest.fixture(scope="class")
    def probe_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("probe")
        assert main(self.RECORD + ["--out", str(out)]) == 0
        return out

    def test_record_writes_artifacts(self, probe_dir):
        assert (probe_dir / "probes.jsonl").exists()
        manifest = json.loads((probe_dir / "manifest.json").read_text())
        assert manifest["kind"] == "repro-manifest"
        assert manifest["extra"]["n_probe_records"] > 0
        assert manifest["extra"]["probe_cadence"] == 40.0
        assert manifest["online_schema_version"] >= 1

    def test_record_rejects_bad_cadence(self, tmp_path):
        assert main(["probe", "record", "--out", str(tmp_path / "x"),
                     "--cadence", "0"]) == 2

    def test_summary(self, probe_dir, capsys):
        assert main(["probe", "summary",
                     str(probe_dir / "probes.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_records"] > 0
        assert set(summary["by_cluster"]) == {"0", "1"}

    def test_plot_ascii(self, probe_dir, capsys):
        assert main(["probe", "plot-ascii",
                     str(probe_dir / "probes.jsonl"),
                     "--field", "queue_depth"]) == 0
        out = capsys.readouterr().out
        assert "queue_depth" in out
        assert "cluster 0" in out and "cluster 1" in out

    def test_plot_ascii_unknown_field(self, probe_dir):
        assert main(["-q", "probe", "plot-ascii",
                     str(probe_dir / "probes.jsonl"),
                     "--field", "nonsense"]) == 2

    def test_compare_identical(self, probe_dir, capsys):
        path = str(probe_dir / "probes.jsonl")
        assert main(["probe", "compare", path, path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["identical"] is True

    def test_compare_divergent(self, probe_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["probe", "record", "--schemes", "R3",
                     "--replications", "1", "--clusters", "2",
                     "--nodes", "16", "--duration", "200",
                     "--cadence", "40", "--out", str(other)]) == 0
        assert main(["probe", "compare",
                     str(probe_dir / "probes.jsonl"),
                     str(other / "probes.jsonl")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["identical"] is False
        assert report["divergences"]

    def test_export_chrome_counters(self, probe_dir, tmp_path):
        out = tmp_path / "counters.json"
        assert main(["probe", "export-chrome",
                     str(probe_dir / "probes.jsonl"),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all("value" in e["args"] for e in counters)

    def test_record_parallel_identical(self, probe_dir, tmp_path):
        out = tmp_path / "parallel"
        assert main(self.RECORD + ["--out", str(out),
                                   "--workers", "2"]) == 0
        assert (out / "probes.jsonl").read_bytes() == (
            probe_dir / "probes.jsonl"
        ).read_bytes()


@pytest.mark.parametrize("command", ["trace", "probe"])
@pytest.mark.parametrize("flag, value", [
    ("--replications", "0"),
    ("--clusters", "0"),
    ("--duration", "-5"),
])
def test_record_rejects_bad_grid_flag(command, flag, value, tmp_path, capsys):
    """A bad grid flag is one ERROR line and exit 2, before any output."""
    out = tmp_path / "out"
    assert main(["-q", command, "record", "--out", str(out),
                 flag, value]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "bad", ["missing", "empty", "foreign", "not-json", "torn-record"]
)
@pytest.mark.parametrize("argv", [
    ["trace", "summary", "{bad}"],
    ["trace", "filter", "{bad}"],
    ["trace", "export-chrome", "{bad}", "--out", "{out}"],
    ["probe", "summary", "{bad}"],
    ["probe", "plot-ascii", "{bad}"],
    ["probe", "compare", "{good}", "{bad}"],
    ["probe", "export-chrome", "{bad}", "--out", "{out}"],
], ids=lambda argv: " ".join(argv[:2]))
def test_reader_rejects_bad_input(argv, bad, tmp_path, capsys):
    """A missing, empty, foreign or non-JSON input is one ERROR line
    naming the file, and exit 2."""
    paths = {
        "bad": tmp_path / f"{bad}.jsonl",
        "good": tmp_path / "good.jsonl",
        "out": tmp_path / "out.json",
    }
    paths["good"].write_text('{"kind": "repro-probes", "schema": 1}\n')
    kind = "repro-trace" if argv[0] == "trace" else "repro-probes"
    if bad == "empty":
        paths["bad"].write_text("")
    elif bad == "foreign":
        paths["bad"].write_text('{"a": 1}\n')
    elif bad == "not-json":
        paths["bad"].write_text("hello\n")
    elif bad == "torn-record":
        paths["bad"].write_text(
            f'{{"kind": "{kind}", "schema": 1}}\n{{}}\n\n{{"t": 1.5, "ty\n'
        )
    assert main(["-q"] + [arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert str(paths["bad"]) in err
    if bad == "torn-record":
        assert "line 4" in err
    assert not paths["out"].exists()


class TestBenchCommand:
    def test_bench_payload_keys(self, capsys):
        assert main(["-q", "bench", "--replications", "1",
                     "--schemes", "R2", "--workers", "2",
                     "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results_identical"] is True
        assert payload["manifest"]["kind"] == "repro-manifest"
        counters = payload["metrics"]["counters"]
        assert counters["runs"] == 2  # baseline + R2, one replication each
        assert counters["submissions"] > 0
        assert counters["cache_hits"] >= 2  # the warm sweep hit every task
        timings = payload["metrics"]["timings_s"]
        for phase in ("generate_s", "simulate_s", "aggregate_s",
                      "bench_serial_s", "bench_parallel_s"):
            assert phase in timings
        online = payload["online"]
        assert online["schema"] >= 1
        stretch = online["per_scheme"]["R2"]["metrics"]["stretch"]
        assert stretch["count"] > 0
        for q in ("p50", "p90", "p99"):
            assert stretch["quantiles"][q] is not None
        assert online["baseline"]["metrics"]["stretch"]["count"] > 0
        assert online["overall"]["n_runs"] >= 1


class TestServiceCommands:
    """The ``serve``/``worker``/``job``/``cache`` surface of the CLI."""

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--state-dir", "runs/svc"]
        )
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8642

    def test_worker_parser_defaults(self):
        args = build_parser().parse_args(
            ["worker", "--url", "http://127.0.0.1:1"]
        )
        assert args.max_chunks is None
        assert args.max_idle_polls is None
        assert args.poll_interval == pytest.approx(0.2)

    def test_job_submit_defaults(self):
        args = build_parser().parse_args(
            ["job", "submit", "--url", "http://127.0.0.1:1"]
        )
        assert args.job_command == "submit"
        assert args.schemes == ["R2"]
        assert args.executor == "inprocess"
        assert not args.wait

    def test_job_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["job"])

    def test_bad_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "job", "submit", "--url", "u", "--executor", "telegraph",
            ])

    def test_spec_payload_from_flags(self):
        from repro.cli import _job_spec_payload

        args = build_parser().parse_args([
            "job", "submit", "--url", "u", "--schemes", "R2", "NONE",
            "--replications", "3", "--executor", "workqueue",
            "--clusters", "2", "--nodes", "8", "--duration", "120",
        ])
        payload = _job_spec_payload(args)
        assert [c["scheme"] for c in payload["configs"]] == ["R2", "NONE"]
        assert payload["n_replications"] == 3
        assert payload["executor"] == "workqueue"
        assert payload["configs"][0]["n_clusters"] == 2

    def test_spec_payload_from_file_validates(self, tmp_path):
        from repro.cli import _job_spec_payload
        from repro.service.jobs import JobSpec

        good = tmp_path / "spec.json"
        args = build_parser().parse_args([
            "job", "submit", "--url", "u", "--spec", str(good),
        ])
        payload = _job_spec_payload(
            build_parser().parse_args([
                "job", "submit", "--url", "u",
            ])
        )
        good.write_text(json.dumps(payload), encoding="utf-8")
        assert JobSpec.from_dict(_job_spec_payload(args)) == \
            JobSpec.from_dict(payload)

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"configs": [], "n_replications": 1}))
        bad_args = build_parser().parse_args([
            "job", "submit", "--url", "u", "--spec", str(bad),
        ])
        with pytest.raises(ValueError):
            _job_spec_payload(bad_args)

    @pytest.mark.parametrize("field, value", BAD_SPEC_FIELDS)
    def test_malformed_spec_file_is_exit_2(
        self, tmp_path, capsys, field, value
    ):
        from repro.cli import _job_spec_payload

        payload = _job_spec_payload(
            build_parser().parse_args(["job", "submit", "--url", "u"])
        )
        payload[field] = value
        self._assert_refused(tmp_path, capsys, payload, field)

    @pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
    def test_malformed_config_in_spec_file_is_exit_2(
        self, tmp_path, capsys, field, value
    ):
        from repro.cli import _job_spec_payload

        payload = _job_spec_payload(
            build_parser().parse_args(["job", "submit", "--url", "u"])
        )
        payload["configs"][0][field] = value
        self._assert_refused(tmp_path, capsys, payload, field)

    @staticmethod
    def _assert_refused(tmp_path, capsys, payload, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        # nothing listens on port 9: the spec must be refused before
        # any connection is attempted
        assert main([
            "-q", "job", "submit", "--url", "http://127.0.0.1:9",
            "--spec", str(path),
        ]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.strip().splitlines()
        assert field in line

    @pytest.mark.parametrize("flag, value", [
        ("--replications", "0"),
        ("--chunksize", "0"),
        ("--lease-ttl", "-1"),
        ("--lease-ttl", "nan"),
        ("--max-attempts", "0"),
        ("--workers", "0"),
        ("--seed", "-1"),
        ("--clusters", "0"),
        ("--duration", "nan"),
        ("--load", "-1"),
        ("--load", "nan"),
    ])
    def test_malformed_submit_flag_is_exit_2(self, capsys, flag, value):
        assert main([
            "-q", "job", "submit", "--url", "http://127.0.0.1:9",
            flag, value,
        ]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_job_commands_against_live_service(self, tmp_path, capsys):
        from repro.core.config import ExperimentConfig
        from repro.core.parallel import run_grid
        from repro.service.jobs import canonical_grid_json
        from repro.service.server import SweepService

        service = SweepService(tmp_path / "state", port=0)
        port = service.start()
        url = f"http://127.0.0.1:{port}"
        try:
            assert main([
                "-q", "job", "submit", "--url", url,
                "--schemes", "NONE", "--replications", "1",
                "--clusters", "2", "--nodes", "8", "--duration", "120",
                "--wait", "--timeout", "120",
            ]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["state"] == "done"
            job_id = status["job_id"]

            assert main(["-q", "job", "list", "--url", url]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert any(json.loads(ln)["job_id"] == job_id for ln in lines)

            out_path = tmp_path / "grid.json"
            assert main([
                "-q", "job", "result", "--url", url, job_id,
                "--out", str(out_path),
            ]) == 0
            reference = run_grid([ExperimentConfig(
                scheme="NONE", algorithm="easy", n_clusters=2,
                nodes_per_cluster=8, duration=120.0, offered_load=2.0,
                drain=True, seed=20060619,
            )], 1)
            assert out_path.read_bytes() == (
                canonical_grid_json(reference) + "\n"
            ).encode()

            assert main([
                "-q", "job", "status", "--url", url, "job-9999",
            ]) == 1, "404 from the service maps to exit code 1"
        finally:
            service.wait_idle(timeout=30.0)
            service.stop()

    def test_unreachable_service_is_exit_2(self, capsys):
        assert main([
            "-q", "job", "list", "--url", "http://127.0.0.1:9",
        ]) == 2
