"""The `repro bench` harness: timer, suites, reports, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.perf.report import (
    SCHEMA_VERSION,
    compare_to_baseline,
    load_report,
    suite_report,
    write_report,
)
from repro.perf.suite import SUITES, BenchResult, SuiteRun, run_suite
from repro.perf.timer import TimingResult, time_callable


class TestTimer:
    def test_counts_warmup_and_repeats(self):
        calls = []
        result = time_callable(lambda: calls.append(1), warmup=2, repeat=3)
        assert len(calls) == 5
        assert result.repeat == 3
        assert result.warmup == 2

    def test_median_with_fake_clock(self):
        ticks = iter([0.0, 10.0, 10.0, 11.0, 11.0, 16.0])
        result = time_callable(lambda: None, warmup=0, repeat=3,
                               clock=lambda: next(ticks), name="fake")
        assert result.times_s == [10.0, 1.0, 5.0]
        assert result.median_s == 5.0
        assert result.best_s == 1.0
        assert result.name == "fake"

    def test_per_second(self):
        result = TimingResult("t", [0.5], warmup=0)
        assert result.per_second(100) == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeat=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)
        with pytest.raises(ValueError):
            TimingResult("t", [], warmup=0)


class TestSuites:
    def test_registry_names(self):
        assert set(SUITES) == {"rasterize", "reference", "hw"}

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_bad_repeat(self):
        with pytest.raises(ValueError, match="repeat"):
            run_suite("rasterize", repeat=0)

    def test_rasterize_quick_reports_speedup(self):
        run = run_suite("rasterize", quick=True, repeat=1)
        assert run.suite == "rasterize"
        assert run.quick is True
        by_name = {r.name: r for r in run}
        assert set(by_name) == {"rasterize/batched", "rasterize/scalar"}
        batched = by_name["rasterize/batched"]
        assert batched.metrics["fragments"] > 0
        assert batched.metrics["fragments_per_sec"] > 0
        assert batched.metrics["speedup_vs_scalar"] > 0
        assert (batched.metrics["fragments"]
                == by_name["rasterize/scalar"].metrics["fragments"])

    def test_hw_quick_reports_draw_speedups(self):
        run = run_suite("hw", quick=True)
        names = [r.name for r in run]
        assert names == ["hw/draw:baseline", "hw/draw:baseline:scalar",
                         "hw/draw:het+qm", "hw/draw:het+qm:scalar"]
        by_name = {r.name: r for r in run}
        for variant in ("baseline", "het+qm"):
            assert by_name[f"hw/draw:{variant}"].metrics[
                "speedup_vs_scalar"] > 0
            assert "speedup_vs_scalar" not in by_name[
                f"hw/draw:{variant}:scalar"].metrics


class TestReport:
    def _fake_run(self, median_s=0.25):
        timing = TimingResult("suite/bench", [median_s], warmup=0)
        return SuiteRun("fake", False, [
            BenchResult(timing, "lego", {"fragments": 1000,
                                         "fragments_per_sec": 4000.0})])

    def test_roundtrip(self, tmp_path):
        report = suite_report(self._fake_run())
        path = tmp_path / "BENCH_fake.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA_VERSION
        assert loaded["suite"] == "fake"
        row = loaded["benchmarks"][0]
        assert row["name"] == "suite/bench"
        assert row["median_ms"] == pytest.approx(250.0)
        assert row["fragments"] == 1000

    def test_baseline_speedup(self):
        baseline = suite_report(self._fake_run(median_s=0.5))
        report = suite_report(self._fake_run(median_s=0.25),
                              baseline=baseline)
        assert report["speedup_vs_baseline"]["suite/bench"] == pytest.approx(2.0)

    def test_baseline_schema_mismatch(self):
        report = suite_report(self._fake_run())
        with pytest.raises(ValueError, match="schema"):
            compare_to_baseline(report, {"schema": -1, "benchmarks": []})

    def test_load_rejects_non_report(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_report(path)


class TestBenchCli:
    def test_quick_rasterize_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_rasterize.json"
        code = cli_main(["bench", "--suite", "rasterize", "--quick",
                         "--repeat", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "rasterize"
        assert report["quick"] is True
        names = [row["name"] for row in report["benchmarks"]]
        assert "rasterize/batched" in names
        captured = capsys.readouterr().out
        assert "Suite: rasterize" in captured
        assert str(out) in captured

    def test_baseline_comparison_in_output(self, tmp_path, capsys):
        out1 = tmp_path / "first.json"
        cli_main(["bench", "--suite", "rasterize", "--quick",
                  "--repeat", "1", "--out", str(out1)])
        capsys.readouterr()
        out2 = tmp_path / "second.json"
        code = cli_main(["bench", "--suite", "rasterize", "--quick",
                         "--repeat", "1", "--baseline", str(out1),
                         "--out", str(out2)])
        assert code == 0
        report = json.loads(out2.read_text())
        assert "speedup_vs_baseline" in report
        assert "rasterize/batched" in report["speedup_vs_baseline"]
        assert "vs baseline" in capsys.readouterr().out


class TestBenchSceneProfile:
    def test_bench_scene_registered(self):
        from repro.workloads.catalog import BENCH_SCENES, get_profile, scene_names
        assert "bench" in BENCH_SCENES
        profile = get_profile("bench")
        assert profile.scene_type == "bench"
        # Deliberately excluded from the paper's figure sweeps.
        assert "bench" not in scene_names(include_large=True)

    def test_bench_scene_builds_deterministically(self):
        from repro.workloads.catalog import build_scene
        a = build_scene("bench", seed=0)
        b = build_scene("bench", seed=0)
        assert len(a) == len(b) == 30000
        np.testing.assert_array_equal(a.positions, b.positions)


class TestReportEnvironmentMetadata:
    def test_report_records_environment(self):
        from repro.perf.timer import TimingResult

        run = SuiteRun("t", True, [
            BenchResult(TimingResult("x", [0.1], 0), "s", {})])
        report = suite_report(run)
        assert report["cpu_count"] >= 1
        assert report["platform"]
        assert report["python"] and report["numpy"]
