"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_render_args(self):
        args = build_parser().parse_args(
            ["render", "--scene", "lego", "--out", "x.ppm"])
        assert args.scene == "lego"
        assert args.out == "x.ppm"

    def test_rejects_unknown_scene(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "--scene", "atrium"])

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--scene", "lego", "--variant", "turbo"])

    def test_trajectory_args(self):
        args = build_parser().parse_args(
            ["trajectory", "--scene", "train", "--backend", "hw:het+qm",
             "--views", "24", "--jobs", "4"])
        assert args.scene == "train"
        assert args.backend == "hw:het+qm"
        assert args.views == 24
        assert args.jobs == 4
        assert args.baseline == "auto"

    def test_trajectory_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trajectory", "--scene", "train", "--backend", "vulkan"])

    @pytest.mark.parametrize("argv", [
        ["simulate", "--ir", "legacy"],
        ["trajectory", "--ir", "legacy"],
        ["trajectory", "--coherence", "off"],
        ["trajectory", "--swmodel", "legacy"],
        ["trajectory", "--warm-crop-cache"],
    ], ids=["simulate-ir", "trajectory-ir", "trajectory-coherence",
            "trajectory-swmodel", "trajectory-warm-crop-cache"])
    def test_rejects_reference_path_flags(self, argv):
        """The CLI runs the default paths only: argparse rejects the
        reference-path and warm-CROP flags with status 2."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--scene", "lego"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_list_scenes(self, capsys):
        assert main(["list-scenes"]) == 0
        out = capsys.readouterr().out
        assert "kitchen" in out and "building" in out

    def test_render(self, tmp_path, capsys):
        out_path = tmp_path / "lego.ppm"
        assert main(["render", "--scene", "lego", "--out",
                     str(out_path)]) == 0
        assert out_path.exists()
        assert out_path.read_bytes()[:2] == b"P6"
        assert "early-termination ratio" in capsys.readouterr().out

    def test_simulate_single(self, capsys):
        assert main(["simulate", "--scene", "palace", "--variant",
                     "het"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "HET=on" in out

    def test_simulate_all(self, capsys):
        assert main(["simulate", "--scene", "palace", "--all"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "het+qm" in out

    def test_experiment_fig01(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_trajectory(self, capsys):
        assert main(["trajectory", "--scene", "lego", "--backend",
                     "hw:het+qm", "--views", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Trajectory: lego / hw:het+qm" in out
        assert "geomean_speedup" in out
        assert "fps_p50" in out

    def test_trajectory_disk_cache(self, tmp_path, capsys):
        argv = ["trajectory", "--scene", "lego", "--views", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "from disk cache" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["from_cache"] is True
        assert "cache" not in payload
