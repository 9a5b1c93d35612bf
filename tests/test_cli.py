import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cliptrack.cli import (
    assemble_stream,
    main,
    parse_detections,
    parse_embeddings,
    parse_grid,
    parse_track_file,
    pipeline_config_from_file,
    read_kv,
    scenario_config_from_file,
    write_detections,
    write_embeddings,
    write_tracks,
)
from cliptrack.core import BoundingBox, Detection, GlobalTrack
from cliptrack.metrics import EvalReport
from cliptrack.summarizer import SummarizerConfig, init_weights, save_weights


def det(frame, x=10.0, score=0.9, source=0, dim=4):
    emb = np.zeros(dim)
    emb[source % dim] = 1.0
    return Detection(frame, BoundingBox(x, 20.0, 30.0, 40.0), score, emb, source)


class TestDetectionFile:
    def test_single_line_format(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        frames = parse_detections(path)
        assert len(frames) == 1
        box, score = frames[0][0]
        assert box.as_tuple() == (10.0, 20.0, 30.0, 40.0)
        assert score == 0.9

    def test_six_fields_error_names_line(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n1,-1,10,20,30,40\n")
        with pytest.raises(ValueError, match=":2"):
            parse_detections(path)

    def test_nonpositive_extent_error(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("1,-1,10,20,0,40,0.9,-1,-1,-1\n")
        with pytest.raises(ValueError, match="extent"):
            parse_detections(path)

    def test_round_trip_boxes_exact(self, tmp_path):
        track = GlobalTrack(
            id=3,
            entries=[
                Detection(f, BoundingBox(0.1 + f / 3.0, 0.7, 12.34567891234, 5.5), 0.875, np.ones(2), 0)
                for f in range(4)
            ],
        )
        path = tmp_path / "tracks.txt"
        write_tracks([track], path)
        frames = parse_detections(path)
        for f in range(4):
            box, score = frames[f][0]
            assert box.as_tuple() == track.entries[f].box.as_tuple()
            assert score == 0.875

    def test_write_empty_tracks_empty_file(self, tmp_path):
        path = tmp_path / "tracks.txt"
        write_tracks([], path)
        assert path.read_bytes() == b""

    def test_write_deterministic_bytes(self, tmp_path):
        tracks = [
            GlobalTrack(id=1, entries=[det(0), det(1)]),
            GlobalTrack(id=2, entries=[det(0, x=50.0, source=1)]),
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_tracks(tracks, a)
        write_tracks(tracks, b)
        assert a.read_bytes() == b.read_bytes()
        first = a.read_text().splitlines()[0]
        assert first.startswith("1,1,")

    def test_sorted_by_frame_then_id(self, tmp_path):
        tracks = [
            GlobalTrack(id=2, entries=[det(0, source=1)]),
            GlobalTrack(id=1, entries=[det(1), det(2)]),
        ]
        path = tmp_path / "t.txt"
        write_tracks(tracks, path)
        firsts = [line.split(",")[:2] for line in path.read_text().splitlines()]
        assert firsts == [["1", "2"], ["2", "1"], ["3", "1"]]


class TestEmbeddingFile:
    def test_complete_mapping(self, tmp_path):
        stream = [[det(0, source=0), det(0, x=60.0, source=1)], [det(1, source=0)]]
        dets_path, embs_path = tmp_path / "d.txt", tmp_path / "e.txt"
        write_detections(stream, dets_path)
        write_embeddings(stream, embs_path)
        rows = parse_detections(dets_path)
        embs = parse_embeddings(embs_path, 4)
        rebuilt = assemble_stream(rows, embs)
        assert [len(f) for f in rebuilt] == [2, 1]
        for orig_frame, new_frame in zip(stream, rebuilt):
            for o, n in zip(orig_frame, new_frame):
                assert np.array_equal(o.embedding, n.embedding)
                assert o.box.as_tuple() == n.box.as_tuple()

    def test_missing_row_error_names_location(self, tmp_path):
        stream = [[det(0, source=0), det(0, x=60.0, source=1)]]
        dets_path, embs_path = tmp_path / "d.txt", tmp_path / "e.txt"
        write_detections(stream, dets_path)
        embs_path.write_text("1,0,1.0,0.0,0.0,0.0\n")
        rows = parse_detections(dets_path)
        embs = parse_embeddings(embs_path, 4)
        with pytest.raises(ValueError, match=r"frame 1, det 1"):
            assemble_stream(rows, embs)

    def test_duplicate_row_error(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1,0,1.0,0.0\n1,0,0.5,0.5\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_embeddings(path, 2)

    def test_dimension_mismatch_error(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1,0," + ",".join(["0.1"] * 15) + "\n")
        with pytest.raises(ValueError, match="dimension 15, expected 16"):
            parse_embeddings(path, 16)


class TestConfigFiles:
    def test_pipeline_round_trip(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text(
            "clip_size = 6\nclip_interval = 3\ninter = temporal_average\n"
            "management = two_clip\nbuffer_size = 10\npatience = none\n# comment\n"
        )
        cfg = pipeline_config_from_file(path)
        assert cfg.clip_size == 6 and cfg.clip_interval == 3
        assert cfg.management == "two_clip"
        assert cfg.patience is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("clip_sizee = 6\n")
        with pytest.raises(ValueError, match="unknown"):
            pipeline_config_from_file(path)

    def test_scenario_with_interruptions(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "frames = 40\nidentities = 3\nseed = 9\n"
            "interruptions = occlusion:10:14:0 ; camera_jump:20:24:*\n"
        )
        cfg = scenario_config_from_file(path)
        assert cfg.frames == 40
        assert cfg.interruptions[0].kind == "occlusion"
        assert cfg.interruptions[0].identities == (0,)
        assert cfg.interruptions[1].identities is None

    def test_malformed_line_names_file(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("frames 40\n")
        with pytest.raises(ValueError, match="key = value"):
            read_kv(path)

    def test_grid_parse(self):
        assert parse_grid("5,5;10,10 ; 10,5") == [(5, 5), (10, 10), (10, 5)]
        with pytest.raises(ValueError):
            parse_grid("5x5")


def write_scenario_cfg(path, **overrides):
    base = dict(frames=40, identities=3, embedding_dim=8, seed=14)
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))


def write_pipeline_cfg(path, **overrides):
    base = dict(clip_size=6, clip_interval=3, inter="temporal_average", buffer_size=10)
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))


class TestMainEndToEnd:
    def test_simulate_track_eval_round_trip(self, tmp_path, capsys):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "manifest.json").exists()

        pipe_cfg = tmp_path / "pipeline.cfg"
        write_pipeline_cfg(pipe_cfg)
        out_tracks = tmp_path / "pred.txt"
        code = main(
            [
                "track",
                "--dets", str(out_dir / "dets.txt"),
                "--embs", str(out_dir / "embs.txt"),
                "--config", str(pipe_cfg),
                "--out", str(out_tracks),
            ]
        )
        assert code == 0
        assert (tmp_path / "pred.txt.manifest.json").exists()

        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--gt", str(out_dir / "gt.txt"),
                "--pred", str(out_tracks),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = EvalReport.from_json(report_path.read_text())
        assert report.idf1 == 1.0
        assert report.id_switches == 0

    def test_track_embedding_dim_flag_matches_sniffed_dim(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)])
        pipe_cfg = tmp_path / "pipeline.cfg"
        write_pipeline_cfg(pipe_cfg)
        base = ["track", "--dets", str(out_dir / "dets.txt"), "--embs", str(out_dir / "embs.txt"),
                "--config", str(pipe_cfg), "--out"]
        assert main(base + [str(tmp_path / "a.txt")]) == 0
        assert main(base + [str(tmp_path / "b.txt"), "--embedding-dim", "8"]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert main(base + [str(tmp_path / "c.txt"), "--embedding-dim", "7"]) == 2

    def test_eval_pred_equals_gt(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)])
        report_path = tmp_path / "r.json"
        code = main(
            ["eval", "--gt", str(out_dir / "gt.txt"), "--pred", str(out_dir / "gt.txt"),
             "--report", str(report_path)]
        )
        assert code == 0
        assert EvalReport.from_json(report_path.read_text()).idf1 == 1.0

    def test_sweep_writes_table(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)])
        pipe_cfg = tmp_path / "pipeline.cfg"
        write_pipeline_cfg(pipe_cfg)
        table = tmp_path / "table.csv"
        code = main(
            [
                "sweep",
                "--dets", str(out_dir / "dets.txt"),
                "--embs", str(out_dir / "embs.txt"),
                "--gt", str(out_dir / "gt.txt"),
                "--grid", "6,3;6,6",
                "--out-table", str(table),
                "--config", str(pipe_cfg),
            ]
        )
        assert code == 0
        lines = table.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("clip_size,clip_interval")

    def test_train_writes_weights_and_history(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg, frames=16, embedding_noise=0.1)
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            "epochs = 2\nsteps_per_epoch = 1\nvideos_per_batch = 2\ntracks_per_video = 4\n"
            "model_dim = 8\nn_layers = 1\nn_heads = 2\nn_videos = 2\n"
            "track_len_min = 2\ntrack_len_max = 4\nframe_window = 12\nseed = 3\n"
        )
        weights_path = tmp_path / "weights.bin"
        code = main(
            ["train", "--scenario-config", str(scen_cfg), "--out-weights", str(weights_path),
             "--train-config", str(train_cfg)]
        )
        assert code == 0
        from cliptrack.summarizer import load_weights

        w = load_weights(weights_path)
        assert w.config.input_dim == 8
        loss_lines = (tmp_path / "weights.bin.loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 3

    def test_train_manifest_records_resolved_model(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg, frames=16, embedding_noise=0.1)
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            "epochs = 1\nsteps_per_epoch = 1\nvideos_per_batch = 1\ntracks_per_video = 4\n"
            "model_dim = 8\nn_layers = 1\nn_heads = 2\nn_videos = 1\nframe_window = 12\n"
        )
        weights_path = tmp_path / "weights.bin"
        code = main(
            ["train", "--scenario-config", str(scen_cfg), "--out-weights", str(weights_path),
             "--train-config", str(train_cfg)]
        )
        assert code == 0
        from cliptrack.summarizer import load_weights

        manifest = json.loads((tmp_path / "weights.bin.manifest.json").read_text())
        model = manifest["config_snapshot"]["model"]
        assert model["ffn_dim"] == load_weights(weights_path).config.ffn_dim == 32
        assert model["pool_per_frame"] == 2

    def test_simulate_deterministic_outputs(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg, embedding_noise=0.2, fp_rate=0.1)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(d1)])
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(d2)])
        for name in ("dets.txt", "embs.txt", "gt.txt", "scenario.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_flag_overrides_scenario_seed(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(d1)])
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(d2), "--seed", "99"])
        assert (d1 / "dets.txt").read_bytes() != (d2 / "dets.txt").read_bytes()


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["track", "--dets", "x.txt"]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(
            ["eval", "--gt", str(tmp_path / "no.txt"), "--pred", str(tmp_path / "no.txt"),
             "--report", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1,-1,10\n")
        code = main(
            ["eval", "--gt", str(bad), "--pred", str(bad), "--report", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_zero_modulation_period_is_data_error(self, tmp_path, capsys):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg, modulation_period=0)
        assert main(["simulate", "--config", str(scen_cfg), "--out-dir", str(tmp_path / "s")]) == 2
        assert "modulation_period" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, field",
        [
            ("loss_temperature = 0", "loss_temperature"),
            ("scattered_mixup = true", "scattered_mixup"),
            ("deterministic = true", "deterministic"),
            ("group_size = 0", "group_size"),
            ("n_heads = 0", "n_heads"),
            ("model_dim = 0", "model_dim"),
        ],
    )
    def test_bad_train_key_is_data_error(self, tmp_path, capsys, line, field):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg, frames=16)
        train_cfg = tmp_path / "train.cfg"
        base = {"epochs": 1, "steps_per_epoch": 1, "model_dim": 8, "n_heads": 2}
        base.pop(line.split("=")[0].strip(), None)  # the case's line sets that key
        train_cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + f"{line}\n")
        code = main(
            ["train", "--scenario-config", str(scen_cfg), "--out-weights",
             str(tmp_path / "w.bin"), "--train-config", str(train_cfg)]
        )
        assert code == 2
        assert field in capsys.readouterr().err

    def test_non_finite_weights_are_data_error(self, tmp_path, capsys):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)])
        weights = init_weights(SummarizerConfig(input_dim=8, model_dim=8, n_heads=2), 0)
        weights.layers[2].w1[3, 1] = np.nan
        save_weights(weights, tmp_path / "w.bin")
        pipe_cfg = tmp_path / "pipeline.cfg"
        write_pipeline_cfg(pipe_cfg, inter="clip_tracker", weights_path=tmp_path / "w.bin")
        code = main(
            ["track", "--dets", str(out_dir / "dets.txt"), "--embs", str(out_dir / "embs.txt"),
             "--config", str(pipe_cfg), "--out", str(tmp_path / "pred.txt")]
        )
        assert code == 2
        assert f"{tmp_path / 'w.bin'}: parameter layers.2.w1" in capsys.readouterr().err
        assert not (tmp_path / "pred.txt").exists()

    @pytest.mark.parametrize(
        "header",
        [b"\x01\x00\x00\x00" * 3, struct.pack("<6I", 1, 8, 65536, 3, 8, 0) + b"\x00" * 56],
        ids=["short_header", "header_larger_than_file"],
    )
    def test_weights_header_is_data_error(self, tmp_path, capsys, header):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)])
        (tmp_path / "w.bin").write_bytes(b"CTSUMRZ1" + header)
        pipe_cfg = tmp_path / "pipeline.cfg"
        write_pipeline_cfg(pipe_cfg, inter="clip_tracker", weights_path=tmp_path / "w.bin")
        code = main(
            ["track", "--dets", str(out_dir / "dets.txt"), "--embs", str(out_dir / "embs.txt"),
             "--config", str(pipe_cfg), "--out", str(tmp_path / "pred.txt")]
        )
        assert code == 2
        assert f"{tmp_path / 'w.bin'}: truncated weights file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, column, value, inter",
        [
            ("dets.txt", 2, "nan", "iou_chain"),  # bb_left
            ("dets.txt", 3, "inf", "iou_chain"),  # bb_top
            ("dets.txt", 4, "nan", "temporal_average"),  # bb_width
            ("dets.txt", 5, "-inf", "iou_chain"),  # bb_height
            ("dets.txt", 6, "nan", "iou_chain"),  # conf
            ("embs.txt", 2, "nan", "temporal_average"),
            ("embs.txt", 9, "-inf", "iou_chain"),
            ("embs.txt", None, "0", "iou_chain"),  # an all-zero embedding row
            ("embs.txt", None, "0", "temporal_average"),
            ("embs.txt", None, "0", "clip_tracker"),
            ("gt.txt", 3, "inf", None),  # eval reads the track files
        ],
    )
    def test_bad_value_is_data_error_naming_line(self, tmp_path, capsys, name, column, value, inter):
        scen_cfg = tmp_path / "scenario.cfg"
        write_scenario_cfg(scen_cfg)
        out_dir = tmp_path / "sim"
        main(["simulate", "--config", str(scen_cfg), "--out-dir", str(out_dir)])
        bad = out_dir / name
        lines = bad.read_text().splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split(",")
        for k in [column] if column is not None else range(2, len(fields)):
            fields[k] = value
        lines[2] = ",".join(fields) + "\n"
        bad.write_text("".join(lines))
        if inter is None:
            code = main(["eval", "--gt", str(bad), "--pred", str(tmp_path / "sim" / "dets.txt"),
                         "--report", str(tmp_path / "report.json")])
        else:
            save_weights(init_weights(SummarizerConfig(input_dim=8, model_dim=8, n_heads=2), 0),
                         tmp_path / "w.bin")
            pipe_cfg = tmp_path / "pipeline.cfg"
            write_pipeline_cfg(pipe_cfg, inter=inter, weights_path=tmp_path / "w.bin")
            code = main(
                ["track", "--dets", str(out_dir / "dets.txt"), "--embs", str(out_dir / "embs.txt"),
                 "--config", str(pipe_cfg), "--out", str(tmp_path / "pred.txt")]
            )
            assert not (tmp_path / "pred.txt").exists()
        assert code == 2
        assert f"{bad}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, line, key",
        [
            ("scenario", "frames = abc", "frames"),
            ("scenario", "interruptions = occlusion:1:2", "interruptions"),
            ("train", "model_dim = x", "model_dim"),
            ("train", "epochs = 1.5", "epochs"),
            ("train", "mixup_bound = lots", "mixup_bound"),
            ("train", "nonsense = 1", "nonsense"),
        ],
    )
    def test_bad_config_value_names_key_and_line(self, tmp_path, capsys, which, line, key):
        scen_cfg = tmp_path / "scenario.cfg"
        scen_cfg.write_text("identities = 3\nembedding_dim = 8\n")
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text("steps_per_epoch = 1\n")
        bad = scen_cfg if which == "scenario" else train_cfg
        bad.write_text(bad.read_text() + f"# comment\n{line}\n")
        lineno = bad.read_text().count("\n")
        code = main(
            ["train", "--scenario-config", str(scen_cfg), "--out-weights",
             str(tmp_path / "w.bin"), "--train-config", str(train_cfg)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:{lineno}:" in err and key in err

    def test_module_run_exits_2_and_names_line(self, tmp_path):
        scen_cfg = tmp_path / "scenario.cfg"
        scen_cfg.write_text("frames = 10\nframes = 12\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cliptrack.cli", "simulate", "--config", str(scen_cfg),
             "--out-dir", str(tmp_path / "s")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert f"{scen_cfg}:2:" in proc.stderr


class TestTrackFileParsing:
    def test_parse_track_file_groups_ids(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1,5,0,0,10,10,1.0,-1,-1,-1\n2,5,1,0,10,10,1.0,-1,-1,-1\n1,8,50,0,10,10,1.0,-1,-1,-1\n")
        tracks = parse_track_file(path)
        assert sorted(tracks) == [5, 8]
        assert sorted(tracks[5]) == [0, 1]

    def test_duplicate_frame_in_track_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1,5,0,0,10,10,1.0,-1,-1,-1\n1,5,9,0,10,10,1.0,-1,-1,-1\n")
        with pytest.raises(ValueError, match="already has frame"):
            parse_track_file(path)
