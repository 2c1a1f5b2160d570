"""Tests for ``python -m repro scenarios`` subcommands."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.scenarios.library import list_ids
from tests.scenarios.test_replay_golden import GOLDEN_DIGESTS


class TestList:
    def test_lists_every_shipped_id(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for sid in list_ids():
            assert sid in out

    def test_tag_filter(self, capsys):
        assert main(["scenarios", "list", "--tag", "noc"]) == 0
        out = capsys.readouterr().out
        assert "noc-mesh-8x8@1" in out
        assert "cpu-mix@1" not in out


class TestShow:
    def test_show_renders_the_bundle(self, capsys):
        assert main(["scenarios", "show", "web-burst@1"]) == 0
        out = capsys.readouterr().out
        assert "web-burst@1" in out
        assert "bursty-requests" in out

    def test_show_unknown_id_exits_nonzero(self, capsys):
        assert main(["scenarios", "show", "nope@1"]) == 2


class TestReplay:
    def test_replay_prints_the_golden_digest(self, capsys):
        assert main(["scenarios", "replay", "web-steady-rr@1"]) == 0
        out = capsys.readouterr().out
        assert GOLDEN_DIGESTS["web-steady-rr@1"] in out

    def test_replay_json_mode_is_machine_readable(self, capsys):
        assert main([
            "scenarios", "replay", "wear-hotline", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"] == GOLDEN_DIGESTS["wear-hotline@1"]

    @pytest.mark.parametrize("mode", ("off", "auto"))
    @pytest.mark.parametrize("command", (
        ["replay", "cpu-mix@1"], ["champ", "hedging"],
    ), ids=("replay", "champ"))
    def test_retired_fastpath_flag_exits_two(self, capsys, command, mode):
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", *command, "--fastpath", mode])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fastpath" in capsys.readouterr().err

    def test_replay_rejects_the_retired_on_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", "replay", "cpu-mix@1", "--fastpath", "on"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fastpath on" in (
            capsys.readouterr().err)


class TestGenInfo:
    def test_gen_then_info_roundtrip(self, tmp_path, capsys):
        target = str(tmp_path / "t.rtrc")
        assert main([
            "scenarios", "gen", "kv-zipf", "-o", target,
            "--seed", "3", "--n", "500",
        ]) == 0
        capsys.readouterr()
        assert main(["scenarios", "info", target]) == 0
        out = capsys.readouterr().out
        assert "500" in out
        assert "kv-zipf" in out

    def test_info_on_corrupt_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.rtrc"
        bad.write_bytes(b"not a trace at all")
        assert main(["scenarios", "info", str(bad)]) == 2
        assert "trace" in capsys.readouterr().err.lower()


class TestChamp:
    def test_champ_writes_a_leaderboard_artifact(self, tmp_path, capsys):
        artifact = str(tmp_path / "board.json")
        assert main([
            "scenarios", "champ", "wear-leveling", "--output", artifact,
        ]) == 0
        out = capsys.readouterr().out
        assert "start-gap" in out
        with open(artifact) as f:
            doc = json.load(f)
        board = doc["championships"]["wear-leveling"]
        assert board["championship"] == "wear-leveling"
        assert [e["rank"] for e in board["entries"]] == [1, 2, 3]
        assert len(doc["digest"]) == 64
