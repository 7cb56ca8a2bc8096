"""In-process tests for the ``python -m repro.store`` CLI."""

from __future__ import annotations

import json

from repro.store.__main__ import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestBuild:
    def test_build_monolithic(self, tmp_path, capsys):
        code, payload, _ = _run(
            capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7"
        )
        assert code == 0
        assert payload["name"] == "baidu-tiny"
        assert payload["sharded"] is False
        assert len(payload["written"]) == 1
        assert payload["store"]["counters"]["persists"] == 0  # direct write
        assert (tmp_path / "baidu-tiny" / "graph.bccsnap").is_file()

    def test_build_sharded(self, tmp_path, capsys):
        code, payload, _ = _run(
            capsys,
            "build", "baidu-tiny", str(tmp_path),
            "--seed", "7", "--name", "bd", "--sharded",
        )
        assert code == 0
        assert payload["sharded"] is True
        assert len(payload["written"]) >= 1
        shard_files = sorted((tmp_path / "bd").glob("shard-*.bccsnap"))
        assert [str(p) for p in shard_files] == payload["written"]

    def test_build_unknown_dataset_exits_2(self, tmp_path, capsys):
        code, payload, err = _run(capsys, "build", "no-such-dataset", str(tmp_path))
        assert code == 2
        assert payload is None
        assert "error:" in err


class TestInspect:
    def test_inspect_reports_segments(self, tmp_path, capsys):
        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        code, payload, _ = _run(capsys, "inspect", str(tmp_path))
        assert code == 0
        (doc,) = payload["snapshots"]
        assert doc["format_version"] == 1
        segment_names = {seg["name"] for seg in doc["segments"]}
        assert {"offsets", "neighbors", "labels", "coreness"} <= segment_names

    def test_inspect_empty_store_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, "inspect", str(tmp_path))
        assert code == 2
        assert "no snapshots" in err


class TestVerify:
    def test_verify_clean_store(self, tmp_path, capsys):
        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        code, payload, _ = _run(capsys, "verify", str(tmp_path))
        assert code == 0
        assert payload["ok"] is True
        assert payload["failures"] == 0

    def test_verify_corrupted_store_exits_1(self, tmp_path, capsys):
        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        path = tmp_path / "baidu-tiny" / "graph.bccsnap"
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        code, payload, _ = _run(capsys, "verify", str(tmp_path))
        assert code == 1
        assert payload["ok"] is False
        (entry,) = payload["snapshots"]
        assert "checksum" in entry["error"]

    def test_verify_deep_matches(self, tmp_path, capsys):
        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        code, payload, _ = _run(
            capsys,
            "verify", str(tmp_path),
            "--deep", "--dataset", "baidu-tiny", "--seed", "7",
        )
        assert code == 0
        assert payload["ok"] is True

    def test_verify_deep_detects_wrong_seed(self, tmp_path, capsys):
        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        code, payload, _ = _run(
            capsys,
            "verify", str(tmp_path),
            "--deep", "--dataset", "baidu-tiny", "--seed", "8",
        )
        assert code == 1
        (entry,) = payload["snapshots"]
        assert "fingerprint mismatch" in entry["error"]

    def test_verify_deep_without_dataset_exits_2(self, tmp_path, capsys):
        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        code, _, err = _run(capsys, "verify", str(tmp_path), "--deep")
        assert code == 2
        assert "--dataset" in err


class TestRoundTripViaCli:
    def test_built_store_attaches_in_directory(self, tmp_path, capsys):
        from repro.datasets import load_dataset
        from repro.serving import GraphDirectory

        _run(capsys, "build", "baidu-tiny", str(tmp_path), "--seed", "7")
        directory = GraphDirectory(store=tmp_path, sharded=False)
        engine = directory.add("baidu-tiny", load_dataset("baidu-tiny", seed=7))
        assert engine.counters_snapshot()["csr_freezes"] == 0
        assert directory.store_summary()["modes"] == {"baidu-tiny": "attached"}
