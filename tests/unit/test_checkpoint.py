"""Unit tests for the append-safe checkpoint journal."""

import pickle
import struct

import pytest

from repro.coanalysis.results import CheckpointError
from repro.resilience.checkpoint import (Checkpointer, as_checkpointer,
                                         load_checkpoint)


class TestFraming:
    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.ckpt") is None

    def test_empty_file_is_none(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        assert load_checkpoint(path) is None

    def test_latest_record_wins(self, tmp_path):
        ck = Checkpointer(tmp_path / "run.ckpt")
        for n in range(5):
            ck.write({"n": n}, progress=n)
        assert load_checkpoint(ck.path) == {"n": 4}
        assert ck.records_written == 5

    def test_torn_tail_is_ignored(self, tmp_path):
        ck = Checkpointer(tmp_path / "run.ckpt")
        ck.write({"n": 0})
        ck.write({"n": 1})
        intact = ck.path.read_bytes()
        # simulate a crash mid-append: a prefix of a third record
        ck.write({"n": 2})
        full = ck.path.read_bytes()
        torn = full[:len(intact) + (len(full) - len(intact)) // 2]
        ck.path.write_bytes(torn)
        assert load_checkpoint(ck.path) == {"n": 1}

    def test_corrupt_tail_is_ignored(self, tmp_path):
        ck = Checkpointer(tmp_path / "run.ckpt")
        ck.write({"n": 0})
        intact = len(ck.path.read_bytes())
        ck.write({"n": 1})
        blob = bytearray(ck.path.read_bytes())
        blob[intact + 20] ^= 0xFF          # inside record 1's payload
        ck.path.write_bytes(bytes(blob))
        assert load_checkpoint(ck.path) == {"n": 0}

    def test_unsupported_version_raises(self, tmp_path):
        path = tmp_path / "future.ckpt"
        payload = pickle.dumps({"n": 0})
        import zlib
        path.write_bytes(b"RCKP" + struct.pack("<BQI", 99, len(payload),
                                               zlib.crc32(payload))
                         + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_creates_parent_directory(self, tmp_path):
        ck = Checkpointer(tmp_path / "deep" / "run.ckpt")
        ck.write({"n": 0})
        assert load_checkpoint(ck.path) == {"n": 0}

    def test_directory_synced_on_journal_creation(self, tmp_path,
                                                  monkeypatch):
        """The create-then-crash window: a journal file whose *name* was
        never made durable can vanish after a power cut even though its
        content was fsynced.  The first write must therefore fsync the
        containing directory -- later appends need not."""
        import repro.resilience.artifacts as artifacts
        synced = []
        monkeypatch.setattr(artifacts, "fsync_dir",
                            lambda p: synced.append(str(p)))
        ck = Checkpointer(tmp_path / "run.ckpt")
        ck.write({"n": 0})
        assert synced == [str(tmp_path)]
        ck.write({"n": 1})
        assert synced == [str(tmp_path)]    # appends reuse the durable name

    def test_recreated_journal_is_synced_again(self, tmp_path,
                                               monkeypatch):
        import repro.resilience.artifacts as artifacts
        synced = []
        monkeypatch.setattr(artifacts, "fsync_dir",
                            lambda p: synced.append(str(p)))
        ck = Checkpointer(tmp_path / "run.ckpt")
        ck.write({"n": 0})
        ck.path.unlink()                    # simulate lost-name crash
        ck.write({"n": 1})
        assert synced == [str(tmp_path)] * 2
        assert load_checkpoint(ck.path) == {"n": 1}


class TestCadence:
    def test_every_segments_paces_writes(self, tmp_path):
        ck = Checkpointer(tmp_path / "run.ckpt", every_segments=10)
        assert ck.due(0)
        ck.write({}, progress=0)
        assert not ck.due(5)
        assert ck.due(10)

    def test_every_seconds_gates_writes(self, tmp_path):
        ck = Checkpointer(tmp_path / "run.ckpt", every_segments=1,
                          every_seconds=3600)
        ck.write({}, progress=0)
        assert not ck.due(50)

    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "run.ckpt", every_segments=0)


class TestCoercion:
    def test_path_becomes_checkpointer(self, tmp_path):
        ck = as_checkpointer(str(tmp_path / "run.ckpt"))
        assert isinstance(ck, Checkpointer)

    def test_none_passes_through(self):
        assert as_checkpointer(None) is None

    def test_instance_passes_through(self, tmp_path):
        ck = Checkpointer(tmp_path / "run.ckpt", every_segments=3)
        assert as_checkpointer(ck) is ck


class TestRunPayloadCodec:
    """The single versioned codec for exploration-run payloads."""

    def _v2(self, **overrides):
        from repro.resilience.checkpoint import (RUN_PAYLOAD_CODEC,
                                                 encode_run_payload)
        payload = encode_run_payload(
            engine="serial", design="d", application="a",
            frontier=[(b"blob", 1, 2, 0, 7)], strategy="dfs",
            strategy_meta={}, csm={"repo": []},
            activity={"repr": "sim"},
            counters={"paths_created": 3, "batches_done": 1},
            path_records=[], per_path_exercised=[], journal=[])
        assert payload["codec"] == RUN_PAYLOAD_CODEC
        payload.update(overrides)
        return payload

    def test_v2_roundtrips_unchanged(self):
        from repro.resilience.checkpoint import decode_run_payload
        payload = self._v2()
        assert decode_run_payload(payload) == payload

    def test_v2_payload_without_quarantine_key_upgrades(self):
        # the encoder no longer writes the retired quarantine snapshot,
        # and decoding does not put one back
        from repro.resilience.checkpoint import decode_run_payload
        payload = self._v2()
        assert "quarantine" not in payload
        assert "quarantine" not in decode_run_payload(payload)

    def test_v2_payload_with_quarantine_key_decodes(self):
        # v2 payloads written while the kernel still had a poison-segment
        # quarantine carry its snapshot and a quarantined_paths counter;
        # both are dropped, the rest decodes unchanged
        from repro.resilience.checkpoint import decode_run_payload
        current = self._v2()
        snap = {"threshold": 2, "records": [{"key": "k", "failures": 2,
                                            "quarantined": True}]}
        older = self._v2(quarantine=snap, counters=dict(
            current["counters"], quarantined_paths=0))
        assert decode_run_payload(older) == current

    def test_unsupported_codec_raises(self):
        from repro.resilience.checkpoint import decode_run_payload
        with pytest.raises(CheckpointError, match="codec v99"):
            decode_run_payload(self._v2(codec=99))

    def test_legacy_serial_payload_upgrades(self):
        from repro.resilience.checkpoint import decode_run_payload
        legacy = {
            "engine": "serial", "design": "d", "application": "a",
            "stack": [(b"blob", 1, 2, 0)],
            "csm": {"repo": []},
            "activity": {"toggled": [True]},
            "counters": {"paths_created": 3},
            "path_records": ["r1", "r2"],
            "per_path_exercised": [], "journal": [],
        }
        out = decode_run_payload(legacy)
        assert out["frontier"] == [(b"blob", 1, 2, 0, None)]
        assert out["strategy"] == "dfs"
        assert out["activity"]["repr"] == "sim"
        # pre-codec serial runs checkpointed once per segment
        assert out["counters"]["batches_done"] == 2

    def test_legacy_parallel_payload_keeps_its_engine_tag(self):
        # the worker-pool engine is gone: its pre-codec journal decodes
        # to the bare engine tag, which the kernel rejects on resume
        from repro.resilience.checkpoint import (RUN_PAYLOAD_CODEC,
                                                 decode_run_payload)
        legacy = {
            "engine": "parallel", "design": "d", "application": "a",
            "pending": [(b"blob", 0)],
            "waves_done": 4,
            "csm": {"repo": []},
            "profile": {"toggled": [True], "ever_x": [False],
                        "const_val": [False], "const_known": [True]},
            "counters": {"paths_created": 9},
            "path_records": [], "journal": [],
        }
        assert decode_run_payload(legacy) == {
            "codec": RUN_PAYLOAD_CODEC, "engine": "parallel",
            "design": "d", "application": "a"}
