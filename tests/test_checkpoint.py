import numpy as np
import pytest

from storyeval import checkpoint as ckpt_mod
from storyeval import rng as rng_mod
from storyeval.checkpoint import (
    Checkpoint,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from storyeval.errors import ConfigError, DataError
from storyeval.jsonl import atomic_write, write_json, write_jsonl
from storyeval.model import ModelConfig, init_params
from storyeval.optim import AdamW


def _small_state(seed=0):
    config = ModelConfig(vocab_size=40, d_model=16, n_enc_layers=1,
                         n_dec_layers=1, n_heads=2, window=4, max_len=16,
                         n_aspects=3, dropout=0.0)
    params = init_params(config, rng_mod.stream(seed, "ckpt_test"))
    return config, params


class TestAtomicWrites:
    """A writer that raises mid-write leaves the previous file byte for byte
    and no temporary file beside it."""

    @staticmethod
    def _unchanged(path, before):
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_checkpoint(self, tmp_path, monkeypatch):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0, step=1)
        before = path.read_bytes()
        calls, real_le = [], ckpt_mod._le

        def failing_le(arr):
            # the manifest takes one _le per array; fail on the third array written
            calls.append(1)
            if len(calls) == len(params) + 3:
                raise OSError("disk full")
            return real_le(arr)

        monkeypatch.setattr(ckpt_mod, "_le", failing_le)
        params["tok_emb"].data = params["tok_emb"].data + 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, params, config, seed=0, step=2)
        self._unchanged(path, before)

    def test_jsonl_and_json(self, tmp_path):
        def records():
            yield {"a": 1}
            raise RuntimeError("stopped")

        path = tmp_path / "r.jsonl"
        write_jsonl(path, [{"a": 0}, {"b": 0}])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="stopped"):
            write_jsonl(path, records())
        self._unchanged(path, before)
        path.unlink()
        path = tmp_path / "r.json"
        write_json(path, {"a": 0})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": object()})
        self._unchanged(path, before)

    def test_replaces_only_on_success(self, tmp_path):
        path = tmp_path / "x.bin"
        with atomic_write(path, binary=True) as fh:
            fh.write(b"old")
        with pytest.raises(KeyboardInterrupt), atomic_write(path, binary=True) as fh:
            fh.write(b"partial")
            fh.flush()
            raise KeyboardInterrupt
        self._unchanged(path, b"old")
        with atomic_write(path) as fh:
            fh.write("new")
        self._unchanged(path, b"new")


class TestRoundtrip:
    def test_params_survive(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=11, step=7)
        ck = load_checkpoint(path)
        assert ck.seed == 11 and ck.step == 7
        assert ck.config == config
        assert sorted(ck.params) == sorted(params)
        for name in params:
            np.testing.assert_array_equal(ck.params[name].data,
                                          params[name].data)
            assert ck.params[name].requires_grad

    def test_optimizer_state_survives(self, tmp_path):
        config, params = _small_state()
        opt = AdamW(params)
        for p in params.values():
            p.grad = np.ones_like(p.data) * 0.1
        opt.step(lr=1e-3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0, step=1,
                        optimizer=opt.state())
        ck = load_checkpoint(path)
        assert ck.optimizer["step_count"] == 1
        fresh = AdamW(ck.params)
        fresh.load_state(ck.optimizer)
        a, b = fresh.state(), opt.state()
        for name in params:
            np.testing.assert_array_equal(a["m"][name], b["m"][name])
            np.testing.assert_array_equal(a["v"][name], b["v"][name])

    def test_extra_metadata(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0,
                        extra={"best_val": 0.25, "vocab": "v.txt"})
        assert load_checkpoint(path).extra == {"best_val": 0.25,
                                               "vocab": "v.txt"}


class TestDeterminism:
    def test_same_state_same_bytes(self, tmp_path):
        config, params = _small_state()
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, config, seed=3, step=5)
        save_checkpoint(b, params, config, seed=3, step=5)
        assert a.read_bytes() == b.read_bytes()

    def test_hash_tracks_shape_only(self):
        config, _ = _small_state()
        same = ModelConfig(**{**config.__dict__})
        assert config_hash(config) == config_hash(same)
        bigger = ModelConfig(**{**config.__dict__, "d_model": 32})
        assert config_hash(config) != config_hash(bigger)


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "nope.ckpt"
        path.write_bytes(b"hello world\nmore")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_tampered_config_hash(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0)
        blob = path.read_bytes()
        nl = blob.find(b"\n")
        import json
        manifest = json.loads(blob[:nl])
        manifest["config"]["d_model"] = 999
        header = json.dumps(manifest, sort_keys=True,
                            separators=(",", ":")).encode()
        path.write_bytes(header + blob[nl:])
        with pytest.raises(ConfigError):
            load_checkpoint(path)
