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

    @staticmethod
    def _rewrite(path, edit) -> None:
        """Replace the manifest line of the checkpoint at ``path`` by ``edit``'s
        return value for its parsed record."""
        import json
        blob = path.read_bytes()
        nl = blob.find(b"\n")
        path.write_bytes(json.dumps(edit(json.loads(blob[:nl]))).encode() + blob[nl:])

    def test_v1_checkpoint_is_refused_naming_the_format(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0)

        def v1(manifest):
            for meta in manifest["arrays"]:
                del meta["sha256"]
            return {**manifest, "format": "storyeval-checkpoint-v1"}

        self._rewrite(path, v1)
        with pytest.raises(DataError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
        assert "'storyeval-checkpoint-v1'" in str(exc.value)

    def test_flipped_array_byte_names_the_array(self, tmp_path):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0)
        blob = bytearray(path.read_bytes())
        names = sorted(params)
        # one byte in the second array's body: after the manifest line and
        # the first array
        at = blob.find(b"\n") + 1 + params[names[0]].data.nbytes + 3
        blob[at] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value) and f"param.{names[1]}" in str(exc.value)

    def test_inference_load_skips_the_optimizer_arrays(self, tmp_path):
        """A flipped byte in the last array, an optimizer moment, fails a
        full load, which training resumes with, naming it; a load without
        the optimizer neither checks nor decodes it."""
        config, params = _small_state()
        opt = AdamW(params)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0, optimizer=opt.state())
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError) as exc:
            load_checkpoint(path)
        assert f"opt.v.{sorted(params)[-1]}" in str(exc.value)
        ck = load_checkpoint(path, optimizer=False)
        assert ck.optimizer is None
        for name, p in params.items():
            np.testing.assert_array_equal(ck.params[name].data, p.data)

    @pytest.mark.parametrize("edit", [
        lambda m: {k: v for k, v in m.items() if k != "config"},
        lambda m: {**m, "config": {**m["config"], "colour": "blue"}},
        lambda m: [1],
        lambda m: {**m, "arrays": [5]},
    ], ids=["no_config", "unknown_config_key", "array", "array_entry_not_an_object"])
    def test_manifest_of_the_wrong_shape_is_data_error(self, tmp_path, edit):
        config, params = _small_state()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, config, seed=0)
        self._rewrite(path, edit)
        with pytest.raises(DataError) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
