"""Tokenizer and vocabulary contracts."""

import numpy as np
import pytest

from storyeval.errors import ContractViolation, DataError, EmptyTextError
from storyeval.vocab import (
    Vocabulary,
    aspect_token,
    build_vocab,
    pad_batch,
    tokenize,
    words,
)


@pytest.fixture
def vocab():
    texts = ["The cat sat on the mat.", "A dog ran through the park!"]
    return build_vocab(texts, size=40, n_aspects=3)


def test_reserved_tokens_come_first(vocab):
    assert vocab.tokens[:9] == [
        "[CLS]", "<sep>", "<pad>", "<bos>", "<eos>", "<unk>",
        "<aspect_0>", "<aspect_1>", "<aspect_2>",
    ]


def test_bijection(vocab):
    for i, t in enumerate(vocab.tokens):
        assert vocab.id_of(t) == i
        assert vocab.tokens[i] == t


def test_simple_segmentation(vocab):
    ids = tokenize("The cat.", vocab, max_len=16)
    back = [vocab.tokens[i] for i in ids]
    assert back == ["[CLS]", "the", "cat", "."]


def test_unknown_word_maps_to_unk(vocab):
    ids = tokenize("the zyzzyva sat", vocab, max_len=16)
    assert ids[2] == vocab.unk_id
    assert ids[1] == vocab.id_of("the")


def test_truncation_to_max_len(vocab):
    long_text = " ".join(["cat"] * 1000)
    ids = tokenize(long_text, vocab, max_len=512)
    assert len(ids) == 512
    assert ids[0] == vocab.cls_id


def test_empty_text_raises(vocab):
    with pytest.raises(EmptyTextError):
        tokenize("   \n\t ", vocab, max_len=16)


def test_contractions_stay_whole():
    assert words("Don't stop!") == ["don't", "stop", "!"]


def test_save_load_roundtrip(tmp_path, vocab):
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    assert loaded.n_aspects == 3


def test_reserved_order_enforced():
    with pytest.raises(ContractViolation):
        Vocabulary(["<sep>", "[CLS]", "<pad>", "<bos>", "<eos>", "<unk>"], n_aspects=0)


def test_file_without_reserved_tokens_is_data_error_naming_it(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("hello\nworld\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        Vocabulary.load(path)
    assert str(path) in str(exc.value)


def test_frequency_then_lexicographic_order():
    v = build_vocab(["b b a a c"], size=9, n_aspects=0)
    assert v.tokens[6:] == ["a", "b", "c"]


def test_pad_batch_shapes(vocab):
    seqs = [np.array([0, 7, 8]), np.array([0, 9])]
    ids, lengths = pad_batch(seqs, vocab.pad_id)
    assert ids.shape == (2, 3)
    assert lengths.tolist() == [3, 2]
    assert ids[1, 2] == vocab.pad_id


def test_comment_ids_truncate_and_map_unknown_words(vocab):
    ids = vocab.comment_ids("cat zebra sat mat")
    assert ids.dtype == np.int64
    assert ids.tolist() == [vocab.bos_id, vocab.id_of("cat"), vocab.unk_id,
                            vocab.id_of("sat"), vocab.id_of("mat"), vocab.eos_id]
    assert vocab.comment_ids("cat zebra sat mat", max_words=2).tolist() == \
        [vocab.bos_id, vocab.id_of("cat"), vocab.unk_id, vocab.eos_id]
    assert vocab.comment_ids("", max_words=3).tolist() == [vocab.bos_id, vocab.eos_id]


def test_comment_ids_split_like_the_vocabulary():
    vocab = build_vocab(["The ending felt rushed."], size=20, n_aspects=0)
    ids = vocab.comment_ids("The ending felt rushed.")
    assert [vocab.tokens[i] for i in ids] == \
        ["<bos>", "the", "ending", "felt", "rushed", ".", "<eos>"]
