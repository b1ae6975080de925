import io

import numpy as np
import pytest
import scipy.sparse as sp

from gdmtopics.corpus import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    load_uci_bag_of_words,
    load_vocab,
    normalize,
    save_uci_bag_of_words,
    split_holdout,
)

UCI_SMALL = "2\n3\n3\n1 1 2\n1 3 1\n2 2 4\n"


def test_load_small():
    c = load_uci_bag_of_words(io.StringIO(UCI_SMALL))
    assert c.M == 2 and c.V == 3
    assert c.counts.toarray().tolist() == [[2, 0, 1], [0, 4, 0]]
    assert c.lengths.tolist() == [3, 4]


def test_load_sums_duplicates():
    text = "2\n3\n4\n1 1 2\n1 3 1\n2 2 4\n2 2 1\n"
    c = load_uci_bag_of_words(io.StringIO(text))
    assert c.counts.toarray().tolist() == [[2, 0, 1], [0, 5, 0]]


def test_load_word_index_out_of_range():
    with pytest.raises(CorpusValidationError, match="word index 4"):
        load_uci_bag_of_words(io.StringIO("1\n3\n1\n1 4 1\n"))


def test_load_doc_index_out_of_range():
    with pytest.raises(CorpusValidationError, match="document index"):
        load_uci_bag_of_words(io.StringIO("1\n3\n1\n2 1 1\n"))


def test_load_nnz_mismatch():
    with pytest.raises(CorpusValidationError, match="NNZ"):
        load_uci_bag_of_words(io.StringIO("2\n3\n5\n1 1 2\n2 2 4\n"))


def test_load_header_sizes_no_allocation():
    # huge header values with one triple: a typed error or a warning, not a
    # multi-terabyte allocation
    with pytest.raises(CorpusValidationError, match="NNZ=1000000000000 but found 1"):
        load_uci_bag_of_words(io.StringIO("3\n4\n1000000000000\n1 1 2\n"))
    with pytest.warns(UserWarning, match="dropped 999999999999 empty"):
        c = load_uci_bag_of_words(io.StringIO("1000000000000\n4\n1\n1 1 2\n"))
    assert c.counts.toarray().tolist() == [[2, 0, 0, 0]]


def test_token_totals_past_int64_rejected():
    # each total is 5 * 2**62; int64 sums would wrap it silently to 2**62
    big = 2**62
    distinct = "1\n5\n5\n" + "".join(f"1 {w} {big}\n" for w in range(1, 6))
    duplicates = "1\n5\n5\n" + f"1 1 {big}\n" * 5
    for text in (distinct, duplicates):
        with pytest.raises(CorpusValidationError, match="document 0 has more than"):
            load_uci_bag_of_words(io.StringIO(text))
    with pytest.raises(CorpusValidationError, match="document 1 has more than"):
        Corpus(np.array([[1] * 5, [big] * 5]))
    # repeated entries of sparse input are summed only after the check (in COO
    # the four of document 1 would wrap to 0)
    coo = sp.coo_matrix(([big, 1, big, big, big], ([1, 0, 1, 1, 1], [0, 0, 0, 0, 0])), shape=(2, 2))
    for counts in (coo, sp.csr_matrix((coo.data[1:], coo.col[1:], [0, 1, 4]), shape=(2, 2))):
        with pytest.raises(CorpusValidationError, match="document 1 has more than"):
            Corpus(counts)
    # the largest representable total still loads exactly
    c = Corpus(np.array([[1, 2], [2**63 - 4, 3]]))
    assert c.lengths.tolist() == [3, 2**63 - 1]


def test_load_malformed_triple_reports_line():
    with pytest.raises(CorpusParseError, match="line 4"):
        load_uci_bag_of_words(io.StringIO("2\n3\n2\nnot a triple\n2 2 4\n"))


def test_load_malformed_header():
    with pytest.raises(CorpusParseError, match="line 2"):
        load_uci_bag_of_words(io.StringIO("2\nx\n2\n"))


def test_load_drops_empty_documents_with_warning():
    text = "3\n2\n2\n1 1 3\n3 2 1\n"  # document 2 never appears
    with pytest.warns(UserWarning, match="dropped 1 empty"):
        c = load_uci_bag_of_words(io.StringIO(text))
    assert c.M == 2
    assert c.counts.toarray().tolist() == [[3, 0], [0, 1]]


def test_load_vocab_length_checked():
    with pytest.raises(CorpusValidationError, match="vocabulary"):
        load_uci_bag_of_words(io.StringIO(UCI_SMALL), io.StringIO("a\nb\n"))
    c = load_uci_bag_of_words(io.StringIO(UCI_SMALL), io.StringIO("a\nb\nc\n"))
    assert c.vocab == ["a", "b", "c"]
    # trailing blank lines are dropped, inner ones are words
    assert load_vocab(io.StringIO("a\n\nc\n\n\n")) == ["a", "", "c"]
    c = load_uci_bag_of_words(io.StringIO(UCI_SMALL), io.StringIO("a\n\nc\n\n"))
    assert c.vocab == ["a", "", "c"]


def test_roundtrip_uci():
    c = load_uci_bag_of_words(io.StringIO(UCI_SMALL))
    buf = io.StringIO()
    save_uci_bag_of_words(c, buf)
    again = load_uci_bag_of_words(io.StringIO(buf.getvalue()))
    assert c == again


def test_roundtrip_random_corpora():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M, V = rng.integers(1, 8), rng.integers(2, 9)
        counts = rng.integers(0, 4, size=(M, V))
        counts[np.arange(M), rng.integers(0, V, size=M)] += 1  # no empty docs
        c = Corpus(counts)
        buf = io.StringIO()
        save_uci_bag_of_words(c, buf)
        assert load_uci_bag_of_words(io.StringIO(buf.getvalue())) == c


def test_normalize_definition():
    c = load_uci_bag_of_words(io.StringIO(UCI_SMALL))
    n = normalize(c)
    assert np.allclose(n.rows[0], [2 / 3, 0, 1 / 3])
    assert np.allclose(n.rows[1], [0, 1, 0])
    assert n.weights.tolist() == [3.0, 4.0]


def test_normalize_identical_documents():
    counts = np.tile([[1, 2, 3]], (4, 1))
    n = normalize(Corpus(counts))
    assert np.allclose(n.rows, n.rows[0])
    assert np.allclose(n.weights, 6.0)


def test_normalize_integer_recovery():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 9, size=(6, 5))
    counts[:, 0] += 1
    c = Corpus(counts)
    n = normalize(c)
    recovered = np.rint(n.rows * n.weights[:, None]).astype(int)
    assert np.array_equal(recovered, c.counts.toarray())


def test_split_partition_and_determinism():
    counts = np.eye(10, 4, dtype=int) + 1
    c = Corpus(counts)
    train, held = split_holdout(c, 3, seed=7)
    assert train.M == 7 and held.M == 3
    assert train.V == held.V == c.V
    combined = np.vstack([train.counts.toarray(), held.counts.toarray()])
    # partition: every original row appears exactly once across the two parts
    orig = c.counts.toarray()
    assert sorted(map(tuple, combined)) == sorted(map(tuple, orig))
    train2, held2 = split_holdout(c, 3, seed=7)
    assert train == train2 and held == held2


@pytest.mark.parametrize("n", [0, 10, 11])
def test_split_bounds(n):
    c = Corpus(np.ones((10, 3), dtype=int))
    with pytest.raises(ValueError):
        split_holdout(c, n, seed=0)


def test_empty_document_rejected_by_constructor():
    with pytest.raises(CorpusValidationError):
        Corpus(np.array([[1, 0], [0, 0]]))
