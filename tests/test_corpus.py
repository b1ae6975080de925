import io
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import gdmtopics
from gdmtopics import corpus as corpus_module
from gdmtopics.cli import main
from gdmtopics.corpus import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    NormalizedCorpus,
    load_uci_bag_of_words,
    load_vocab,
    normalize,
    save_uci_bag_of_words,
    split_holdout,
)
from gdmtopics.synth import LdaParams, generate_corpus
from oracles import count_matrices, dense_normalize, same_corpus, uci_text

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


def _spy_line_parser(monkeypatch):
    calls = []
    line_parser = corpus_module._parse_triples

    def spy(*args):
        calls.append(args)
        return line_parser(*args)

    monkeypatch.setattr(corpus_module, "_parse_triples", spy)
    return calls


def _spy_loadtxt(monkeypatch):
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return sources


# blank lines, CRLF, tabs, a plus sign, leading spaces and a duplicate
AWKWARD = "\n2\r\n5\r\n\r\n5\r\n\r\n1 1 2\r\n  1\t3\t+3\r\n\r\n2 2 4  \r\n1 4 1\r\n\t2 2 1\r\n"


def test_bulk_parse_matches_line_parser(tmp_path, monkeypatch):
    # the awkward text from its path: the bulk read, then the line parser
    # when the bulk read yields nothing, give the same corpus
    path = tmp_path / "docword.txt"
    path.write_bytes(AWKWARD.encode("ascii"))
    calls = _spy_line_parser(monkeypatch)
    bulk = load_uci_bag_of_words(path)
    assert not calls
    assert bulk.counts.toarray().tolist() == [[2, 0, 3, 1, 0], [0, 5, 0, 0, 0]]
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: np.zeros((0, 3), dtype=np.int64))
    assert same_corpus(load_uci_bag_of_words(path), bulk)
    assert len(calls) == 1


def test_path_is_read_in_chunks_as_the_stream_is_read(tmp_path, monkeypatch):
    # the awkward text, with documents out of order, loads from its path
    # through loadtxt's chunked reader of a str path, with no line parser
    lines = AWKWARD.split("\r\n")
    text = "\r\n".join(lines[:5] + lines[8:9] + lines[5:8] + lines[9:])
    path = tmp_path / "docword.txt"
    path.write_bytes(text.encode("ascii"))
    stream = load_uci_bag_of_words(io.StringIO(text))
    calls = _spy_line_parser(monkeypatch)
    sources = _spy_loadtxt(monkeypatch)
    assert same_corpus(load_uci_bag_of_words(path), stream)
    assert not calls
    assert sources == [str(path)]
    assert stream.counts.toarray().tolist() == [[2, 0, 3, 1, 0], [0, 5, 0, 0, 0]]


def test_line_parser_takes_what_the_bulk_parse_rejects(tmp_path, monkeypatch):
    path = tmp_path / "docword.txt"
    path.write_text("1\n2\n2\n1 1 1_000\n1 2 1\n", encoding="ascii")
    calls = _spy_line_parser(monkeypatch)
    sources = _spy_loadtxt(monkeypatch)
    c = load_uci_bag_of_words(path)
    assert sources == [str(path)]
    assert len(calls) == 1
    assert c.counts.toarray().tolist() == [[1000, 1]]


BAD_BODIES = [
    ("1 1 2\n# note\n2 2 4\n", CorpusParseError, "line 5: expected 'docID wordID count'"),
    ("1 1 2 # note\n2 2 4\n", CorpusParseError, "line 4: expected 'docID wordID count'"),
    (
        "1 1 2\n2 2 9223372036854775808\n",
        CorpusValidationError,
        "line 5: count 9223372036854775808 outside",
    ),
    ("1 1\n1 2 3 4\n", CorpusParseError, "line 4: expected 'docID wordID count', got '1 1'"),
    ("1 1 2\n\U0010373c 1 1\n", CorpusParseError, "line 5: non-integer triple"),
    ("1 1 2\n2 2 4\n\U0010373c 1 1\n", CorpusParseError, "line 6: non-integer triple"),
]


@pytest.mark.parametrize("body, error, message", BAD_BODIES)
def test_bulk_parse_errors_name_the_line(body, error, message):
    with pytest.raises(error, match=message):
        load_uci_bag_of_words(io.StringIO("2\n3\n2\n" + body))


@pytest.mark.parametrize("body, error, message", BAD_BODIES)
def test_bulk_parse_errors_name_the_line_of_a_path(tmp_path, body, error, message):
    # the chunked read of a path falls back to the same line parser
    path = tmp_path / "docword.txt"
    path.write_text("2\n3\n2\n" + body, encoding="utf-8")
    with pytest.raises(error, match=message):
        load_uci_bag_of_words(path)


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_no_triples_emit_no_numpy_warning(tmp_path, kind):
    # loadtxt warns on a path whose body holds no data; the line parser's
    # error is all that reaches the caller
    cases = (
        ("1\n3\n0\n", "no documents"),
        ("1\n3\n2\n\n  \n", "header declares NNZ=2 but found 0 triples"),
        ("1\n3\n0\n1 1 1\n", "line 4: more than NNZ=0 triples"),
    )
    for text, message in cases:
        path = tmp_path / "docword.txt"
        path.write_text(text, encoding="ascii")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CorpusValidationError, match=message):
                load_uci_bag_of_words(path if kind == "path" else io.StringIO(text))
        assert [str(w.message) for w in caught if "dropped" not in str(w.message)] == []


def test_load_header_sizes_no_allocation():
    # huge header values with one triple: a typed error or a warning, not a
    # multi-terabyte allocation
    with pytest.raises(CorpusValidationError, match="NNZ=1000000000000 but found 1"):
        load_uci_bag_of_words(io.StringIO("3\n4\n1000000000000\n1 1 2\n"))
    with pytest.warns(UserWarning, match="dropped 999999999999 empty"):
        c = load_uci_bag_of_words(io.StringIO("1000000000000\n4\n1\n1 1 2\n"))
    assert c.counts.toarray().tolist() == [[2, 0, 0, 0]]


# loads a docword file, given as a path or as an io.StringIO of its text,
# and prints the CorpusParseError it raises
_LOAD_IN_CHILD = """
import io, sys
from gdmtopics.corpus import CorpusParseError, load_uci_bag_of_words
path, kind = sys.argv[1:]
source = path if kind == "path" else io.StringIO(open(path, encoding="utf-8").read())
try:
    load_uci_bag_of_words(source)
except CorpusParseError as exc:
    print(exc)
"""


@pytest.mark.parametrize("kind", ["path", "stream"])
@pytest.mark.parametrize("before", [0, 10, 3000], ids=["first-line", "first-8KiB", "past-8KiB"])
def test_non_ascii_line_is_a_parse_error_in_a_child(tmp_path, kind, before):
    # numpy 2.4's loadtxt crashed the interpreter on this code point, so the
    # load runs in a child process, where a crash fails the test; with
    # 6-byte lines the bad line is the first triple line, or lies inside or
    # past the first 8 KiB of text
    lines = ["1 1 1"] * before + ["\U0010373c 1 1", "1 2 1"]
    path = tmp_path / "docword.txt"
    path.write_text(f"1\n2\n{len(lines)}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(gdmtopics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_IN_CHILD, str(path), kind],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith(f"line {before + 4}: non-integer triple '\\U0010373c 1 1'")


# makes a FIFO, writes a docword text into it from a thread and loads the
# corpus from the FIFO's path
_LOAD_FIFO_IN_CHILD = """
import os, sys, threading
from gdmtopics.corpus import load_uci_bag_of_words
path, text = sys.argv[1:]
os.mkfifo(path)

def write():
    with open(path, "w", encoding="ascii") as f:
        f.write(text)

threading.Thread(target=write, daemon=True).start()
print(load_uci_bag_of_words(path).counts.toarray().tolist())
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_fifo_path_loads_in_a_child(tmp_path):
    # a second open of the FIFO would wait for a writer that never comes, so
    # it goes to the line parser; the load runs in a child process, where a hang
    # is a timeout
    text = "2\n3\n4\n2 2 4\n1 1 2\n1 3 1\n2 2 1\n"
    src = os.path.dirname(os.path.dirname(gdmtopics.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", _LOAD_FIFO_IN_CHILD, str(tmp_path / "docword.txt"), text],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    expected = load_uci_bag_of_words(io.StringIO(text)).counts.toarray().tolist()
    assert child.stdout.strip() == str(expected) == "[[2, 0, 1], [0, 5, 0]]"


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_a_compression_suffix_loads_as_text(tmp_path, suffix):
    # numpy would open these names through a decompressor
    plain, named = tmp_path / "docword.txt", tmp_path / f"docword.txt{suffix}"
    for path in (plain, named):
        path.write_text(UCI_SMALL, encoding="ascii")
    assert same_corpus(load_uci_bag_of_words(named), load_uci_bag_of_words(plain))


def test_relative_path_like_a_url_loads_its_own_file(tmp_path, monkeypatch):
    # numpy would read "gdm://x/docword.txt" as a URL, cached at x/docword.txt
    # under the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gdm:" / "x").mkdir(parents=True)
    (tmp_path / "x").mkdir()
    (tmp_path / "gdm:" / "x" / "docword.txt").write_text(UCI_SMALL, encoding="ascii")
    (tmp_path / "x" / "docword.txt").write_text("2\n3\n3\n1 2 1\n2 1 1\n2 3 1\n", encoding="ascii")
    sources = _spy_loadtxt(monkeypatch)
    c = load_uci_bag_of_words("gdm://x/docword.txt")
    assert sources == [os.path.join(str(tmp_path), "gdm://x/docword.txt")]
    assert same_corpus(c, load_uci_bag_of_words(io.StringIO(UCI_SMALL)))


def test_cli_fit_reads_the_docword_through_a_str_path(tmp_path, monkeypatch, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    params = LdaParams(K=2, V=8, M=20, doc_lengths=(30, 60), alpha=0.5, eta=0.5, seed=1)
    save_uci_bag_of_words(generate_corpus(params)[0], corpus_dir / "docword.txt")
    sources = _spy_loadtxt(monkeypatch)
    argv = ["fit", "--algo", "gdm", "--K", "2", "--in", str(corpus_dir), "--out", str(tmp_path / "m.json")]
    assert main(argv) == 0
    assert sources == [str(corpus_dir / "docword.txt")]


class _Pipe(io.StringIO):
    """A text stream that cannot seek."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def test_load_from_a_stream_that_cannot_seek(monkeypatch):
    # the line parser reads the body once, straight from the stream
    assert same_corpus(load_uci_bag_of_words(_Pipe(UCI_SMALL)), load_uci_bag_of_words(io.StringIO(UCI_SMALL)))
    calls = _spy_line_parser(monkeypatch)
    with pytest.raises(CorpusParseError, match="line 5: non-integer triple 'x 2 4'"):
        load_uci_bag_of_words(_Pipe("2\n3\n2\n1 1 2\nx 2 4\n"))
    assert len(calls) == 1


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
    with pytest.raises(CorpusParseError, match="line 3: missing header line"):
        load_uci_bag_of_words(io.StringIO("2\n3\n"))


def test_load_drops_empty_documents_with_warning():
    text = "3\n2\n2\n1 1 3\n3 2 1\n"  # document 2 never appears
    with pytest.warns(UserWarning, match="dropped 1 empty"):
        c = load_uci_bag_of_words(io.StringIO(text))
    assert c.M == 2
    assert c.counts.toarray().tolist() == [[3, 0], [0, 1]]


def test_load_vocab_reads_one_word_per_line():
    # the corpus layer reads no vocabulary; ``topics`` checks its length
    assert load_vocab(io.StringIO("a\nb\nc\n")) == ["a", "b", "c"]
    # trailing blank lines are dropped, inner ones are words
    assert load_vocab(io.StringIO("a\n\nc\n\n\n")) == ["a", "", "c"]


def test_roundtrip_uci():
    c = load_uci_bag_of_words(io.StringIO(UCI_SMALL))
    buf = io.StringIO()
    save_uci_bag_of_words(c, buf)
    again = load_uci_bag_of_words(io.StringIO(buf.getvalue()))
    assert same_corpus(c, again)


def test_roundtrip_random_corpora():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M, V = rng.integers(1, 8), rng.integers(2, 9)
        counts = rng.integers(0, 4, size=(M, V))
        counts[np.arange(M), rng.integers(0, V, size=M)] += 1  # no empty docs
        c = Corpus(counts)
        buf = io.StringIO()
        save_uci_bag_of_words(c, buf)
        assert same_corpus(load_uci_bag_of_words(io.StringIO(buf.getvalue())), c)


def test_save_writes_triples_in_document_word_order():
    # the writer relies on a Corpus holding canonical CSR: built from shuffled
    # COO with duplicates, loaded from shuffled lines, or split, it writes its
    # triples sorted by (document, word), one per stored count
    rng = np.random.default_rng(8)
    M, V, n = 12, 9, 80
    row, col = rng.integers(0, M, size=n), rng.integers(0, V, size=n)
    row[:M] = np.arange(M)  # no empty docs
    shuffled = Corpus(sp.coo_matrix((rng.integers(1, 4, size=n), (row, col)), shape=(M, V)))
    buf = io.StringIO()
    save_uci_bag_of_words(shuffled, buf)
    lines = buf.getvalue().splitlines()
    lines = lines[:3] + [lines[3 + i] for i in rng.permutation(len(lines) - 3)]
    loaded = load_uci_bag_of_words(io.StringIO("\n".join(lines) + "\n"))
    for c in (shuffled, loaded, *split_holdout(loaded, 5, 3)):
        buf = io.StringIO()
        save_uci_bag_of_words(c, buf)
        text = buf.getvalue().splitlines()
        assert text[:3] == [str(c.M), str(c.V), str(c.counts.nnz)]
        triples = [tuple(int(v) for v in line.split()) for line in text[3:]]
        dense = c.counts.toarray()
        expected = [(d + 1, w + 1, dense[d, w]) for d, w in zip(*np.nonzero(dense))]
        assert triples == expected


def _written(c, tmp_path):
    """The text ``save_uci_bag_of_words`` writes to a stream, after checking
    that it writes the same bytes to a path."""
    buf = io.StringIO()
    save_uci_bag_of_words(c, buf)
    path = tmp_path / "docword.txt"
    save_uci_bag_of_words(c, path)
    assert path.read_bytes() == buf.getvalue().encode("ascii")
    return buf.getvalue()


@settings(max_examples=60, deadline=None)
@given(counts=count_matrices())
def test_writer_matches_the_per_triple_oracle(tmp_path_factory, counts):
    c = Corpus(counts)
    assert _written(c, tmp_path_factory.mktemp("w")) == uci_text(c)


def test_writer_matches_the_oracle_on_the_largest_counts(tmp_path):
    top = 2**63 - 1
    c = Corpus(sp.csr_matrix(([top, 1, top - 1, 2**62], [1, 0, 2, 2], [0, 1, 3, 4]), shape=(3, 4)))
    text = _written(c, tmp_path)
    assert text == uci_text(c)
    assert text.splitlines()[3] == f"1 2 {top}"


@pytest.mark.parametrize("block", [1, 4, 7, 2**16])
def test_writer_matches_the_oracle_across_blocks(tmp_path, monkeypatch, block):
    # 21 triples: blocks of 4 leave a last block of one triple, blocks of 7
    # end on the last triple, and one block of 2**16 holds them all
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 3, size=(6, 5)) * (rng.random((6, 5)) < 0.7)
    counts[:, 0] += 1
    c = Corpus(counts)
    monkeypatch.setattr(corpus_module, "_WRITE_BLOCK", block)
    assert _written(c, tmp_path) == uci_text(c)


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


@settings(max_examples=200, deadline=None)
@given(counts=count_matrices())
def test_normalize_matches_dense_division_bitwise(counts):
    c = Corpus(counts)
    got, expected = normalize(c), dense_normalize(c)
    assert got.rows.tobytes() == expected.rows.tobytes()
    assert np.array_equal(got.weights, expected.weights)


@settings(max_examples=200, deadline=None)
@given(counts=count_matrices())
def test_csr_rows_from_the_pattern_equal_a_dense_scan(counts):
    # normalize's CSR rows, on the counts' own pattern, and the CSR that the
    # constructor makes of dense rows both equal a scan of the dense rows
    c = Corpus(counts)
    expected = sp.csr_matrix(dense_normalize(c).rows)
    for got in (normalize(c).csr, dense_normalize(c).csr):
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert got.data.tobytes() == expected.data.tobytes()
        assert got.has_sorted_indices and (got.data != 0.0).all()


@settings(max_examples=200, deadline=None)
@given(counts=count_matrices(), draw=st.data())
def test_csr_rows_in_any_order_equal_a_dense_scan(counts, draw):
    # a fit gathers CSR rows in canonical order (k-means, and DP-means before
    # densifying) and by cluster (tuning): in any order, repeats allowed, the
    # gather equals a scan of the dense rows in that order, and densifies to them
    data = normalize(Corpus(counts))
    order = draw.draw(st.lists(st.integers(0, data.M - 1), max_size=2 * data.M))
    order = np.array(order, dtype=np.intp)
    rows = data.rows[order]
    expected = sp.csr_matrix(rows, shape=(order.size, data.V))
    got = data.csr[order]
    assert got.shape == expected.shape
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert got.data.tobytes() == expected.data.tobytes()
    assert got.toarray().tobytes() == rows.tobytes()


def test_csr_rows_gather_in_one_step():
    # k-means' canonical-order copy is gathered in one step: no index
    # temporary is larger than the copy, and no second copy
    params = LdaParams(K=10, V=2000, M=300, doc_lengths=(200, 1800), alpha=0.1, eta=0.05, seed=0)
    data = normalize(generate_corpus(params)[0])
    order = np.random.default_rng(0).permutation(data.M)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        X = data.csr[order]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    copy = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    assert peak <= 1.75 * copy


def test_pattern_must_fit_the_rows():
    c = Corpus(np.array([[1, 0, 2], [0, 3, 0]]))
    data = normalize(c)
    # the CSR rows are stored on the counts' own indices and indptr, shared,
    # not copied, and the constructor takes no pattern of its own
    assert np.shares_memory(data.csr.indices, c.counts.indices)
    assert np.shares_memory(data.csr.indptr, c.counts.indptr)
    pattern = (c.counts.indptr, c.counts.indices)
    for name in ("pattern", "_pattern"):
        with pytest.raises(TypeError):
            NormalizedCorpus(rows=data.csr, weights=data.weights, **{name: pattern})


def test_normalize_allocates_only_its_output():
    # normalize allocates the values of its CSR rows (the indices and indptr
    # are the counts') and one row block for the row sums: a dense copy of
    # the rows or of the counts would be 20 times the CSR
    params = LdaParams(K=10, V=12419, M=200, doc_lengths=(200, 1800), alpha=0.1, eta=0.05, seed=0)
    c = generate_corpus(params)[0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = normalize(c)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    X = data.csr
    output = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes + data.weights.nbytes
    assert peak <= 1.2 * output + corpus_module._BLOCK_BYTES


def test_load_holds_only_the_triples_and_the_counts(tmp_path):
    # loadtxt reads the triples straight from the file and the CSR is built
    # from them in one step, so the peak is the int64 triples plus the
    # output counts: measured 1.00 times their sum on this nips_cli-shaped
    # file, where a text copy of the body and its StringIO took 2.7 times
    params = LdaParams(K=10, V=12419, M=320, doc_lengths=(200, 1800), alpha=0.1, eta=0.05, seed=0)
    path = tmp_path / "docword.txt"
    save_uci_bag_of_words(generate_corpus(params)[0], path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        c = load_uci_bag_of_words(path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    X = c.counts
    output = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes + c.lengths.nbytes
    assert peak <= 1.25 * (3 * 8 * X.nnz + output)


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
    assert same_corpus(train, train2) and same_corpus(held, held2)


@pytest.mark.parametrize("n", [0, 10, 11])
def test_split_bounds(n):
    c = Corpus(np.ones((10, 3), dtype=int))
    with pytest.raises(ValueError):
        split_holdout(c, n, seed=0)


def test_split_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        split_holdout(Corpus(np.ones((10, 3), dtype=int)), 2, -1)


def test_reprs_give_the_shape_and_stored_entries():
    corpus = Corpus(np.array([[1, 0, 2], [0, 3, 0]]))
    assert repr(corpus) == "Corpus(M=2, V=3, nnz=3)"
    assert repr(normalize(corpus)) == "NormalizedCorpus(M=2, V=3, nnz=3)"


@pytest.mark.parametrize("n_holdout, seed", [(2.5, 0), (True, 0), (2, 1.5), (2, np.float64(3.0))])
def test_split_takes_only_integers(n_holdout, seed):
    c = Corpus(np.ones((10, 3), dtype=int))
    with pytest.raises(ValueError, match="must be an integer"):
        split_holdout(c, n_holdout, seed)
    train, held = split_holdout(c, np.int64(2), np.uint8(4))
    assert (train.M, held.M) == (8, 2)


def test_float_counts_must_be_whole_numbers():
    bad = [[1.7, 2.2], [3.0, 0.9]]
    for counts in (np.array(bad), sp.csr_matrix(bad), sp.coo_matrix(bad), bad):
        with pytest.raises(CorpusValidationError, match="whole numbers"):
            Corpus(counts)
    for value in (np.nan, np.inf, 1e-300):
        with pytest.raises(CorpusValidationError, match="whole numbers"):
            Corpus(np.array([[1.0, value]]))
    whole = Corpus(np.array([[1.0, 0.0], [2.0, 3.0]]))
    assert same_corpus(whole, Corpus(np.array([[1, 0], [2, 3]])))
    assert same_corpus(Corpus(sp.csr_matrix(np.array([[4.0, 1.0]]))), Corpus(np.array([[4, 1]])))


def test_io_rejects_bytes():
    c = Corpus(np.array([[1, 2]]))
    for call in (load_vocab, load_uci_bag_of_words, lambda b: save_uci_bag_of_words(c, b)):
        for data in (b"1\n2\n", bytearray(b"1\n")):
            with pytest.raises(TypeError, match="expected text stream or path"):
                call(data)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_normalized_weights_must_be_positive_and_finite(bad):
    with pytest.raises(CorpusValidationError, match="weights must be positive and finite"):
        NormalizedCorpus(rows=np.eye(4), weights=[1.0, bad, 1.0, 1.0])


def test_non_canonical_csr_rows_are_canonicalized_on_a_copy():
    dense = np.array([[0.5, 0.0, 0.25, 0.25], [0.0, 0.75, 0.0, 0.25]])
    # row 0: column 2 stored twice, unsorted, a stored 0.0; row 1: a stored -0.0
    data = np.array([0.125, 0.5, 0.0, 0.25, 0.125, 0.25, -0.0, 0.75])
    indices = np.array([2, 0, 1, 3, 2, 3, 0, 1], dtype=np.int32)
    indptr = np.array([0, 5, 8], dtype=np.int32)
    rows = sp.csr_matrix((data, indices, indptr), shape=dense.shape)
    given = [a.copy() for a in (rows.data, rows.indices, rows.indptr)]
    assert not rows.has_canonical_format
    got = NormalizedCorpus(rows=rows, weights=[4.0, 4.0]).csr
    expected = NormalizedCorpus(rows=dense, weights=[4.0, 4.0]).csr
    assert got.has_canonical_format and got.data.all()
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
    # the caller's matrix is neither reordered nor written
    for before, after in zip(given, (rows.data, rows.indices, rows.indptr)):
        assert before.tobytes() == after.tobytes()
    assert rows.data.flags.writeable and not rows.has_canonical_format


def test_normalized_corpus_copies_the_weights():
    w = np.array([2.0, 5.0])
    data = NormalizedCorpus(rows=np.eye(2), weights=w)
    assert data.weights is not w and not data.weights.flags.writeable
    w[0] = 3.0
    assert w.flags.writeable
    assert data.weights.tolist() == [2.0, 5.0]


def test_empty_document_rejected_by_constructor():
    with pytest.raises(CorpusValidationError):
        Corpus(np.array([[1, 0], [0, 0]]))


def test_negative_counts_rejected_by_constructor():
    for counts in (np.array([[2, -1]]), sp.csr_matrix([[2, -1]])):
        with pytest.raises(CorpusValidationError, match="word counts must be positive"):
            Corpus(counts)


@pytest.mark.parametrize(
    "rows, weights, message",
    [
        (np.array([0.5, 0.5]), [1.0], "rows must be M x V with M weights"),
        (np.eye(2), [1.0, 1.0, 1.0], "rows must be M x V with M weights"),
        (sp.csr_matrix(np.eye(2)), [1.0], "rows must be M x V with M weights"),
        (np.array([[0.5, 0.4]]), [1.0], "normalized rows must sum to 1"),
        (np.array([[1.5, -0.5]]), [1.0], r"normalized entries must lie in \[0, 1\]"),
        (sp.csr_matrix([[1.5, -0.5]]), [1.0], r"normalized entries must lie in \[0, 1\]"),
    ],
    ids=["one-dimensional", "extra-weight", "sparse-missing-weight", "sum", "negative", "sparse-negative"],
)
def test_normalized_corpus_rejects_malformed_rows(rows, weights, message):
    with pytest.raises(CorpusValidationError, match=message):
        NormalizedCorpus(rows=rows, weights=weights)


def test_normalized_corpus_is_immutable():
    data = normalize(Corpus(np.array([[1, 3]])))
    for name in ("csr", "weights", "rows", "other"):
        with pytest.raises(AttributeError, match=f"NormalizedCorpus is immutable; cannot set '{name}'"):
            setattr(data, name, None)
    assert data.csr.toarray().tolist() == [[0.25, 0.75]]


def test_corpus_is_immutable():
    c = Corpus(np.array([[1, 3], [2, 0]]))
    for name in ("counts", "lengths", "other"):
        with pytest.raises(AttributeError, match=f"Corpus is immutable; cannot set '{name}'"):
            setattr(c, name, None)
    for part in (c.counts.data, c.counts.indices, c.counts.indptr, c.lengths):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0
    assert c.counts.toarray().tolist() == [[1, 3], [2, 0]]
    assert c.lengths.tolist() == [4, 2]
