"""Bag-of-words corpora: UCI-format loading, validation, normalization, splits.

The on-disk format is the UCI "Bag of Words" layout: three integer header
lines (documents D, vocabulary size W, number of triples NNZ) followed by NNZ
lines of ``docID wordID count`` with 1-based indices. Indices are converted to
0-based here and nowhere else.
"""

from __future__ import annotations

import os
import warnings
from array import array
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


_INT64_MAX = int(np.iinfo(np.int64).max)


class CorpusError(ValueError):
    pass


class CorpusParseError(CorpusError):
    """Malformed header or triple line; message carries the line number."""


class CorpusValidationError(CorpusError):
    """Structurally valid input violating declared ranges or totals."""


class Corpus:
    """Sparse document-word count matrix with per-document lengths.

    Rows are documents, columns are vocabulary words. Stored counts are
    strictly positive (zeros are absent from the sparse structure) and every
    retained document has total length >= 1. Immutable after construction.
    """

    def __init__(self, counts, vocab=None):
        # COO keeps duplicate entries apart until the document totals are checked
        counts = sp.coo_matrix(counts, dtype=np.int64)
        counts.eliminate_zeros()
        if counts.nnz and counts.data.min() < 1:
            raise CorpusValidationError("word counts must be positive")
        if counts.shape[0] == 0:
            raise CorpusValidationError("corpus has no documents")
        # int64 sums wrap silently, so totals near the limit are redone in Python ints
        approx = np.bincount(counts.row, weights=counts.data, minlength=counts.shape[0])
        for m in np.flatnonzero(approx >= 2.0**62):
            if sum(counts.data[counts.row == m].tolist()) > _INT64_MAX:
                raise CorpusValidationError(f"document {m} has more than {_INT64_MAX} tokens")
        counts = counts.tocsr()  # sums duplicates; indices come out sorted
        lengths = np.asarray(counts.sum(axis=1)).ravel().astype(np.int64)
        if (lengths < 1).any():
            bad = int(np.flatnonzero(lengths < 1)[0])
            raise CorpusValidationError(f"document {bad} has zero total count")
        if vocab is not None:
            vocab = list(vocab)
            if len(vocab) != counts.shape[1]:
                raise CorpusValidationError(
                    f"vocabulary has {len(vocab)} entries but corpus has "
                    f"{counts.shape[1]} words"
                )
        self.counts = counts
        self.lengths = lengths
        self.vocab = vocab

    @property
    def M(self):
        return self.counts.shape[0]

    @property
    def V(self):
        return self.counts.shape[1]

    def subset(self, doc_indices):
        """New corpus restricted to the given document rows (vocab shared)."""
        idx = np.asarray(doc_indices, dtype=np.int64)
        return Corpus(self.counts[idx], vocab=self.vocab)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.counts.shape == other.counts.shape
            and (self.counts != other.counts).nnz == 0
            and self.vocab == other.vocab
        )

    def __repr__(self):
        return f"Corpus(M={self.M}, V={self.V}, nnz={self.counts.nnz})"


@dataclass(frozen=True)
class NormalizedCorpus:
    """Row-normalized documents with their lengths as weights.

    ``rows[m]`` is the empirical word distribution of document m and
    ``weights[m]`` its token count, i.e. the diagonal of the weight matrix
    used by the weighted clustering and geometric objectives.
    """

    rows: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if rows.ndim != 2 or weights.shape != (rows.shape[0],):
            raise CorpusValidationError("rows must be M x V with M weights")
        sums = rows.sum(axis=1)
        if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-12):
            raise CorpusValidationError("normalized rows must sum to 1")
        if rows.min(initial=0.0) < 0.0 or rows.max(initial=0.0) > 1.0 + 1e-12:
            raise CorpusValidationError("normalized entries must lie in [0, 1]")
        if (weights <= 0).any():
            raise CorpusValidationError("weights must be positive")
        rows.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)

    @property
    def M(self):
        return self.rows.shape[0]

    @property
    def V(self):
        return self.rows.shape[1]


def normalize(corpus: Corpus) -> NormalizedCorpus:
    """Divide each count row by its document length."""
    rows = corpus.counts.toarray() / corpus.lengths[:, None]
    # kill rounding residue so row sums hit 1.0 within 1e-12
    rows /= rows.sum(axis=1, keepdims=True)
    return NormalizedCorpus(rows=rows, weights=corpus.lengths.astype(np.float64))


def _line_source(stream_or_path):
    if isinstance(stream_or_path, (str, os.PathLike)):
        return open(stream_or_path, "r", encoding="utf-8")
    if isinstance(stream_or_path, (bytes, bytearray)):
        raise TypeError("expected text stream or path")
    return stream_or_path


def load_vocab(stream_or_path) -> list:
    """Read a vocabulary file, one word per line; trailing blank lines are dropped."""
    close_me = isinstance(stream_or_path, (str, os.PathLike))
    f = _line_source(stream_or_path)
    try:
        vocab = [line.rstrip("\n") for line in f]
    finally:
        if close_me:
            f.close()
    while vocab and vocab[-1] == "":
        vocab.pop()
    return vocab


def load_uci_bag_of_words(docword_stream, vocab_stream=None) -> Corpus:
    """Parse a UCI bag-of-words file (and optional vocabulary) into a Corpus.

    Duplicate (doc, word) triples are summed. Documents declared in the
    header but carrying no tokens are dropped with a warning and M reduced;
    the header values bound the indices but size no allocation.
    Raises CorpusParseError for malformed lines (with line number) and
    CorpusValidationError for out-of-range values or an NNZ mismatch.
    """
    close_me = isinstance(docword_stream, (str, os.PathLike))
    f = _line_source(docword_stream)
    try:
        header = []
        lineno = 0
        it = iter(f)
        while len(header) < 3:
            try:
                line = next(it)
            except StopIteration:
                raise CorpusParseError(f"line {lineno + 1}: missing header line")
            lineno += 1
            text = line.strip()
            if not text:
                continue
            try:
                header.append(int(text))
            except ValueError:
                raise CorpusParseError(f"line {lineno}: expected integer header, got {text!r}")
        D, W, NNZ = header
        if not (1 <= D <= _INT64_MAX and 1 <= W <= _INT64_MAX and NNZ >= 0):
            raise CorpusValidationError(f"invalid header D={D}, W={W}, NNZ={NNZ}")
        docs, words, vals = array("q"), array("q"), array("q")
        n = 0
        for line in it:
            lineno += 1
            text = line.strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise CorpusParseError(f"line {lineno}: expected 'docID wordID count', got {text!r}")
            try:
                d, w, c = (int(p) for p in parts)
            except ValueError:
                raise CorpusParseError(f"line {lineno}: non-integer triple {text!r}")
            if not 1 <= d <= D:
                raise CorpusValidationError(f"line {lineno}: document index {d} outside 1..{D}")
            if not 1 <= w <= W:
                raise CorpusValidationError(f"line {lineno}: word index {w} outside 1..{W}")
            if not 1 <= c <= _INT64_MAX:
                raise CorpusValidationError(f"line {lineno}: count {c} outside 1..{_INT64_MAX}")
            if n >= NNZ:
                raise CorpusValidationError(f"line {lineno}: more than NNZ={NNZ} triples")
            docs.append(d - 1)
            words.append(w - 1)
            vals.append(c)
            n += 1
        if n != NNZ:
            raise CorpusValidationError(f"header declares NNZ={NNZ} but found {n} triples")
    finally:
        if close_me:
            f.close()

    # rows are the documents that appear, in index order; every count is >= 1
    docs, words, vals = (np.frombuffer(a, dtype=np.int64) for a in (docs, words, vals))
    present, rows = np.unique(docs, return_inverse=True)
    counts = sp.coo_matrix((vals, (rows, words)), shape=(present.size, W), dtype=np.int64)
    dropped = D - present.size
    if dropped:
        warnings.warn(f"dropped {dropped} empty document(s) out of {D}", stacklevel=2)

    vocab = None
    if vocab_stream is not None:
        vocab = load_vocab(vocab_stream)
        if len(vocab) != W:
            raise CorpusValidationError(f"vocabulary has {len(vocab)} words, header declares {W}")
    return Corpus(counts, vocab=vocab)


def save_uci_bag_of_words(corpus: Corpus, stream_or_path) -> None:
    """Write a corpus in UCI bag-of-words format (1-based indices)."""
    close_me = isinstance(stream_or_path, (str, os.PathLike))
    f = open(stream_or_path, "w", encoding="utf-8") if close_me else stream_or_path
    try:
        coo = corpus.counts.tocoo()
        f.write(f"{corpus.M}\n{corpus.V}\n{coo.nnz}\n")
        order = np.lexsort((coo.col, coo.row))
        for d, w, c in zip(coo.row[order], coo.col[order], coo.data[order]):
            f.write(f"{d + 1} {w + 1} {c}\n")
    finally:
        if close_me:
            f.close()


def split_holdout(corpus: Corpus, n_holdout: int, seed: int):
    """Deterministically partition a corpus into (train, heldout).

    The split is a disjoint, exhaustive partition sharing the vocabulary;
    identical seeds give identical splits.
    """
    if not 0 < n_holdout < corpus.M:
        raise ValueError(f"n_holdout must be in (0, {corpus.M}), got {n_holdout}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(corpus.M)
    held = np.sort(perm[:n_holdout])
    train = np.sort(perm[n_holdout:])
    return corpus.subset(train), corpus.subset(held)
