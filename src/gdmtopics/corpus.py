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
from contextlib import contextmanager
from numbers import Integral, Real

import numpy as np
import scipy.sparse as sp


_INT64_MAX = int(np.iinfo(np.int64).max)


class CorpusError(ValueError):
    pass


class CorpusParseError(CorpusError):
    """Malformed header or triple line; message carries the line number."""


class CorpusValidationError(CorpusError):
    """Structurally valid input violating declared ranges or totals."""


def check_integer(name, value, low=None):
    """``value`` as an int; raises ValueError unless it is an integer
    (``numbers.Integral``, not ``bool``) of at least ``low``, when given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return int(value)


def check_positive(name, value):
    """``value`` as a float; raises ValueError unless it is a real number
    (``numbers.Real``, not ``bool``) in (0, inf)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


class Corpus:
    """Sparse document-word count matrix with per-document lengths.

    Rows are documents, columns are vocabulary words. Stored counts are
    strictly positive (zeros are absent from the sparse structure) and every
    retained document has total length >= 1. The counts are held as
    canonical CSR (sorted indices, no duplicates) on a copy of the input,
    with read-only arrays. Immutable after construction.
    """

    __slots__ = ("counts", "lengths")

    def __init__(self, counts):
        # duplicate entries stay apart until the document totals are checked:
        # dense and CSR input convert as they are, other sparse input is
        # ordered by row here
        if sp.issparse(counts) and counts.format != "csr":
            coo = counts.tocoo()
            order = np.argsort(coo.row, kind="stable")
            indptr = np.searchsorted(coo.row[order], np.arange(coo.shape[0] + 1))
            counts = sp.csr_matrix((coo.data[order], coo.col[order], indptr), shape=coo.shape)
        # the cast to int64 truncates, so float counts must be whole numbers
        values = counts.data if sp.issparse(counts) else np.asarray(counts)
        if values.dtype.kind == "f" and not (np.isfinite(values) & (values == np.trunc(values))).all():
            raise CorpusValidationError("word counts must be whole numbers")
        counts = sp.csr_matrix(counts, dtype=np.int64, copy=True)
        counts.eliminate_zeros()
        if counts.nnz and counts.data.min() < 1:
            raise CorpusValidationError("word counts must be positive")
        if counts.shape[0] == 0:
            raise CorpusValidationError("corpus has no documents")
        # int64 sums wrap silently, so a document whose entry count times the
        # largest count reaches 2**62 has its total redone in Python ints
        if counts.nnz:
            reach = np.diff(counts.indptr) * float(counts.data.max())
            for m in np.flatnonzero(reach >= 2.0**62):
                row = counts.data[counts.indptr[m] : counts.indptr[m + 1]]
                if sum(row.tolist()) > _INT64_MAX:
                    raise CorpusValidationError(f"document {m} has more than {_INT64_MAX} tokens")
        counts.sum_duplicates()  # indices come out sorted
        lengths = np.asarray(counts.sum(axis=1)).ravel().astype(np.int64)
        if (lengths < 1).any():
            bad = int(np.flatnonzero(lengths < 1)[0])
            raise CorpusValidationError(f"document {bad} has zero total count")
        for part in (counts.data, counts.indices, counts.indptr, lengths):
            part.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "lengths", lengths)

    def __setattr__(self, name, value):
        raise AttributeError(f"Corpus is immutable; cannot set {name!r}")

    @property
    def M(self):
        return self.counts.shape[0]

    @property
    def V(self):
        return self.counts.shape[1]

    def __repr__(self):
        return f"Corpus(M={self.M}, V={self.V}, nnz={self.counts.nnz})"


class NormalizedCorpus:
    """Row-normalized documents with their lengths as weights.

    Row m is the empirical word distribution of document m and
    ``weights[m]`` its token count, i.e. the diagonal of the weight matrix
    used by the weighted clustering and geometric objectives. The rows are
    held as ``csr``, a CSR matrix with sorted indices and no stored zeros;
    ``rows`` gives a new dense copy. Dense input is converted once, and
    zeros of either sign are not stored. A float64 CSR ``rows`` in that
    form is adopted, not copied, and its values made read-only: the caller
    must not write its arrays afterwards. The weights are copied.
    Validation reads only the stored values. Immutable after construction.
    """

    __slots__ = ("csr", "weights")

    def __init__(self, rows, weights):
        if sp.issparse(rows):
            csr = sp.csr_matrix(rows, dtype=np.float64)
            if not csr.has_canonical_format or not csr.data.all():
                csr = csr.copy()
                csr.sum_duplicates()
                csr.eliminate_zeros()
        else:
            rows = np.asarray(rows, dtype=np.float64)
            if rows.ndim != 2:
                raise CorpusValidationError("rows must be M x V with M weights")
            csr = sp.csr_matrix(rows)
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != (csr.shape[0],):
            raise CorpusValidationError("rows must be M x V with M weights")
        sums = np.asarray(csr.sum(axis=1)).ravel()
        if not np.allclose(sums, 1.0, rtol=0.0, atol=1e-12):
            raise CorpusValidationError("normalized rows must sum to 1")
        # a nonnegative row with an entry above 1 + 1e-12 has failed the sum check
        if csr.data.min(initial=0.0) < 0.0:
            raise CorpusValidationError("normalized entries must lie in [0, 1]")
        if not ((weights > 0) & (weights < np.inf)).all():  # NaN fails both
            raise CorpusValidationError("weights must be positive and finite")
        csr.data.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "csr", csr)
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError(f"NormalizedCorpus is immutable; cannot set {name!r}")

    @property
    def rows(self) -> np.ndarray:
        """A new dense M x V copy of the rows."""
        return self.csr.toarray()

    @property
    def M(self):
        return self.csr.shape[0]

    @property
    def V(self):
        return self.csr.shape[1]

    def __len__(self):
        return self.M

    def __repr__(self):
        return f"NormalizedCorpus(M={self.M}, V={self.V}, nnz={self.csr.nnz})"


# bytes of the one buffer a row-by-row M x V pass works in: 42 rows at
# V = 12419; much smaller blocks go to other BLAS kernels, which round
# differently (a one-row block is a gemv)
_BLOCK_BYTES = 4 * 2**20


def _row_blocks(X):
    """Yield ``(block, rows)`` for consecutive row slices ``block`` covering
    the CSR matrix ``X``, with ``rows`` the block's rows densified into one
    float64 scratch buffer of at most ``_BLOCK_BYTES`` (but at least one
    row), allocated once and reused, so that a pass over the rows never
    holds an M x V array. The caller may overwrite ``rows``.

    Its two callers, ``normalize``'s row sums and the dense branch of the
    projection's cross terms (``geometry._cross_terms``, where at least
    ``geometry._SPARSE_SHARE`` of the entries are stored), densify the rows
    so that their sums and products round as over the dense rows.
    """
    M, V = X.shape
    step = max(1, min(M, _BLOCK_BYTES // (8 * max(V, 1))))
    buf = np.empty((step, V))
    for start in range(0, M, step):
        block = slice(start, min(start + step, M))
        rows = buf[: block.stop - start]
        rows.fill(0.0)
        # flat positions of the stored entries; a block holds fewer than 2**31 values
        entries = slice(X.indptr[start], X.indptr[block.stop])
        per_row = np.diff(X.indptr[start : block.stop + 1])
        at = np.repeat(np.arange(0, rows.size, V, dtype=np.int32), per_row)
        at += X.indices[entries]
        np.add.at(rows.ravel(), at, X.data[entries])
        yield block, rows


def _sq_norms(X):
    """Squared norms of the CSR rows ``X``, each summed over its stored
    values in stored order."""
    squares = sp.csr_matrix((np.square(X.data), X.indices, X.indptr), shape=X.shape)
    return squares @ np.ones(X.shape[1])


def normalize(corpus: Corpus) -> NormalizedCorpus:
    """Divide each count row by its document length.

    The division runs on the stored counts, and the result holds its rows
    as CSR over the counts' own ``indices`` and ``indptr``, so the one
    nnz-sized array allocated is the values. Each row is then divided by
    its sum, taken over dense row blocks so that it is summed as the dense
    row would be, to kill rounding residue (row sums hit 1.0 within 1e-12).
    """
    counts = corpus.counts
    per_row = np.diff(counts.indptr)
    values = counts.data / np.repeat(corpus.lengths, per_row)
    shares = sp.csr_matrix((values, counts.indices, counts.indptr), shape=counts.shape)
    sums = np.concatenate([rows.sum(axis=1) for _, rows in _row_blocks(shares)])
    shares.data /= np.repeat(sums, per_row)
    return NormalizedCorpus(rows=shares, weights=corpus.lengths.astype(np.float64))


@contextmanager
def _text_stream(stream_or_path, mode="r"):
    """A path opened in ``mode`` (UTF-8) and closed on exit, or a text stream
    as it is; bytes raise TypeError."""
    if isinstance(stream_or_path, (bytes, bytearray)):
        raise TypeError("expected text stream or path")
    if isinstance(stream_or_path, (str, os.PathLike)):
        with open(stream_or_path, mode, encoding="utf-8") as f:
            yield f
    else:
        yield stream_or_path


def load_vocab(stream_or_path) -> list:
    """Read a vocabulary file, one word per line; trailing blank lines are dropped."""
    with _text_stream(stream_or_path) as f:
        vocab = [line.rstrip("\n") for line in f]
    while vocab and vocab[-1] == "":
        vocab.pop()
    return vocab


def _triples_in_range(triples, D, W, NNZ) -> bool:
    """Whether bulk-parsed triples are NNZ in-range ``docID wordID count`` rows."""
    if triples.shape != (NNZ, 3):
        return False
    d, w, c = triples.T
    return bool(d.min() >= 1 and d.max() <= D and w.min() >= 1 and w.max() <= W and c.min() >= 1)


def _parse_triples(lines, lineno: int, D: int, W: int, NNZ: int) -> np.ndarray:
    """Parse the triple lines one by one, raising at the first bad line.

    ``lines`` is an iterable of text lines, such as an open file past its
    header, and ``lineno`` the number of the line before the first of them.
    Returns an NNZ x 3 int64 array of 1-based (doc, word, count).
    """
    triples = array("q")
    n = 0
    for line in lines:
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
        triples.extend((d, w, c))
        n += 1
    if n != NNZ:
        raise CorpusValidationError(f"header declares NNZ={NNZ} but found {n} triples")
    return np.frombuffer(triples, dtype=np.int64).reshape(n, 3)


def _bulk_read_path(source, f):
    """``source`` as a ``str`` path for ``np.loadtxt`` to reopen, or None
    where that would not read the text ``f`` reads.

    Only from a ``str`` path does numpy read in C, in large chunks. The
    path is taken only when the open file can seek, so not from a FIFO, on
    which the second open would wait for a writer forever, and not when its
    suffix is one that numpy's ``_datasource`` opens through a decompressor
    (the file here is plain text). A relative path is joined to the working
    directory, because ``_datasource`` reads a ``scheme://`` path as a URL.
    """
    if not isinstance(source, (str, os.PathLike)) or not f.seekable():
        return None
    path = os.fspath(source)
    if not isinstance(path, str) or os.path.splitext(path)[1] in (".gz", ".bz2", ".xz", ".lzma"):
        return None
    return path if os.path.isabs(path) else os.path.join(os.getcwd(), path)


def load_uci_bag_of_words(docword_stream) -> Corpus:
    """Parse a UCI bag-of-words file into a Corpus.

    A path that ``_bulk_read_path`` accepts is handed to ``np.loadtxt`` as
    a ``str``, which it reopens and reads in large chunks in C, past the
    header lines (ASCII only; any other byte fails the read). Everything
    else, a stream, a FIFO or a name with a compression suffix, and any
    bulk read that fails or gives triples out of range, goes to the line
    parser, which reads on from where the header read stopped, one line at
    a time in Python, an order of magnitude slower, and names the first bad
    line. Neither route copies the text. The counts are built as CSR from
    the triples in one step, sorted by document only when out of document
    order.

    Duplicate (doc, word) triples are summed. Documents declared in the
    header but carrying no tokens are dropped with a warning and M reduced;
    the header values bound the indices but size no allocation.
    Raises CorpusParseError for malformed lines (with line number) and
    CorpusValidationError for out-of-range values or an NNZ mismatch.
    """
    with _text_stream(docword_stream) as f:
        header = []
        lineno = 0
        while len(header) < 3:
            line = f.readline()
            if not line:
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
        path = _bulk_read_path(docword_stream, f)
        triples = None
        if NNZ and path is not None:
            # numpy reopens the file, so ``f`` stays past the header; a byte
            # outside ASCII raises UnicodeDecodeError, a ValueError, and an
            # OSError means numpy could not reopen the file. A body without
            # data makes loadtxt warn, and the line parser then names the
            # NNZ mismatch
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                try:
                    triples = np.loadtxt(
                        path, dtype=np.int64, ndmin=2, comments=None, skiprows=lineno, encoding="ascii"
                    )
                except (ValueError, OSError):
                    pass
        if triples is None or not _triples_in_range(triples, D, W, NNZ):
            # the line parser accepts all loadtxt does and more (``1_000``), and
            # names the line of the first error
            triples = _parse_triples(f, lineno, D, W, NNZ)

    docs = triples[:, 0]
    if (docs[1:] < docs[:-1]).any():
        triples = triples[np.argsort(docs, kind="stable")]
        docs = triples[:, 0]
    # rows are the documents that appear, in index order; a row starts at
    # each change of document
    n = docs.size
    starts = np.flatnonzero(docs[1:] != docs[:-1]) + 1
    indptr = np.concatenate(([0], starts, [n])) if n else np.zeros(1, dtype=np.int64)
    index = np.int32 if max(W, n) <= np.iinfo(np.int32).max else np.int64
    indices = triples[:, 1].astype(index)
    indices -= 1
    values = triples[:, 2].copy()
    del triples, docs
    counts = sp.csr_matrix((values, indices, indptr.astype(index)), shape=(indptr.size - 1, W))
    dropped = D - counts.shape[0]
    if dropped:
        warnings.warn(f"dropped {dropped} empty document(s) out of {D}", stacklevel=2)
    return Corpus(counts)


# triples formatted by one string operation and written at a time: at most
# a few MiB of Python ints and text at once
_WRITE_BLOCK = 2**16


def save_uci_bag_of_words(corpus: Corpus, stream_or_path) -> None:
    """Write a corpus in UCI bag-of-words format (1-based indices), in
    (document, word) order: the counts are canonical CSR.

    Paths and streams take the same route: the triples are formatted by one
    ``"%d %d %d\\n" * n`` per block of at most ``_WRITE_BLOCK`` of them, and
    written block by block."""
    counts = corpus.counts
    docs = np.repeat(np.arange(1, corpus.M + 1), np.diff(counts.indptr))
    with _text_stream(stream_or_path, "w") as f:
        f.write(f"{corpus.M}\n{corpus.V}\n{counts.nnz}\n")
        for start in range(0, counts.nnz, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            words = counts.indices[block].astype(np.int64) + 1
            triples = np.column_stack((docs[block], words, counts.data[block]))
            f.write("%d %d %d\n" * len(triples) % tuple(triples.ravel().tolist()))


def split_holdout(corpus: Corpus, n_holdout: int, seed: int):
    """Deterministically partition a corpus into (train, heldout).

    The split is a disjoint, exhaustive partition of the documents, both
    parts keeping all V columns; identical seeds give identical splits.
    """
    n_holdout, seed = check_integer("n_holdout", n_holdout), check_integer("seed", seed, 0)
    if not 0 < n_holdout < corpus.M:
        raise ValueError(f"n_holdout must be in (0, {corpus.M}), got {n_holdout}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(corpus.M)
    held = np.sort(perm[:n_holdout])
    train = np.sort(perm[n_holdout:])
    return Corpus(corpus.counts[train]), Corpus(corpus.counts[held])
