"""Bag-of-words topic modeling on top of the doubly stochastic solver.

A corpus is tokenized into a document-term count matrix, row-normalized
into term frequencies, and factorized with both factors row-stochastic:
W holds per-document topic mixtures and H holds per-topic term
distributions.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .factors import FactorPair, Orientation
from .linalg import _frozen, row_normalize
from .solver import SolveResult, SolverConfig, factorize

__all__ = [
    "Corpus",
    "TopicModel",
    "build_corpus",
    "fit_topics",
    "read_corpus",
    "top_terms",
    "topic_histogram",
    "write_corpus",
    "write_histogram_csv",
    "write_top_terms_csv",
]

DEFAULT_MIN_DOC_FRACTION = 0.005

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


@dataclass(frozen=True)
class Corpus:
    """Tokenized corpus: vocabulary, doc-term counts, and document labels."""

    vocabulary: tuple
    doc_term: np.ndarray
    doc_ids: tuple

    def __post_init__(self):
        m = _frozen(self.doc_term)
        if m.ndim != 2 or m.size == 0:
            raise ValueError("doc_term must be a non-empty 2-dimensional array")
        if m.shape != (len(self.doc_ids), len(self.vocabulary)):
            raise ValueError(
                f"doc_term shape {m.shape} does not match "
                f"{len(self.doc_ids)} documents x {len(self.vocabulary)} terms"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("doc_term must be finite")
        if m.min() < 0 or np.any(m != np.rint(m)):
            raise ValueError("doc_term must hold non-negative integer counts")
        if np.any(m.sum(axis=1) == 0):
            raise ValueError("every document must retain at least one term")
        object.__setattr__(self, "doc_term", m)
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))

    @property
    def n_documents(self) -> int:
        return self.doc_term.shape[0]

    @property
    def n_terms(self) -> int:
        return self.doc_term.shape[1]


def _term_counts(text: str, stop) -> dict:
    # Occurrences of each lowercased word-character run that is purely
    # alphabetic and not a stop word.
    runs = Counter(_TOKEN_RE.findall(text.lower()))
    return {t: n for t, n in runs.items() if t.isalpha() and t not in stop}


def build_corpus(documents, *, stop_words=(),
                 min_doc_fraction: float = DEFAULT_MIN_DOC_FRACTION,
                 doc_ids=None) -> Corpus:
    """Tokenize raw documents into a pruned document-term count matrix.

    Tokens are lowercased word characters; tokens containing digits or
    other non-alphabetic characters are dropped, as are stop words.  Terms
    appearing in fewer than ``min_doc_fraction`` of the documents are
    pruned, then documents left without any retained term are dropped.  The
    vocabulary is sorted alphabetically.
    """
    docs = list(documents)
    if not docs:
        raise ValueError("corpus needs at least one document")
    if not (0.0 <= min_doc_fraction <= 1.0):
        raise ValueError("min_doc_fraction must lie in [0, 1]")
    if doc_ids is None:
        doc_ids = [str(i) for i in range(len(docs))]
    else:
        doc_ids = [str(d) for d in doc_ids]
        if len(doc_ids) != len(docs):
            raise ValueError("doc_ids length must match the document count")
    stop = {w.lower() for w in stop_words}

    doc_counts = [_term_counts(d, stop) for d in docs]
    doc_freq = Counter()
    for terms in doc_counts:
        doc_freq.update(terms.keys())
    min_docs = max(1, math.ceil(min_doc_fraction * len(docs)))
    vocab = sorted(t for t, df in doc_freq.items() if df >= min_docs)
    if not vocab:
        raise ValueError("no terms survive pruning; lower min_doc_fraction")
    index = {t: j for j, t in enumerate(vocab)}

    # One bincount over the flat (document, term) cells, weighted by count.
    shape = (len(docs), len(vocab))
    cells, weights = [], []
    for i, terms in enumerate(doc_counts):
        for t, n in terms.items():
            if t in index:
                cells.append(i * shape[1] + index[t])
                weights.append(n)
    counts = np.bincount(np.array(cells, dtype=np.intp), weights=weights,
                         minlength=shape[0] * shape[1]).reshape(shape)
    keep = counts.sum(axis=1) > 0
    if not np.any(keep):
        raise ValueError("no document retains any term after pruning")
    return Corpus(
        vocabulary=tuple(vocab),
        doc_term=counts[keep],
        doc_ids=tuple(d for d, k in zip(doc_ids, keep) if k),
    )


def write_corpus(corpus: Corpus, matrix_path, vocab_path) -> None:
    """Write the doc-term counts as CSV plus a one-term-per-line sidecar."""
    from .matrixio import write_matrix_csv

    write_matrix_csv(matrix_path, corpus.doc_term)
    with open(vocab_path, "w", encoding="utf-8") as fh:
        for term in corpus.vocabulary:
            fh.write(term + "\n")


def read_corpus(matrix_path, vocab_path) -> Corpus:
    """Read a doc-term matrix (CSV or binary) and its vocabulary sidecar.

    Document labels are regenerated as 0-based row indices.
    """
    from .matrixio import read_matrix

    counts = read_matrix(matrix_path)
    vocab = _read_lines(vocab_path)
    if counts.shape[1] != len(vocab):
        raise ValueError(
            f"doc-term matrix has {counts.shape[1]} columns but the "
            f"vocabulary lists {len(vocab)} terms"
        )
    return Corpus(
        vocabulary=vocab,
        doc_term=counts,
        doc_ids=tuple(str(i) for i in range(counts.shape[0])),
    )


def _read_lines(path) -> tuple:
    # The stripped non-blank lines of a vocabulary sidecar or stop-word list.
    with open(path, encoding="utf-8") as fh:
        return tuple(line.strip() for line in fh if line.strip())


@dataclass(frozen=True)
class TopicModel:
    """Fitted topic model: doubly stochastic factors plus the vocabulary,
    and the solver's report (None for factors read from files)."""

    factors: FactorPair
    vocabulary: tuple
    solve_result: Optional[SolveResult] = None

    def __post_init__(self):
        if self.factors.orientation is not Orientation.BOTH:
            raise ValueError("topic models require orientation BOTH")
        if self.factors.h.shape[1] != len(self.vocabulary):
            raise ValueError("H column count must match the vocabulary size")
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))

    @property
    def n_topics(self) -> int:
        return self.factors.rank


def fit_topics(corpus: Corpus, config: SolverConfig, *, threads: int = 1) -> TopicModel:
    """Factorize row-normalized term frequencies into topics.

    The factors are the solver's: W, the per-document topic mixtures, is
    the simplex-projected rows of X pinv(H) for the returned H.  Its cost
    and memory are those of :func:`smf.solver.factorize`; ``threads`` is
    accepted and ignored.
    """
    if config.orientation is not Orientation.BOTH:
        raise ValueError("fit_topics requires config.orientation = BOTH")
    x = row_normalize(corpus.doc_term)
    result = factorize(x, config, threads=threads)
    return TopicModel(factors=result.factors, vocabulary=corpus.vocabulary,
                      solve_result=result)


def top_terms(model: TopicModel, k: int) -> list:
    """Per topic, the k most probable terms as (term, probability) pairs.

    Ties are broken toward the earlier vocabulary position.
    """
    if not (1 <= k <= len(model.vocabulary)):
        raise ValueError(f"k must lie in 1..{len(model.vocabulary)}")
    out = []
    for row in model.factors.h:
        order = np.argsort(-row, kind="stable")[:k]
        out.append([(model.vocabulary[j], float(row[j])) for j in order])
    return out


def topic_histogram(model: TopicModel) -> np.ndarray:
    """Count documents by their most probable topic (ties to the lowest)."""
    best = np.argmax(model.factors.w, axis=1)
    return np.bincount(best, minlength=model.n_topics)


def write_top_terms_csv(model: TopicModel, k: int, path) -> None:
    """Write top terms as CSV rows (topic, rank, term, probability)."""
    rows = top_terms(model, k)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("topic,rank,term,probability\n")
        for topic, pairs in enumerate(rows):
            for rank, (term, prob) in enumerate(pairs):
                fh.write(f"{topic},{rank},{term},{repr(prob)}\n")


def write_histogram_csv(model: TopicModel, path) -> None:
    """Write the most-probable-topic counts as CSV rows (topic, count)."""
    counts = topic_histogram(model)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("topic,count\n")
        for topic, count in enumerate(counts):
            fh.write(f"{topic},{int(count)}\n")
