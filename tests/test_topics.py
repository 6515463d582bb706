"""Unit tests for the bag-of-words topic pipeline."""

import numpy as np
import pytest

from smf import (
    Corpus,
    FactorPair,
    Mode,
    Orientation,
    SolverConfig,
    TopicModel,
    build_corpus,
    fit_topics,
    read_corpus,
    top_terms,
    topic_histogram,
    write_corpus,
    write_histogram_csv,
    write_top_terms_csv,
)
from smf.solver import SolveResult


def model_from_factors(w, h, vocabulary):
    factors = FactorPair(w=np.asarray(w, float), h=np.asarray(h, float),
                         orientation=Orientation.BOTH)
    result = SolveResult(factors=factors, objective=0.0, objective_trace=[0.0],
                         iterations=0, converged=True, best_restart=0,
                         max_violation=factors.max_violation(), feasible=True,
                         restart_objectives=[0.0])
    return TopicModel(factors=factors, vocabulary=tuple(vocabulary),
                      solve_result=result)


# ------------------------------------------------------------------ corpus


def test_build_corpus_basic_counts():
    corpus = build_corpus(["apple banana apple", "banana cherry"],
                          min_doc_fraction=0.0)
    assert corpus.vocabulary == ("apple", "banana", "cherry")
    assert np.array_equal(corpus.doc_term, [[2, 1, 0], [0, 1, 1]])
    assert corpus.doc_ids == ("0", "1")


def test_build_corpus_lowercases_and_drops_digit_tokens():
    corpus = build_corpus(["Apple APPLE apple42 7 x9y banana"],
                          min_doc_fraction=0.0)
    assert corpus.vocabulary == ("apple", "banana")
    assert np.array_equal(corpus.doc_term, [[2, 1]])


def test_build_corpus_applies_stop_words():
    corpus = build_corpus(["the apple and the banana"],
                          stop_words=("the", "AND"), min_doc_fraction=0.0)
    assert corpus.vocabulary == ("apple", "banana")


def test_build_corpus_prunes_rare_terms():
    docs = ["common rare"] + ["common word"] * 9
    # min_doc_fraction 0.2 over 10 docs requires 2 containing documents.
    corpus = build_corpus(docs, min_doc_fraction=0.2)
    assert "rare" not in corpus.vocabulary
    assert "common" in corpus.vocabulary


def test_build_corpus_prune_threshold_uses_ceiling():
    docs = ["alpha beta", "alpha gamma", "alpha delta"]
    # ceil(0.5 * 3) = 2 documents required; only alpha qualifies.
    corpus = build_corpus(docs, min_doc_fraction=0.5)
    assert corpus.vocabulary == ("alpha",)


def test_build_corpus_drops_emptied_documents():
    corpus = build_corpus(["apple banana", "12345 !!!", "banana"],
                          min_doc_fraction=0.0, doc_ids=["a", "b", "c"])
    assert corpus.doc_ids == ("a", "c")
    assert corpus.n_documents == 2


def reference_doc_term(documents, stop_words, min_docs):
    """Counts built one token at a time, with the tokenizer's rules
    restated: lowercased word runs, alphabetic only, stop words out."""
    import re

    stop = {w.lower() for w in stop_words}
    token_lists = [[t for t in re.findall(r"\w+", d.lower())
                    if t.isalpha() and t not in stop] for d in documents]
    vocab = sorted({t for toks in token_lists for t in toks
                    if sum(t in other for other in token_lists) >= min_docs})
    counts = np.zeros((len(documents), len(vocab)))
    for i, toks in enumerate(token_lists):
        for t in toks:
            if t in vocab:
                counts[i, vocab.index(t)] += 1.0
    keep = counts.sum(axis=1) > 0
    return tuple(vocab), counts[keep], keep


def test_build_corpus_counts_match_token_loop():
    rng = np.random.default_rng(43)
    words = ["apple", "Banana", "cherry", "café", "naïve", "Ärger", "straße",
             "the", "AND", "x9", "2016", "rare", "éclair", "zebra"]
    docs = [" ".join(rng.choice(words, size=int(rng.integers(0, 12))))
            for _ in range(60)]
    docs += ["the and 2016 x9", "only-rare-word qq", "zebra zebra zebra"]
    stop_words = ("the", "and")
    corpus = build_corpus(docs, stop_words=stop_words, min_doc_fraction=0.05)
    vocab, counts, keep = reference_doc_term(docs, stop_words, min_docs=4)
    assert corpus.vocabulary == vocab
    assert "café" in vocab and "ärger" in vocab
    assert "the" not in vocab and "qq" not in vocab
    # Some documents were left without a term and dropped.
    assert not keep.all()
    assert corpus.doc_ids == tuple(str(i) for i in np.flatnonzero(keep))
    assert corpus.doc_term.dtype == np.float64
    assert np.array_equal(corpus.doc_term, counts)


def test_build_corpus_validation():
    with pytest.raises(ValueError):
        build_corpus([])
    with pytest.raises(ValueError):
        build_corpus(["apple"], min_doc_fraction=1.5)
    with pytest.raises(ValueError):
        build_corpus(["apple", "banana"], doc_ids=["only-one"])
    with pytest.raises(ValueError, match="survive"):
        build_corpus(["123 456", "789"], min_doc_fraction=0.0)


def test_corpus_round_trip(tmp_path):
    corpus = build_corpus(["apple banana apple", "banana cherry"],
                          min_doc_fraction=0.0)
    write_corpus(corpus, tmp_path / "dt.csv", tmp_path / "vocab.txt")
    back = read_corpus(tmp_path / "dt.csv", tmp_path / "vocab.txt")
    assert back.vocabulary == corpus.vocabulary
    assert np.array_equal(back.doc_term, corpus.doc_term)
    text = (tmp_path / "vocab.txt").read_text(encoding="utf-8")
    assert text == "apple\nbanana\ncherry\n"


def test_read_corpus_checks_vocabulary_size(tmp_path):
    corpus = build_corpus(["apple banana"], min_doc_fraction=0.0)
    write_corpus(corpus, tmp_path / "dt.csv", tmp_path / "vocab.txt")
    (tmp_path / "vocab.txt").write_text("apple\n", encoding="utf-8")
    with pytest.raises(ValueError, match="vocabulary"):
        read_corpus(tmp_path / "dt.csv", tmp_path / "vocab.txt")


def test_corpus_validation():
    with pytest.raises(ValueError, match="integer"):
        Corpus(vocabulary=("a", "b"), doc_term=np.array([[0.5, 1.0]]),
               doc_ids=("0",))
    with pytest.raises(ValueError, match="integer"):
        Corpus(vocabulary=("a", "b"), doc_term=np.array([[-1.0, 1.0]]),
               doc_ids=("0",))
    with pytest.raises(ValueError, match="at least one term"):
        Corpus(vocabulary=("a", "b"), doc_term=np.array([[1.0, 0.0],
                                                         [0.0, 0.0]]),
               doc_ids=("0", "1"))
    with pytest.raises(ValueError, match="match"):
        Corpus(vocabulary=("a",), doc_term=np.array([[1.0, 2.0]]),
               doc_ids=("0",))


# --------------------------------------------------------------------- fit


def block_corpus(rng, docs_per_topic=40, terms_per_topic=4, n_topics=3):
    """Synthetic corpus whose documents each draw terms from one block."""
    vocab = []
    for b in range(n_topics):
        for t in range(terms_per_topic):
            vocab.append("w" + chr(97 + b) + chr(97 + t))
    rows = []
    for topic in range(n_topics):
        block = np.arange(topic * terms_per_topic, (topic + 1) * terms_per_topic)
        for _ in range(docs_per_topic):
            counts = np.zeros(len(vocab))
            counts[block] = rng.integers(1, 9, size=terms_per_topic)
            rows.append(counts)
    return Corpus(vocabulary=tuple(vocab), doc_term=np.array(rows),
                  doc_ids=tuple(str(i) for i in range(len(rows))))


def test_fit_topics_recovers_blocks():
    rng = np.random.default_rng(37)
    corpus = block_corpus(rng)
    cfg = SolverConfig(rank=3, orientation=Orientation.BOTH, restarts=3,
                       seed=0, mode=Mode.PROJECTED)
    model = fit_topics(corpus, cfg)
    # In projected mode the solver's W is already the simplex-projected W of
    # its H, and the model keeps it.
    assert model.factors is model.solve_result.factors
    h = model.factors.h
    w = model.factors.w
    assert np.allclose(h.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
    assert h.min() >= 0.0
    assert w.min() >= 0.0
    # each fitted topic concentrates on one 4-term block
    for r in range(3):
        order = np.argsort(-h[r])
        block = set(order[:4])
        assert block in ({0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11})
        assert h[r, order[:4]].sum() > 0.99
    hist = topic_histogram(model)
    assert sorted(hist.tolist()) == [40, 40, 40]


def test_corpus_copies_a_writeable_caller_array():
    counts = np.array([[1.0, 2.0], [3.0, 0.0]])
    corpus = Corpus(vocabulary=("a", "b"), doc_term=counts, doc_ids=("0", "1"))
    counts[0, 0] = 5.0
    assert counts.flags.writeable
    assert not corpus.doc_term.flags.writeable
    assert corpus.doc_term[0, 0] == 1.0


def test_fit_topics_requires_both_orientation():
    corpus = build_corpus(["apple banana", "banana cherry", "apple cherry"],
                          min_doc_fraction=0.0)
    cfg = SolverConfig(rank=2, orientation=Orientation.W_ROWS_SUM_TO_1)
    with pytest.raises(ValueError, match="BOTH"):
        fit_topics(corpus, cfg)


def test_topic_model_validation():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    with pytest.raises(ValueError, match="BOTH"):
        TopicModel(factors=FactorPair(w=w, h=h,
                                      orientation=Orientation.H_ROWS_SUM_TO_1),
                   vocabulary=("a", "b", "c"),
                   solve_result=None)
    with pytest.raises(ValueError, match="vocabulary"):
        model_from_factors(w, h, ("a", "b"))


# --------------------------------------------------------------- summaries


def summary_model():
    w = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [0.5, 0.5],
        [0.4, 0.6],
    ])
    h = np.array([
        [0.5, 0.3, 0.2, 0.0],
        [0.25, 0.25, 0.25, 0.25],
    ])
    return model_from_factors(w, h, ("ant", "bee", "cat", "dog"))


def test_top_terms_orders_by_probability():
    model = summary_model()
    out = top_terms(model, 2)
    assert out[0] == [("ant", 0.5), ("bee", 0.3)]
    # all of topic 1 is tied: stable order falls back to vocabulary position
    assert out[1] == [("ant", 0.25), ("bee", 0.25)]


def test_top_terms_full_length_sums_to_one():
    model = summary_model()
    out = top_terms(model, 4)
    for row in out:
        assert sum(p for _, p in row) == pytest.approx(1.0, abs=1e-12)


def test_top_terms_validates_k():
    model = summary_model()
    with pytest.raises(ValueError):
        top_terms(model, 0)
    with pytest.raises(ValueError):
        top_terms(model, 5)


def test_topic_histogram_counts_and_ties():
    model = summary_model()
    hist = topic_histogram(model)
    # rows: topic0, topic1, tie -> topic0, topic1
    assert np.array_equal(hist, [2, 2])
    assert hist.sum() == 4


def test_topic_histogram_includes_empty_topics():
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    h = summary_model().factors.h
    model = model_from_factors(w, h, ("ant", "bee", "cat", "dog"))
    assert np.array_equal(topic_histogram(model), [2, 0])


def test_write_top_terms_csv(tmp_path):
    model = summary_model()
    path = tmp_path / "top.csv"
    write_top_terms_csv(model, 2, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "topic,rank,term,probability"
    assert lines[1] == "0,0,ant,0.5"
    assert lines[2] == "0,1,bee,0.3"
    assert lines[3] == "1,0,ant,0.25"
    assert len(lines) == 5


def test_write_histogram_csv(tmp_path):
    model = summary_model()
    path = tmp_path / "hist.csv"
    write_histogram_csv(model, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["topic,count", "0,2", "1,2"]
