"""Unit tests for the bag-of-words topic pipeline."""

import math
import re
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from smf.topics import _CHUNK_DOCS, _token_text


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
    # Frequent enough to be kept, but a word run with an underscore.
    docs += ["snake_case zebra"] * 4
    stop_words = ("the", "and")
    corpus = build_corpus(docs, stop_words=stop_words, min_doc_fraction=0.05)
    vocab, counts, keep = reference_doc_term(docs, stop_words, min_docs=4)
    assert corpus.vocabulary == vocab
    assert "café" in vocab and "ärger" in vocab
    assert "the" not in vocab and "qq" not in vocab and "snake_case" not in vocab
    # Some documents were left without a term and dropped.
    assert not keep.all()
    assert corpus.doc_ids == tuple(str(i) for i in np.flatnonzero(keep))
    assert corpus.doc_term.dtype == np.float64
    assert np.array_equal(corpus.doc_term, counts)


def assert_matches_token_loop(docs, stop_words=(), min_docs=1):
    corpus = build_corpus(docs, stop_words=stop_words, min_doc_fraction=0.0)
    vocab, counts, keep = reference_doc_term(docs, stop_words, min_docs)
    assert corpus.vocabulary == vocab
    assert corpus.doc_ids == tuple(str(i) for i in np.flatnonzero(keep))
    assert corpus.doc_term.tobytes() == counts.tobytes()
    return corpus


def test_ascii_token_pass_matches_the_regex():
    import re

    # Random strings over all 128 ASCII code points, then the lowercased
    # ASCII text of every line below: the translate pass, split on
    # whitespace, yields the regex's word runs element for element.
    rng = np.random.default_rng(7)
    strings = ["".join(map(chr, rng.integers(0, 128, int(rng.integers(0, 13)))))
               for _ in range(20000)]
    for text in strings + [chr(c) * 3 for c in range(128)] + ["\u212aelvin"]:
        lowered = text.lower()
        assert lowered.isascii()
        assert _token_text(lowered).split() == re.findall(r"\w+", lowered)


def test_build_corpus_ascii_pass_matches_token_loop():
    # Every ASCII code point between words and inside a word, with tabs
    # and carriage returns; U+001C-U+001F are whitespace to str.split but
    # not word characters.
    docs = [f"alpha{chr(c)}beta\tgamma{chr(c)}\r{chr(c)}delta Epsilon{chr(c)}"
            for c in range(128)]
    docs += ["x\x1cy\x1dz\x1ew\x1fv", "Tab\tsep\r\nline\x0bvt\x0cff"]
    corpus = assert_matches_token_loop(docs)
    assert {"alpha", "beta", "gamma", "delta", "epsilon"} <= set(corpus.vocabulary)
    # A letter or underscore between two words joins them into one run.
    assert "alphaabeta" in corpus.vocabulary
    assert "alpha_beta" not in corpus.vocabulary


def test_build_corpus_non_ascii_lines_match_token_loop():
    # The Kelvin sign lowercases to ASCII k and takes the ASCII pass; the
    # other lines keep a non-ASCII character and take the regex.
    lines = ["\u212aelvin alpha", "\u0130stanbul alpha", "caf\u00e9 alpha",
             "alpha\uff11 beta\uff11beta", "alpha\u0663 gamma\u0663gamma",
             "alpha\u00a0beta", "alpha\u2028beta", "alpha\x1cbeta\x1fgamma",
             "\u212a"]
    for line in lines:
        assert_matches_token_loop([line, "alpha beta gamma"])
    corpus = assert_matches_token_loop(lines + ["alpha beta gamma"])
    assert "kelvin" in corpus.vocabulary and "café" in corpus.vocabulary
    # A corpus mixing ASCII and non-ASCII lines, with stop words.
    rng = np.random.default_rng(11)
    words = ["alpha", "Beta", "caf\u00e9", "\u212aelvin", "\u0130stanbul",
             "x9", "na\u00efve", "the", "snake_case", "\uff11", "\u0663"]
    seps = [" ", "\t", "\u00a0", "\u2028", ", ", "\x1c", "-"]
    docs = ["".join(str(w) + str(rng.choice(seps))
                    for w in rng.choice(words, size=int(rng.integers(1, 9))))
            for _ in range(80)]
    assert any(d.lower().isascii() for d in docs)
    assert not all(d.lower().isascii() for d in docs)
    assert_matches_token_loop(docs, stop_words=("the",))


_REF_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_REF_ASCII_NONWORD = str.maketrans({chr(c): " " for c in range(128)
                                    if not (chr(c).isalnum() or chr(c) == "_")})


def _ref_tokens(lowered):
    if lowered.isascii():
        return lowered.translate(_REF_ASCII_NONWORD).split()
    return _REF_TOKEN_RE.findall(lowered)


def reference_build_corpus(documents, *, stop_words=(), min_doc_fraction=0.005,
                           doc_ids=None):
    """build_corpus as it was before chunked counting: a Counter per
    document, then the set union, chain flattening and token-id lookups."""
    docs = list(documents)
    if doc_ids is None:
        doc_ids = [str(i) for i in range(len(docs))]
    else:
        doc_ids = [str(d) for d in doc_ids]
    stop = {w.lower() for w in stop_words}
    runs = [Counter(_ref_tokens(d.lower())) for d in docs]
    tokens = list(set().union(*runs))
    token_id = {t: k for k, t in enumerate(tokens)}
    lengths = np.fromiter(map(len, runs), dtype=np.intp, count=len(runs))
    n_cells = int(lengths.sum())
    cell_token = np.fromiter(map(token_id.__getitem__, chain.from_iterable(runs)),
                             dtype=np.intp, count=n_cells)
    cell_count = np.fromiter(chain.from_iterable(r.values() for r in runs),
                             dtype=np.float64, count=n_cells)
    cell_doc = np.repeat(np.arange(len(docs)), lengths)
    doc_freq = np.bincount(cell_token, minlength=len(tokens)).tolist()
    min_docs = max(1, math.ceil(min_doc_fraction * len(docs)))
    vocab = sorted(t for t, df in zip(tokens, doc_freq)
                   if df >= min_docs and t.isalpha() and t not in stop)
    if not vocab:
        raise ValueError("no terms survive pruning; lower min_doc_fraction")
    column = np.full(len(tokens), -1, dtype=np.intp)
    column[[token_id[t] for t in vocab]] = np.arange(len(vocab))
    shape = (len(docs), len(vocab))
    cell_column = column[cell_token]
    in_vocab = cell_column >= 0
    counts = np.bincount(cell_doc[in_vocab] * shape[1] + cell_column[in_vocab],
                         weights=cell_count[in_vocab],
                         minlength=shape[0] * shape[1]).reshape(shape)
    keep = counts.sum(axis=1) > 0
    return Corpus(vocabulary=tuple(vocab), doc_term=counts[keep],
                  doc_ids=tuple(d for d, k in zip(doc_ids, keep) if k))


# Words and separators that stress both tokenizers and the chunk marker:
# the Kelvin sign (lowercases to ASCII k), a Greek word ending in a capital
# sigma (lowercases to a final sigma), accented letters, digit and
# underscore runs, capitalized stop words, the marker \x01 itself, and
# other control characters and Unicode spaces.
_WORDS = ["alpha", "Beta", "gamma", "The", "AND", "of", "\u212aelvin",
          "\u212a", "\u039f\u0394\u039f\u03a3", "\u03bb\u03cc\u03b3\u03bf\u03a3",
          "caf\u00e9", "\u00c4rger", "na\u00efve", "stra\u00dfe", "x9", "2016",
          "_", "snake_case", "a_1", "\uff11", "\u0663"]
_SEPS = [" ", "  ", "\t", "\n", "\r\n", "\x01", " \x01 ", "\x00", "\x1c",
         "\x1f", "\x7f", "\x0b", "\u00a0", "\u2028", "-", ", ", ""]


@st.composite
def corpora(draw):
    words = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPS)),
                     max_size=8)
    doc = st.one_of(words.map(lambda ws: "".join(w + s for w, s in ws)),
                    st.sampled_from(["", " ", "\t\n", "\x01", "2016 x9 _",
                                     "THE and Of"]))
    pool = draw(st.lists(doc, min_size=1, max_size=12))
    size = draw(st.sampled_from([1, _CHUNK_DOCS - 1, _CHUNK_DOCS,
                                 _CHUNK_DOCS + 1, 3 * _CHUNK_DOCS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    docs = [pool[i] for i in rng.integers(0, len(pool), size)]
    fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]),
                              st.floats(0.0, 1.0)))
    stop_words = draw(st.lists(st.sampled_from(["the", "AND", "Of", "gamma"]),
                               max_size=3))
    doc_ids = draw(st.sampled_from([None, [f"d{i}" for i in range(size)],
                                    list(range(size, 0, -1))]))
    return docs, dict(stop_words=stop_words, min_doc_fraction=fraction,
                      doc_ids=doc_ids)


def _outcome(build, docs, kwargs):
    try:
        return build(docs, **kwargs)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corpora())
def test_build_corpus_matches_the_counter_reference(corpus_args):
    docs, kwargs = corpus_args
    got = _outcome(build_corpus, docs, kwargs)
    want = _outcome(reference_build_corpus, docs, kwargs)
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
        assert str(got) == "no terms survive pruning; lower min_doc_fraction"
        return
    assert got.vocabulary == want.vocabulary
    assert got.doc_ids == want.doc_ids
    assert got.doc_term.dtype == np.float64 and got.doc_term.shape == want.doc_term.shape
    assert got.doc_term.tobytes() == want.doc_term.tobytes()
    # The counts build_corpus hands over without a copy are read-only,
    # down to the array they view.
    assert not got.doc_term.flags.writeable
    assert got.doc_term.base is None or not got.doc_term.base.flags.writeable


def test_corpus_of_built_fields_still_copies():
    # Corpus(...) itself still copies what build_corpus hands over as is.
    built = build_corpus(["apple banana", "banana"], min_doc_fraction=0.0)
    again = Corpus(vocabulary=built.vocabulary, doc_term=built.doc_term,
                   doc_ids=built.doc_ids)
    assert again.doc_term is not built.doc_term
    assert again.doc_term.tobytes() == built.doc_term.tobytes()


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
    with pytest.raises(ValueError, match="2-dimensional"):
        Corpus(vocabulary=("a", "b"), doc_term=np.array([1.0, 2.0]),
               doc_ids=("0",))
    with pytest.raises(ValueError, match="finite"):
        Corpus(vocabulary=("a", "b"), doc_term=np.array([[1.0, np.inf]]),
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
