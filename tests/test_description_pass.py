"""The description pass on code strings against its record-by-record
reference (reference_description.py): the scan, the self-report pattern and
the lexicon counts, the query matcher and the filter chain, the score, and
the tuning search, on generated descriptions and tag lexicons."""
import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from identminer import resources, textprep
from identminer.filters import (DEFAULT_QUERY_MAP, FILTER_NAMES, QueryMatch,
                                _quoted_spans, apply_filter_chain,
                                find_query_matches, person_bigram_match)
from identminer.scorer import (WEIGHTINGS, ScoreParams, _term_sum, _terms,
                               _word_positions, score_description, score_grid,
                               tune_params)
from identminer.textprep import (PENN_TAGS, SelfReportLexicon, TagLexicon,
                                 Tagger, build_selfreport_lexicon, code_set,
                                 selfreport_words, token_spans, tokenize)

from helpers import DESCRIPTION_PIECES, description_texts, tag, tag_lexicon
from reference_description import (reference_filter_chain,
                                   reference_find_query_matches,
                                   reference_lexicon_counts,
                                   reference_person_bigram,
                                   reference_quoted_spans, reference_score,
                                   reference_selfreport_words, reference_tag,
                                   reference_tune)

TAGS = tag_lexicon().tags
COLORS = resources.load_colors()
BLOCKLIST = resources.load_bigram_blocklist()
TAG_CLASSES = {"RB": 1, "DT": 2, "JJ": 3, "NN": 4, "NNS": 6, "NNPS": 6}
TRIGGERS = {"i'm": 1, "i": 2, "am": 3, "im": 4}

# words whose tags a generated lexicon sets, non-word texts among them
LEXICON_WORDS = sorted({piece.lower() for piece in DESCRIPTION_PIECES
                        if piece.strip()} | {"#tag", "www.x", "@who", "it's"})


def tag_lexicons():
    """The packaged lexicon, or tags drawn for the description pieces."""
    drawn = st.dictionaries(st.sampled_from(LEXICON_WORDS),
                            st.sampled_from(sorted(PENN_TAGS)))
    return st.one_of(st.just(TAGS), drawn)


def expected_code(token, pos, tags) -> str:
    """A token's code from its record: see textprep's code layout."""
    if token.kind not in ("word", "contraction"):
        return code_set((0,), (1,), (0,))
    if token.text not in tags:
        tag_class = 5
    else:
        tag_class = TAG_CLASSES.get(pos, 0)
    mark = TRIGGERS.get(token.text,
                        5 if token.text in DEFAULT_QUERY_MAP else 0)
    return code_set((mark,), (token.kind != "word",), (tag_class,))


def test_a_lowercased_token_text_still_shows_its_kind():
    """Tagger codes a token from its lowercased text, reading its kind off
    the first character: lowercasing must keep an emoji an emoji, the first
    character of a word or mention name a non-emoji word character (and
    add no ':' or '.' that could make a url prefix), that of a punct run a
    non-word character, and add no whitespace."""
    emoji = textprep._tweet_scans()[2]
    word, space = re.compile(r"\w"), re.compile(r"\s")
    for code in range(0x110000):
        char = chr(code)
        lowered = char.lower()
        if space.match(char) or lowered == char:
            continue
        assert not any(map(space.match, lowered)), hex(code)
        assert char not in emoji, hex(code)
        if word.match(char):
            assert word.match(lowered[0]) and lowered[0] not in emoji, hex(code)
            assert not set(lowered) & set(":."), hex(code)
        else:
            assert not word.match(lowered[0]) and lowered[0] not in emoji, \
                hex(code)


@given(description_texts(), tag_lexicons())
@settings(max_examples=600)
def test_scan_gives_the_texts_spans_and_codes_of_the_token_records(text,
                                                                   tags):
    records = reference_tag(text, tags)
    tagged = Tagger(TagLexicon(tags), DEFAULT_QUERY_MAP).scan(text)
    assert tagged.texts == tokenize(text) == tuple(
        tt.token.text for tt in records)
    assert token_spans(text) == [tt.token.char_span for tt in records]
    assert tagged.codes == "".join(expected_code(tt.token, tt.pos, tags)
                                   for tt in records)


def test_scan_matches_the_records_on_every_pair_of_pieces():
    """Every two DESCRIPTION_PIECES, run together and apart."""
    tagger = Tagger(TagLexicon(TAGS), DEFAULT_QUERY_MAP)
    for first, second in itertools.product(DESCRIPTION_PIECES, repeat=2):
        for text in (first + second, f"{first} {second}"):
            records = reference_tag(text, TAGS)
            assert tagger.scan(text) == (
                tuple(tt.token.text for tt in records),
                "".join(expected_code(tt.token, tt.pos, TAGS)
                        for tt in records)), text


def test_tagger_codes_unlisted_texts_without_keeping_them():
    """Texts outside the lexicon, the triggers, the keywords and the
    contractions, such as a handle or url unique to one description, get
    their code without entering the Tagger's table."""
    tagger = Tagger(TagLexicon(TAGS), DEFAULT_QUERY_MAP)
    listed = dict(tagger._codes)
    texts = ["i am a proud black zorgle @zorgle_17 https://t.co/x1",
             "Zorgle #tag @who ! _under 9lives ❶x www.x.org I’m asian",
             "i'm so don't it’s \"latina\" im"]
    for text in texts:
        records = reference_tag(text, TAGS)
        assert tagger.scan(text).codes == "".join(
            expected_code(tt.token, tt.pos, TAGS) for tt in records), text
    assert tagger._codes == listed


@given(st.lists(description_texts(), max_size=6), tag_lexicons(),
       st.booleans())
@settings(max_examples=400)
def test_selfreport_words_and_counts_equal_the_pattern_loop(texts, tags,
                                                            allow_im):
    tagger = Tagger(TagLexicon(tags))
    for text in texts:
        assert selfreport_words(tagger.scan(text), allow_im) == \
            reference_selfreport_words(reference_tag(text, tags), tags,
                                       allow_im)
    lexicon = build_selfreport_lexicon(texts, TagLexicon(tags), allow_im)
    os_counts, o_counts = reference_lexicon_counts(texts, tags, allow_im)
    assert (lexicon.os_counts, lexicon.o_counts) == (os_counts, o_counts)


def filter_subsets():
    for bits in itertools.product((False, True), repeat=len(FILTER_NAMES)):
        yield tuple(name for name, bit in zip(FILTER_NAMES, bits) if bit)


@given(description_texts())
@settings(max_examples=600)
def test_query_matches_and_filter_chain_equal_the_record_loops(text):
    tagged, records = tag(text), reference_tag(text, TAGS)
    matches = find_query_matches(tagged, text)
    references = reference_find_query_matches(records)
    quoted = '"' in text or "“" in text
    assert [match[:3] for match in matches] == \
        [reference[:3] for reference in references]
    assert [match.char_span for match in matches] == [
        reference.char_span if quoted else None for reference in references]
    for match, reference in zip(matches, references):
        assert person_bigram_match(tagged, match) == \
            reference_person_bigram(records, reference)
        for filters in filter_subsets():
            assert apply_filter_chain(tagged, text, match, filters, COLORS,
                                      BLOCKLIST) == \
                reference_filter_chain(records, text, reference, filters,
                                       COLORS, BLOCKLIST)


@given(st.one_of(description_texts(),
                 st.text(alphabet='"“”ab \n', max_size=30)))
@settings(max_examples=600)
def test_quoted_spans_equal_the_character_walk(text):
    assert list(_quoted_spans(text)) == reference_quoted_spans(text)


def lexicons(words):
    """A lexicon over some of words and other pieces, O_s <= O. It comes
    from one byte string: each three bytes pick a word (one not yet picked
    is taken), its O_s in 1 .. 40 and what O adds to it, 0 .. 40."""
    pool = sorted(set(words) | {"farmer", "proud", "black", "i"})

    def lexicon(picks: bytes) -> SelfReportLexicon:
        os_counts, o_counts = {}, {}
        for pick, os_count, more in zip(*[iter(picks)] * 3):
            word = pool[pick % len(pool)]
            if word not in os_counts:
                os_counts[word] = os_count % 40 + 1
                o_counts[word] = os_counts[word] + more % 41
        return SelfReportLexicon(os_counts=os_counts, o_counts=o_counts)

    return st.binary(min_size=3, max_size=3 * len(pool)).map(lexicon)


@given(st.data())
@settings(max_examples=400)
def test_scores_equal_the_token_walk_bitwise(data):
    """Every token as the query, every window and weighting."""
    text = data.draw(description_texts())
    tagged, records = tag(text), reference_tag(text, TAGS)
    lexicon = data.draw(lexicons(tagged.texts))
    for index in range(len(records)):
        match = QueryMatch("black", DEFAULT_QUERY_MAP["black"], index, None)
        for window in (1, 2, 3, 10):
            for weighting in WEIGHTINGS:
                got = score_description(tagged, match, lexicon,
                                        ScoreParams(window, 0.5, weighting))
                want = reference_score(records, index, lexicon, window,
                                       weighting)
                assert got.hex() == want.hex()


KEYWORDS = sorted(DEFAULT_QUERY_MAP)


def tuning_rows(draw):
    """2 to 12 (text, label) rows whose first query match stands for the
    row. A row comes from one byte string: its first three bytes pick the
    label, a query keyword and where it goes among the up to 10
    DESCRIPTION_PIECES entries that the other bytes pick."""
    rows = []
    for label, keyword, at, *picks in draw(st.lists(
            st.binary(min_size=3, max_size=13), min_size=2, max_size=12)):
        words = [DESCRIPTION_PIECES[pick % len(DESCRIPTION_PIECES)]
                 for pick in picks]
        at %= len(words) + 1
        rows.append((" ".join(words[:at] + [KEYWORDS[keyword % len(KEYWORDS)]]
                              + words[at:]), label % 2 == 1))
    return rows


@given(st.data())
@settings(max_examples=200)
def test_tune_scores_each_example_once_as_the_twenty_scores(data):
    """The sums tune_params reads equal score_description under each
    (window, weighting) of the default grid, bit for bit."""
    rows = tuning_rows(data.draw)
    tagged = [tag(text) for text, _ in rows]
    lexicon = data.draw(lexicons([t for one in tagged for t in one.texts]))
    for one, (text, _) in zip(tagged, rows):
        match = find_query_matches(one, text)[0]
        terms = _terms(one.texts, _word_positions(one), match.token_index,
                       lexicon, 10)
        for window in range(1, 11):
            for weighting in WEIGHTINGS:
                params = ScoreParams(window, 0.5, weighting)
                assert _term_sum(terms, window, weighting).hex() == \
                    score_description(one, match, lexicon, params).hex()


@given(st.data())
@settings(max_examples=200)
def test_tune_params_equals_the_reference_search(data):
    rows = tuning_rows(data.draw)
    tagged = [tag(text) for text, _ in rows]
    lexicon = data.draw(lexicons([t for one in tagged for t in one.texts]))
    windows = data.draw(st.lists(st.integers(1, 10), min_size=1, max_size=4,
                                 unique=True))
    thresholds = data.draw(st.lists(
        st.sampled_from([round(0.05 * i, 2) for i in range(1, 20)] + [0, 1]),
        min_size=1, max_size=6, unique=True))
    weightings = data.draw(st.lists(st.sampled_from(WEIGHTINGS), min_size=1,
                                    unique=True))
    grid = score_grid(windows, thresholds, weightings)
    tuning_set, reference_set = [], []
    for one, (text, label) in zip(tagged, rows):
        match = find_query_matches(one, text)[0]
        tuning_set.append((one, match, label))
        reference_set.append((reference_tag(text, TAGS), match.token_index,
                              label))
    try:
        want = reference_tune(reference_set, lexicon, grid)
    except ValueError as exc:
        try:
            tune_params(tuning_set, lexicon, grid)
        except ValueError as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError("tune_params found a grid point")
        return
    assert tune_params(tuning_set, lexicon, grid) == want
