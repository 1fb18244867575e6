import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer import textprep
from identminer.textprep import (WORD_CODES, ChunkTable, SelfReportLexicon,
                                 TagLexicon, Tagged, Tagger, TweetTokens,
                                 build_selfreport_lexicon, chunk_tokens,
                                 chunk_words, code_set, pos_tag,
                                 selfreport_words, token_spans, tokenize)

from identminer.resources import load_contractions

from helpers import TRICKY_PIECES, default, tag, tag_lexicon, tweet_texts
from reference_description import (reference_extract, reference_tag,
                                   reference_tokenize)
from reference_tweet import reference_tweet_tokens, reference_tweet_words

# the CLI's default: the "i'm" spelling is opt-in
ALLOW_IM = default("allow_im")
WORDS = ["black", "farmer", "coffee", "lover", "i", "am", "a", "proud",
         "woman", "happy", "so", "#tag", "@who", ":)", "it's"]


def kinds(text):
    """(text, kind) of each token, from the reference token records."""
    return [(t.text, t.kind) for t in reference_tokenize(text)]


def merged_by_kind(parts) -> TweetTokens:
    """The TweetTokens of consecutive texts' tokens: each kind's texts
    concatenated, the counts summed."""
    parts = list(parts)
    return TweetTokens(*(tuple(text for part in parts for text in part[i])
                         for i in range(3)),
                       sum(part.contractions for part in parts),
                       sum(part.hashtags for part in parts))


def text_tokens(text) -> TweetTokens:
    """The TweetTokens of text as the tweet path reads them: chunk_tokens
    of its whitespace-separated chunks, merged."""
    return merged_by_kind(chunk_tokens(text.split()))


def text_words(text) -> list[str]:
    """The word and contraction texts of text as the tweet path reads them:
    chunk_words of its whitespace-separated chunks, in turn."""
    return [word for words in chunk_words(text.split()) for word in words]


def test_tokenize_basic_kinds():
    text = "wow @alice check https://x.example/a #fun it's great :)"
    assert tokenize(text) == ("wow", "@alice", "check", "https://x.example/a",
                              "#fun", "it's", "great", ":)")
    assert text_tokens(text) == TweetTokens(
        ("wow", "check", "it's", "great"), ("@alice", "https://x.example/a"),
        ("#fun", ":)"), 1, 1)


def test_tokenize_lowercases_but_spans_point_at_source():
    text = "Proud Black Farmer"
    assert tokenize(text) == ("proud", "black", "farmer")
    for token, (start, end) in zip(tokenize(text), token_spans(text),
                                   strict=True):
        assert text[start:end].lower() == token


def test_tokenize_curly_apostrophe_contraction():
    assert tokenize("i’m tired") == ("i'm", "tired")
    # a contraction is not a word token: its code says so
    codes = Tagger(tag_lexicon()).scan("i’m tired").codes
    assert [code in WORD_CODES for code in codes] == [False, True]


def test_tokenize_every_kind_with_spans():
    text = "Wow, check https://x.co/a @Bob #Fun \U0001F600 I\u2019m done!!"
    assert list(zip(tokenize(text), token_spans(text), strict=True)) == [
        ("wow", (0, 3)), (",", (3, 4)), ("check", (5, 10)),
        ("https://x.co/a", (11, 25)), ("@bob", (26, 30)), ("#fun", (31, 35)),
        ("\U0001F600", (36, 37)), ("i'm", (38, 41)), ("done", (42, 46)),
        ("!!", (46, 48))]
    assert text_tokens(text) == TweetTokens(
        ("wow", "check", "i'm", "done"), ("https://x.co/a", "@bob"),
        (",", "#fun", "\U0001F600", "!!"), 1, 1)


def test_token_records_are_immutable_hashable_and_named():
    """A scanned description is a Tagged record of plain values."""
    tagged = Tagger(tag_lexicon()).scan("Proud farmer")
    assert tagged.texts == ("proud", "farmer")
    assert len(tagged.codes) == 2 and isinstance(tagged.codes, str)
    for name in ("texts", "codes"):
        with pytest.raises(AttributeError):
            setattr(tagged, name, None)
    with pytest.raises(TypeError):
        tagged[0] = "x"
    assert {tagged, Tagged(("proud", "farmer"), tagged.codes)} == {tagged}
    assert repr(tagged).startswith("Tagged(texts=('proud', 'farmer'), codes=")
    # a tuple subclass: equal to the plain tuple of its fields
    assert tagged == (("proud", "farmer"), tagged.codes)


@given(tweet_texts())
@settings(max_examples=500)
def test_tweet_tokens_are_tokenize_sorted_by_kind(text):
    assert text_tokens(text) == reference_tweet_tokens(text)


@given(st.lists(tweet_texts(), max_size=5))
@settings(max_examples=300)
def test_tweet_words_of_joined_texts_are_the_words_of_each(texts):
    """The texts joined by newlines give the word and contraction texts of
    tokenize over each text in turn."""
    assert text_words("\n".join(texts)) == [
        word for text in texts for word in reference_tweet_words(text)]


@given(tweet_texts())
@settings(max_examples=500)
def test_tweet_words_are_the_words_of_its_chunks(text):
    """No token holds whitespace and str.split cuts where \\s matches, so
    the words of a text are those of its whitespace-separated chunks."""
    assert text_words(text) == reference_tweet_words(text)


@given(tweet_texts())
@settings(max_examples=500)
def test_tweet_tokens_are_the_merged_tokens_of_its_chunks(text):
    assert reference_tweet_tokens(text) == merged_by_kind(
        map(reference_tweet_tokens, text.split()))


def test_str_split_and_the_token_pattern_agree_on_whitespace():
    """The chunk tables rest on str.split and the pattern's \\s splitting at
    the same characters."""
    space = re.compile(r"\s")
    chars = [chr(code) for code in range(0x110000)]
    split_at = {char for char in chars if len(f"a{char}b".split()) == 2}
    assert split_at == {char for char in chars if space.fullmatch(char)}
    assert {"\x1c", "\x85", "\xa0", "\u2028", "\u3000"} <= split_at
    assert not {"\u200b", "\u200d", "\ufeff"} & split_at


@given(st.lists(tweet_texts(), max_size=6))
@settings(max_examples=300)
def test_chunk_scans_are_the_scans_of_each_chunk(texts):
    """One chunk_words or chunk_tokens call over distinct chunks gives each
    chunk its own words or tokens by kind."""
    chunks = list(dict.fromkeys(" ".join(texts).split()))
    assert chunk_words(chunks) == [tuple(reference_tweet_words(chunk))
                                   for chunk in chunks]
    assert chunk_tokens(chunks) == [reference_tweet_tokens(chunk)
                                    for chunk in chunks]


@given(st.text("abcXYZ019", min_size=1))
def test_a_plain_chunk_is_one_word_its_lowercase(chunk):
    assert chunk_words([chunk]) == [(chunk.lower(),)]
    one_word = TweetTokens((chunk.lower(),), (), (), 0, 0)
    assert chunk_tokens([chunk]) == [one_word]


def counted_table(scans: list) -> ChunkTable:
    """A ChunkTable whose value of a chunk is its uppercase, recording the
    chunks of each scan_chunks call and the words of each plain_values
    call that has any."""
    def scan(chunks):
        if chunks:
            scans.append(sorted(chunks))
        return [chunk.upper() for chunk in chunks]
    return ChunkTable(scan, scan)


def test_chunk_table_scans_only_chunks_it_lacks():
    scans = []
    table = counted_table(scans)
    assert table.values(["b!", "a!", "b!"]) == ["B!", "A!", "B!"]
    assert table.values(["a!", "c!", "b!", "c!"]) == ["A!", "C!", "B!", "C!"]
    assert table.values(["c!", "a!"]) == ["C!", "A!"]
    assert scans == [["a!", "b!"], ["c!"]]


def test_chunk_table_hands_plain_chunks_over_lowercased():
    """Chunks of ASCII letters and digits go to plain_values as their
    lowercase, every other chunk to scan_chunks."""
    scans = []
    table = counted_table(scans)
    chunks = ["Ab1", "x_y", "ok", "İ", "❶", "a'b", "7"]
    assert table.values(chunks) == [chunk.upper() for chunk in chunks]
    assert scans == [["7", "ab1", "ok"], ["a'b", "x_y", "İ", "❶"]]


def test_chunk_table_keeps_only_the_asked_chunks_at_its_limit():
    """A call that would take the table past its limit first drops every
    chunk but its own; one call's chunks are kept even past the limit."""
    scans = []
    table = counted_table(scans)
    table.limit = 3
    assert table.values(["a!", "b!"]) == ["A!", "B!"]
    assert table.values(["b!", "c!"]) == ["B!", "C!"]  # 3 chunks: kept
    assert table.values(["c!", "d!"]) == ["C!", "D!"]  # 4: a! and b! dropped
    assert table.values(["a!", "c!"]) == ["A!", "C!"]
    assert table.values(["e!", "f!", "g!", "h!"]) == ["E!", "F!", "G!", "H!"]
    assert table.values(["h!", "e!"]) == ["H!", "E!"]
    assert scans == [["a!", "b!"], ["c!"], ["d!"], ["a!"],
                     ["e!", "f!", "g!", "h!"]]
    assert len(table._values) == 4


@pytest.mark.parametrize("text, expected", [
    # ❶ is a word character inside the emoji range: the emoji
    # alternative comes first
    ("❶abc", [("❶", "emoji"), ("abc", "word")]),
    ("#❶x", [("#❶x", "hashtag")]),
    ("@!", [("@!", "punct")]),
    ("@ #", [("@", "punct"), ("#", "punct")]),
    ("@_", [("@_", "mention")]),
    ("www.", [("www", "word"), (".", "punct")]),
    ("www.x", [("www.x", "url")]),
    ("https", [("https", "word")]),
    ("HTTP://x", [("http", "word"), ("://", "punct"), ("x", "word")]),
    ("hi’ya DON’T", [("hi’ya", "word"), ("don't", "contraction")]),
])
def test_tweet_tokens_kind_order_cases(text, expected):
    assert kinds(text) == expected
    assert text_tokens(text) == reference_tweet_tokens(text)


def test_tweet_scan_emoji_set_is_the_emoji_class():
    emoji = textprep._tweet_scans()[2]
    emoji_class = re.compile(f"[{textprep._EMOJI_RANGES}]")
    assert emoji == {chr(code) for code in range(0x110000)
                     if emoji_class.fullmatch(chr(code))}


def reference_groups_tokenize(text) -> list[tuple]:
    """The tokenizer that recomputed each kind from the match's groups
    tuple (one group per kind, only the matched one non-empty) instead of
    reading match.lastgroup; kept as the oracle for tokenize."""
    pattern = textprep._TOKEN_RE
    kinds = sorted(pattern.groupindex, key=pattern.groupindex.get)
    contractions = load_contractions()
    tokens = []
    for match in pattern.finditer(text):
        groups = match.groups("")
        word = groups[kinds.index("word")].lower()
        if not word:
            token = max(groups)  # "" sorts first
            text_kind = token.lower(), kinds[groups.index(token)]
        elif ("'" in word or "’" in word) and \
                word.replace("’", "'") in contractions:
            text_kind = word.replace("’", "'"), "contraction"
        else:
            text_kind = word, "word"
        tokens.append((*text_kind, match.span()))
    return tokens


def assert_tokenize_is(reference: list[tuple], text: str) -> None:
    """tokenize, token_spans and the word codes of text against the
    (text, kind, span) of its reference tokens."""
    assert tokenize(text) == tuple(token for token, _, _ in reference)
    assert token_spans(text) == [span for _, _, span in reference]
    assert [code in WORD_CODES for code in tag(text).codes] == \
        [kind == "word" for _, kind, _ in reference]
    assert reference_tokenize(text) == reference


@given(tweet_texts())
@settings(max_examples=1000)
def test_tokenize_matches_the_groups_tuple_reference(text):
    assert_tokenize_is(reference_groups_tokenize(text), text)


@pytest.mark.parametrize("text", [*TRICKY_PIECES, "".join(TRICKY_PIECES),
                                  " ".join(TRICKY_PIECES)])
def test_tokenize_matches_the_reference_on_each_tricky_piece(text):
    assert_tokenize_is(reference_groups_tokenize(text), text)


def test_tokenize_hyphenated_word_is_one_token():
    assert tokenize("african-american culture") == ("african-american",
                                                    "culture")
    assert tag("african-american culture").codes[0] in WORD_CODES


def test_tokenize_emoji_and_punct():
    assert text_tokens("done 🎉 ...").others == ("🎉", "...")
    assert kinds("done 🎉 ...") == [("done", "word"), ("🎉", "emoji"),
                                    ("...", "punct")]


def test_tokenize_round_trip_reconstructs_source(rng):
    pieces = [rng.choice(WORDS) for _ in range(40)]
    text = " ".join(pieces) + "  trailing: end."
    spans = token_spans(text)
    assert len(spans) == len(tokenize(text))
    # slices of the source at the token spans, joined with the original
    # inter-token gaps, must reproduce the input
    rebuilt = []
    prev_end = 0
    for start, end in spans:
        rebuilt.append(text[prev_end:start])
        rebuilt.append(text[start:end])
        prev_end = end
    rebuilt.append(text[prev_end:])
    assert "".join(rebuilt) == text


def test_tag_lexicon_default_for_oov():
    """An out-of-lexicon word is a noun to the pattern, tagged NN by
    default, but never a kept self-report word."""
    lex = TagLexicon(tags={"cat": "NN"})
    assert pos_tag(("cat", "zorgle"), lex) == (code_set((0,), (0,), (4,))
                                               + code_set((0,), (0,), (5,)))
    assert selfreport_words(Tagger(lex).scan("i am cat"), ALLOW_IM) == {"cat"}
    assert selfreport_words(Tagger(lex).scan("i am zorgle"), ALLOW_IM) == set()


def test_pos_tag_uses_sentinels_for_non_words():
    """Mentions, hashtags, urls, emoji and punct share one code, of no tag
    class, whatever the lexicon says of their texts."""
    tokens = tokenize("see @you at #home https://a.example :) 🎉")
    lex = TagLexicon(tags={**tag_lexicon().tags, "#home": "JJ", "@you": "NN"})
    by_text = dict(zip(tokens, pos_tag(tokens, lex)))
    sentinel = code_set((0,), (1,), (0,))
    for text in ("@you", "#home", "https://a.example", ":)", "🎉"):
        assert by_text[text] == sentinel
    assert by_text["see"] != sentinel


def test_pos_tag_parallel_lists():
    tokens = tokenize("a black cat")
    codes = pos_tag(tokens, tag_lexicon())
    assert len(codes) == len(tokens)
    assert Tagger(tag_lexicon()).scan("a black cat") == (tokens, codes)


@pytest.mark.parametrize("text,expected", [
    ("i am a black farmer", [("black", "JJ"), ("farmer", "NN")]),
    ("i am a proud black woman", [("proud", "JJ"), ("black", "JJ"),
                                  ("woman", "NN")]),
    ("i'm asian", [("asian", "JJ")]),
    ("i am so happy", [("happy", "JJ")]),
    ("i am a farmer", [("farmer", "NN")]),
    ("i am the man", [("man", "NN")]),
    ("coffee is great", []),
    ("i am", []),
    ("i am and then some", []),
])
def test_extraction_pattern(text, expected):
    # the candidates with their tags, by the reference loop, and the kept
    # words (every candidate here is singular and in the lexicon)
    assert reference_extract(reference_tag(text, tag_lexicon().tags)) == \
        expected
    assert selfreport_words(tag(text), ALLOW_IM) == {
        word for word, _ in expected}


def test_extraction_is_case_insensitive():
    lower = selfreport_words(tag("i am a Black Farmer".lower()), ALLOW_IM)
    mixed = selfreport_words(tag("I AM A BLACK FARMER"), ALLOW_IM)
    assert lower == mixed == {"black", "farmer"}


def test_extraction_im_spelling_is_opt_in():
    tagged = tag("im asian")
    assert selfreport_words(tagged, ALLOW_IM) == set()
    assert selfreport_words(tagged, allow_im=True) == {"asian"}


def test_extraction_multiple_triggers():
    got = selfreport_words(tag("i am happy and i am a farmer"), ALLOW_IM)
    assert got == {"happy", "farmer"}


def test_selfreport_words_drop_plurals_and_oov():
    # "people" is NNS; "zorgle" is out of vocabulary
    assert selfreport_words(tag("i am a white people"), ALLOW_IM) == {"white"}
    assert selfreport_words(tag("i am a zorgle"), ALLOW_IM) == set()


def test_lexicon_rejects_impossible_counts():
    with pytest.raises(ValueError):
        SelfReportLexicon(os_counts={"a": 2}, o_counts={"a": 1})
    with pytest.raises(ValueError):
        SelfReportLexicon(os_counts={"a": 0}, o_counts={"a": 1})


def test_lexicon_membership_and_total():
    lex = SelfReportLexicon(os_counts={"a": 2, "b": 1}, o_counts={"a": 3, "b": 1})
    assert "a" in lex.os_counts and "c" not in lex.os_counts
    assert len(lex) == 2
    assert lex.total_selfreport == 3
    assert set(lex.os_counts) == {"a", "b"}


def test_build_selfreport_lexicon_counts_by_description():
    descriptions = ["i am a black farmer", "i am a proud black woman",
                    "black coffee lover", "i am happy happy"]
    lex = build_selfreport_lexicon(descriptions, tag_lexicon(), ALLOW_IM)
    assert lex.os_counts == {"black": 2, "farmer": 1, "proud": 1,
                             "woman": 1, "happy": 1}
    assert lex.o_counts == {"black": 3, "farmer": 1, "proud": 1,
                            "woman": 1, "happy": 1}
    assert lex.total_selfreport == 6


def test_build_selfreport_lexicon_empty_corpus():
    lex = build_selfreport_lexicon([], tag_lexicon(), ALLOW_IM)
    assert len(lex) == 0


def test_lexicon_tsv_round_trip(tmp_path):
    lex = SelfReportLexicon(os_counts={"b": 1, "a": 2}, o_counts={"b": 4, "a": 2})
    path = tmp_path / "lex.tsv"
    lex.to_tsv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["a\t2\t2", "b\t1\t4"]
    back = SelfReportLexicon.from_tsv(path)
    assert back.os_counts == lex.os_counts
    assert back.o_counts == lex.o_counts


def test_lexicon_counts_invariant_random(rng):
    vocab = ["alpha", "beta", "gamma", "delta"]
    corpus = []
    for _ in range(100):
        words = [rng.choice(vocab) for _ in range(rng.randrange(1, 6))]
        prefix = "i am a black farmer " if rng.random() < 0.4 else ""
        corpus.append(prefix + " ".join(words))
    lex = build_selfreport_lexicon(corpus, tag_lexicon(), ALLOW_IM)
    for word in lex.os_counts:
        assert 0 < lex.os_counts[word] <= lex.o_counts[word]
