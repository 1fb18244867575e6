"""Tweet-style tokenization, lexicon PoS tagging, and induction of the
self-report word set S from first-person "i'm / i am ..." statements.

The tokenizer is regex-based: URLs, @mentions, #hashtags, emoji (including
zero-width-joiner sequences), apostrophe contractions from a shipped list, and
punctuation runs each become single tokens; everything else splits on
whitespace and is lowercased.

A description is scanned once, into a Tagged pair of plain values: the
lowercased texts of its tokens, and a code string of one character per
token (see Tagger). The self-report pattern and the query matcher are regex
scans over the code string.

Both paths scan with _TOKEN_RE's own pattern, its named groups made
non-capturing, so that findall returns plain strings. On the tweet path,
chunk_words keeps only the word group and returns the word and contraction
texts; chunk_tokens returns every token's text and reads its kind off the
text's first characters.

No token holds whitespace, so the tokens of a text are those of its
whitespace-separated chunks in turn, and tweet text repeats a few thousand
chunks most of the time: the pipeline scans each distinct chunk, not each
tweet, through a ChunkTable, one per run, of bounded size.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from itertools import repeat
from typing import Iterable, NamedTuple

from .resources import load_contractions
from .util import read_rows

PENN_TAGS = frozenset({
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
    "NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
    "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
    "VBZ", "WDT", "WP", "WP$", "WRB",
})

# Unicode emoji blocks: flags, pictographs, emoticons, transport, supplemental,
# extended-A, and the misc-symbols/dingbats stretch.
_EMOJI_RANGES = (
    "\U0001F1E6-\U0001F1FF"
    "\U0001F300-\U0001F5FF"
    "\U0001F600-\U0001F64F"
    "\U0001F680-\U0001F6FF"
    "\U0001F900-\U0001F9FF"
    "\U0001FA70-\U0001FAFF"
    "☀-➿"
)
_EMOJI_SEQ = (
    f"[{_EMOJI_RANGES}]️?"
    f"(?:‍[{_EMOJI_RANGES}]️?)*"
)

_TOKEN_RE = re.compile(
    r"(?P<url>https?://\S+|www\.\S+)"
    r"|(?P<mention>@\w+)"
    r"|(?P<hashtag>#\w+)"
    rf"|(?P<emoji>{_EMOJI_SEQ})"
    r"|(?P<word>\w+(?:[\-'’]\w+)*)"
    rf"|(?P<punct>[^\w\s{_EMOJI_RANGES}]+)"
)


class TagLexicon(NamedTuple):
    """Context-free tagger: word -> majority Penn tag, NN for OOV."""
    tags: dict[str, str]

    def tag(self, word: str) -> str:
        return self.tags.get(word, "NN")

    @classmethod
    def from_tsv(cls, path) -> "TagLexicon":
        """word<TAB>tag rows (trimmed, # comments allowed); the lowercased
        word's last row wins. A bad row is a ValueError naming its line."""
        return cls(tags=dict(read_rows(path, _tag_row, comments=True)))


def _tag_row(fields: list[str]) -> tuple[str, str]:
    if len(fields) != 2:
        raise ValueError("expected word<TAB>tag")
    word, tag = fields
    if tag not in PENN_TAGS:
        raise ValueError(f"{tag!r} is not a Penn tag")
    return word.lower(), tag


class TweetTokens(NamedTuple):
    """The texts of tokenize(text) by the kind of token each is, each tuple
    in token order."""
    words: tuple[str, ...]   # word and contraction tokens
    links: tuple[str, ...]   # url and mention tokens
    others: tuple[str, ...]  # hashtag, emoji and punct tokens
    contractions: int
    hashtags: int


_new_tweet_tokens = functools.partial(tuple.__new__, TweetTokens)

# the prefixes of _TOKEN_RE's url alternative
_URL_PREFIXES = ("http://", "https://", "www.")


@functools.cache
def _tweet_scans() -> tuple[re.Pattern, re.Pattern, frozenset[str]]:
    """_TOKEN_RE with no capturing group (findall returns each token's
    source text), _TOKEN_RE with only the word group capturing (findall
    returns each word's source text and "" for any other token), and the
    characters of _EMOJI_RANGES; built on first use, not at import.

    Both scans also match each newline on its own, as "\\n": no other
    alternative starts with whitespace, so the tokens of the lines are
    unchanged, and a scan of chunks joined by newlines tells where each
    chunk's tokens end."""
    def capturing(kept: str | None) -> re.Pattern:
        # a kept group also holds the separator, so that findall keeps it
        pattern = re.sub(
            r"\(\?P<(\w+)>",
            lambda group: r"(\n|" if group[1] == kept else "(?:",
            _TOKEN_RE.pattern)
        return re.compile(pattern if kept else r"\n|" + pattern)
    ranges = _EMOJI_RANGES[::3], _EMOJI_RANGES[2::3]  # "a-b" per range
    emoji = frozenset(chr(code) for first, last in zip(*ranges)
                      for code in range(ord(first), ord(last) + 1))
    return capturing(None), capturing("word"), emoji


def _straighten(tokens: list[str]) -> list[str]:
    """tokens, each ’ spelling of a packaged contraction respelled with '."""
    contractions = load_contractions()
    for i, token in enumerate(tokens):
        if "’" in token and token.replace("’", "'") in contractions:
            tokens[i] = token.replace("’", "'")
    return tokens


def tokenize(text: str) -> tuple[str, ...]:
    """The texts of text's tokens: each _TOKEN_RE match lowercased, and a
    word whose straight-apostrophe spelling is a packaged contraction given
    that spelling."""
    # lowercasing the joined tokens lowercases each: no character lowercases
    # to whitespace, and a space ends a final-sigma context
    texts = " ".join(_tweet_scans()[0].findall(text)).lower().split()
    return tuple(_straighten(texts) if "’" in text else texts)


def token_spans(text: str) -> list[tuple[int, int]]:
    """The (start, end) in text of each of tokenize(text)'s tokens."""
    return [match.span() for match in _tweet_scans()[0].finditer(text)
            if match[0] != "\n"]


def chunk_words(chunks: list[str]) -> list[tuple[str, ...]]:
    """The texts of tokenize(chunk)'s word and contraction tokens, in order,
    of each whitespace-free chunk, from one scan of the chunks joined by
    newlines: the scan gives a "\\n" for each newline."""
    if not chunks:
        return []
    text = "\n".join(chunks)
    words = list(map(str.lower, filter(None, _tweet_scans()[1].findall(text))))
    if "’" in text:
        words = _straighten(words)
    return list(map(tuple, map(str.split, " ".join(words).split("\n"))))


def _by_kind(tokens: list[str]) -> list[TweetTokens]:
    """The TweetTokens of each line of a scan's tokens (the source texts of
    a text's tokens in order, with a "\\n" for each newline).

    A token's kind is that of the first alternative of _TOKEN_RE to match
    at its start (url, mention, hashtag, emoji, word, punct), read off its
    source text:
    - an emoji character starts an emoji, also one that is a word
      character (❶);
    - @ or # followed by a word character starts a mention or a hashtag,
      and otherwise a punct run;
    - a word character starts a url if the token begins with http://,
      https:// or www., and otherwise a word;
    - any other character starts a punct run.
    Each kind's texts, and a mark per contraction and hashtag, go to one
    flat list with the "\\n"s kept, which C-level joins and splits then cut
    into lines: no Python work per line.
    """
    emoji = _tweet_scans()[2]
    contraction_set = load_contractions()
    words, links, others, marks = [], [], [], []
    for token in tokens:
        lowered = token.lower()
        lead = token[0]
        if lead in emoji:
            others.append(lowered)
        elif lead == "@" or lead == "#":
            second = token[1:2]
            if not (second.isalnum() or second == "_"):  # punct
                others.append(lowered)
            elif lead == "@":
                links.append(lowered)
            else:
                others.append(lowered)
                marks.append("#")
        elif lead.isalnum() or lead == "_":  # \w
            if lead in "hw" and token.startswith(_URL_PREFIXES):
                links.append(lowered)
                continue
            if "'" in lowered or "’" in lowered:
                normalized = lowered.replace("’", "'")
                if normalized in contraction_set:
                    lowered = normalized
                    marks.append("'")
            words.append(lowered)
        elif token == "\n":
            words.append(token)
            links.append(token)
            others.append(token)
            marks.append(token)
        else:  # punct
            others.append(lowered)
    texts = [map(tuple, map(str.split, " ".join(kind).split("\n")))
             for kind in (words, links, others)]
    marks = "".join(marks).split("\n")
    return list(map(_new_tweet_tokens, zip(
        *texts, map(str.count, marks, repeat("'")),
        map(str.count, marks, repeat("#")))))


def chunk_tokens(chunks: list[str]) -> list[TweetTokens]:
    """The tokens of tokenize(chunk), sorted by kind (see TweetTokens), of
    each whitespace-free chunk, from one scan of the chunks joined by
    newlines."""
    if not chunks:
        return []
    return _by_kind(_tweet_scans()[0].findall("\n".join(chunks)))


class ChunkTable:
    """A value for each whitespace-separated chunk of tweet texts, kept for
    one run, so that each distinct chunk is scanned once and not at each
    occurrence.

    No _TOKEN_RE token holds whitespace, and str.split and the pattern's \\s
    agree on what whitespace is (both are Py_UNICODE_ISSPACE), so the
    tokens of a text are the tokens of its text.split() chunks in turn.
    values hands the chunks the table lacks to scan_chunks in one call,
    which returns their values in order (chunk_words and chunk_tokens scan
    them in one regex pass), except the plain ones, of ASCII letters and
    digits only: such a chunk is one word token, its lowercase, so
    plain_values gets their lowercase instead and no scan.

    Memory: chunks seen once, such as URLs, would make an unbounded table
    grow with the number of tweets. Before it would pass `limit` chunks,
    the table drops every chunk but those of the values call at hand, so it
    holds at most `limit` chunks, or the distinct chunks of one values call
    if there are more (about 290 bytes a chunk for lexical summaries, 190
    for word tuples, measured on CPython 3.11).
    """
    limit = 1 << 15

    def __init__(self, scan_chunks, plain_values):
        self._scan_chunks = scan_chunks
        self._plain_values = plain_values
        self._values: dict = {}

    def values(self, chunks: list[str]) -> list:
        """The value of each of chunks, in order."""
        values = self._values
        try:
            return list(map(values.__getitem__, chunks))
        except KeyError:
            new = set(chunks).difference(values)
        if len(values) + len(new) > self.limit:
            # keep only the chunks asked for: frequent chunks come back soon
            values = self._values = {chunk: values[chunk] for chunk in
                                     set(chunks).intersection(values)}
        plain = [chunk for chunk in new if chunk.isascii() and chunk.isalnum()]
        values.update(zip(plain, self._plain_values(
            list(map(str.lower, plain)))))
        rest = list(new.difference(plain))
        if rest:
            values.update(zip(rest, self._scan_chunks(rest)))
        return list(map(values.__getitem__, chunks))


class Tagged(NamedTuple):
    """A scanned description: its tokenize texts and their codes."""
    texts: tuple[str, ...]
    codes: str


_new_tagged = functools.partial(tuple.__new__, Tagged)

# A token's code is chr(0x100 + 16 * mark + 7 * nonword + tag class). Tag
# class: 1 RB, 2 DT, 3 JJ, 4 NN from the lexicon, 5 NN by default (out of
# the lexicon), 6 NNS or NNPS, 0 any other tag, and any token that is not a
# word or contraction. nonword: 1 for every token but a word. Mark: 1-4 the
# trigger words, 5 a keyword of the Tagger, 0 any other text.
_TAG_CLASSES = {"RB": 1, "DT": 2, "JJ": 3, "NN": 4, "NNS": 6, "NNPS": 6}
_TRIGGERS = {"i'm": 1, "i": 2, "am": 3, "im": 4}


def code_set(marks=range(6), nonword=(0, 1), tag_classes=range(7)) -> str:
    """The codes of the given marks, nonword flags and tag classes."""
    return "".join(chr(0x100 + 16 * mark + 7 * flag + tag_class)
                   for mark in marks for flag in nonword
                   for tag_class in tag_classes)


@functools.cache
def code_pattern(codes: str) -> re.Pattern:
    """A regex of any one of codes, compiled on first use."""
    return re.compile(f"[{codes}]")


WORD_CODES = code_set(nonword=(0,))
PLURAL_CODES = code_set(tag_classes=(6,))
KEYWORD_CODES = code_set(marks=(5,))
_KEPT_CODES = code_set(tag_classes=(3, 4))  # JJ, or NN from the lexicon
_NONWORD_CODE = code_set((0,), (1,), (0,))
_UNLISTED_WORD_CODE = code_set((0,), (0,), (5,))


def _is_word(text: str) -> bool:
    """Whether a token text is a word or contraction token's: it starts
    with a word character that is no emoji, and not with a url prefix."""
    lead = text[:1]
    return ((lead.isalnum() or lead == "_") and lead not in _tweet_scans()[2]
            and not text.startswith(_URL_PREFIXES))


def _code(text: str, tags: dict[str, str], keywords=frozenset()) -> str:
    if not _is_word(text):
        return _NONWORD_CODE
    return chr(0x100 + 16 * _TRIGGERS.get(text, 5 * (text in keywords))
               + 7 * ("'" in text and text in load_contractions())
               + (5 if text not in tags else _TAG_CLASSES.get(tags[text], 0)))


class Tagger:
    """Scans descriptions into Tagged values, coding tokens by the tag
    lexicon and marking the given keywords.

    A token's text settles its code. The texts of the tag lexicon, the
    trigger words, the keywords and the packaged contractions are coded
    once, when the Tagger is made; any other text, such as a handle or url
    unique to one description, is a word out of the lexicon or not a word,
    one of two codes.
    """

    def __init__(self, tag_lexicon: TagLexicon, keywords=()):
        tags, keywords = tag_lexicon.tags, frozenset(keywords)
        self._codes = {
            text: _code(text, tags, keywords)
            for text in {*tags, *_TRIGGERS, *keywords, *load_contractions()}}

    def scan(self, text: str) -> Tagged:
        """The one pass over a description."""
        texts = tokenize(text)
        codes = list(map(self._codes.get, texts))
        if None in codes:
            codes = [code or (_UNLISTED_WORD_CODE if _is_word(token)
                              else _NONWORD_CODE)
                     for code, token in zip(codes, texts)]
        return _new_tagged((texts, "".join(codes)))


def pos_tag(tokens, lexicon: TagLexicon) -> str:
    """The codes of the token texts, no keywords marked."""
    return "".join([_code(text, lexicon.tags) for text in tokens])


@functools.cache
def _selfreport_pattern(allow_im: bool) -> re.Pattern:
    """Trigger "i'm" or "i am" (or "im"), an optional adverb and determiner,
    then adjectives with an optional noun head, at least one of the two
    (group 1). One tag per token: the scan never backtracks into another
    match."""
    def one(**fields) -> str:
        return f"[{code_set(**fields)}]"
    trigger = one(marks=(1,)) + "|" + one(marks=(2,)) + one(marks=(3,))
    if allow_im:
        trigger += "|" + one(marks=(4,))
    noun = one(tag_classes=(4, 5, 6))
    return re.compile(
        f"(?:{trigger}){one(tag_classes=(1,))}?{one(tag_classes=(2,))}?"
        f"({one(tag_classes=(3,))}+{noun}?|{noun})")


class SelfReportLexicon:
    """Per-word description counts backing the co-occurrence score.

    os_counts[w] = number of descriptions where w was extracted as a
    self-report word; o_counts[w] = number of descriptions containing w as a
    token at all. S is the set of words with os_counts > 0. Two lexicons
    are equal when their counts are.
    """

    def __init__(self, os_counts: dict[str, int], o_counts: dict[str, int]):
        for word, os_count in os_counts.items():
            _check_counts(word, os_count, o_counts.get(word, 0))
        self.os_counts = os_counts
        self.o_counts = o_counts
        self.total_selfreport = sum(os_counts.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelfReportLexicon):
            return NotImplemented
        return (self.os_counts, self.o_counts) == (other.os_counts,
                                                   other.o_counts)

    def __contains__(self, word: str) -> bool:
        return word in self.os_counts

    def __len__(self) -> int:
        return len(self.os_counts)

    def to_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for word in sorted(self.os_counts):
                handle.write(f"{word}\t{self.os_counts[word]}\t{self.o_counts[word]}\n")

    @classmethod
    def from_tsv(cls, path) -> "SelfReportLexicon":
        """word<TAB>O_s<TAB>O rows, each word once, counts in ASCII digits
        with 0 < O_s <= O. A bad row is a ValueError naming its line."""
        rows = read_rows(path, _count_row, unique="word")
        return cls(os_counts={word: os_count for word, os_count, _ in rows},
                   o_counts={word: o_count for word, _, o_count in rows})


def _check_counts(word: str, os_count: int, o_count: int) -> None:
    if not 0 < os_count <= o_count:
        raise ValueError(f"bad counts for {word!r}: O_s={os_count}, O={o_count}")


def _count_row(fields: list[str]) -> tuple[str, int, int]:
    if len(fields) != 3:
        raise ValueError("expected word<TAB>O_s<TAB>O")
    for count in fields[1:]:
        if not (count.isascii() and count.isdigit()):
            raise ValueError(f"count {count!r} is not ASCII digits")
    word, os_count, o_count = fields[0], int(fields[1]), int(fields[2])
    _check_counts(word, os_count, o_count)
    return word, os_count, o_count


def selfreport_words(tagged: Tagged, allow_im: bool = False) -> set[str]:
    """Kept self-report words of one description: the adjectives and heads
    of its self-report statements that are singular (no NNS/NNPS) and whose
    tag is the lexicon's, so out-of-vocabulary words never enter S."""
    texts, codes = tagged
    return {texts[i]
            for match in _selfreport_pattern(allow_im).finditer(codes)
            for i in range(*match.span(1)) if codes[i] in _KEPT_CODES}


class SelfReportCounter:
    """O_s and O counts, added one tagged description at a time.

    Counting is per-description: a description mentioning a word twice still
    contributes one to each counter.
    """

    def __init__(self, allow_im: bool = False):
        self.allow_im = allow_im
        self.os_counter: Counter[str] = Counter()
        self.o_counter: Counter[str] = Counter()

    def add(self, tagged: Tagged) -> None:
        self.os_counter.update(selfreport_words(tagged, self.allow_im))
        self.o_counter.update(set(tagged.texts))

    def lexicon(self) -> SelfReportLexicon:
        os_counts = dict(self.os_counter)
        o_counts = {word: self.o_counter[word] for word in os_counts}
        return SelfReportLexicon(os_counts=os_counts, o_counts=o_counts)


def build_selfreport_lexicon(descriptions: Iterable[str],
                             tag_lexicon: TagLexicon,
                             allow_im: bool = False) -> SelfReportLexicon:
    """Count O_s and O per description over the description texts."""
    tagger = Tagger(tag_lexicon)
    counter = SelfReportCounter(allow_im=allow_im)
    for text in descriptions:
        counter.add(tagger.scan(text))
    return counter.lexicon()
