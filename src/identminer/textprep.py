"""Tweet-style tokenization, lexicon PoS tagging, and induction of the
self-report word set S from first-person "i'm / i am ..." statements.

The tokenizer is regex-based: URLs, @mentions, #hashtags, emoji (including
zero-width-joiner sequences), apostrophe contractions from a shipped list, and
punctuation runs each become single tokens; everything else splits on
whitespace and is lowercased.

Token records are immutable named tuples: a ``Token`` is (text, kind,
char_span) and a ``TaggedToken`` is (token, pos). They hash, sort and compare
as tuples, so a Token equals the plain tuple of its fields. A tuple is several
times cheaper to build than a frozen dataclass, and tokenize builds one per
token of every description.

The tweet path reads neither spans nor token records. It scans with
_TOKEN_RE's own pattern, its named groups made non-capturing, so that
findall returns plain strings: tweet_words keeps only the word group and
returns the word and contraction texts; tweet_tokens returns every token's
text and reads its kind off the text's first characters.

No token holds whitespace, so the tokens of a text are those of its
whitespace-separated chunks in turn, and tweet text repeats a few thousand
chunks most of the time: the pipeline scans each distinct chunk, not each
tweet, through a ChunkTable, one per run, of bounded size.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
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

SENTINEL_TAGS = {
    "hashtag": "HT",
    "mention": "USR",
    "url": "URL",
    "emoji": "EMJ",
    "punct": "PCT",
}

NOUN_TAGS = ("NN", "NNS", "NNPS")
PLURAL_TAGS = ("NNS", "NNPS")

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


class Token(NamedTuple):
    text: str
    kind: str  # word | hashtag | mention | url | emoji | punct | contraction
    char_span: tuple[int, int]


class TaggedToken(NamedTuple):
    token: Token
    pos: str


# Token(...) runs the named tuple's Python-level __new__ for every token;
# tuple.__new__ bound to the class builds the same object without that frame
_new_token = functools.partial(tuple.__new__, Token)
_new_tagged = functools.partial(tuple.__new__, TaggedToken)

@dataclass
class TagLexicon:
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


def tokenize(text: str) -> list[Token]:
    """Split text into typed tokens with character spans.

    A token's kind is the name of the _TOKEN_RE group that matched it
    (match.lastgroup), except that a word whose straight-apostrophe
    spelling is a packaged contraction becomes that contraction. Joining
    the source slices of consecutive tokens with the original inter-token
    whitespace reconstructs the input exactly.
    """
    contractions = load_contractions()
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token, kind = match[0].lower(), match.lastgroup
        if kind == "word" and ("'" in token or "’" in token):
            normalized = token.replace("’", "'")
            if normalized in contractions:
                token, kind = normalized, "contraction"
        tokens.append(_new_token((token, kind, match.span())))
    return tokens


class TweetTokens(NamedTuple):
    """The lowercased texts of tokenize(text)'s tokens, without spans, by
    kind, each tuple in token order."""
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


def _scan_words(text: str) -> list[str]:
    """The texts of tokenize(text)'s word and contraction tokens, in order,
    with a "\\n" for each newline of text."""
    words = list(map(str.lower, filter(None, _tweet_scans()[1].findall(text))))
    if "’" in text:
        contractions = load_contractions()
        for i, word in enumerate(words):
            if "’" in word and word.replace("’", "'") in contractions:
                words[i] = word.replace("’", "'")
    return words


def tweet_words(text: str) -> list[str]:
    """The texts of tokenize(text)'s word and contraction tokens, in order."""
    return " ".join(_scan_words(text)).split()


def chunk_words(chunks: list[str]) -> list[tuple[str, ...]]:
    """tuple(tweet_words(chunk)) of each whitespace-free chunk, from one
    scan of the chunks joined by newlines."""
    if not chunks:
        return []
    lines = " ".join(_scan_words("\n".join(chunks))).split("\n")
    return list(map(tuple, map(str.split, lines)))


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


def tweet_tokens(text: str) -> TweetTokens:
    """The tokens of tokenize(text), sorted by kind (see TweetTokens)."""
    # split() drops the "\n" the scan gives for each newline: one line
    return _by_kind(" ".join(_tweet_scans()[0].findall(text)).split())[0]


def chunk_tokens(chunks: list[str]) -> list[TweetTokens]:
    """tweet_tokens(chunk) of each whitespace-free chunk, from one scan of
    the chunks joined by newlines."""
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


def pos_tag(tokens: Iterable[Token], lexicon: TagLexicon) -> list[TaggedToken]:
    """Word and contraction tokens get the lexicon majority tag (default for
    OOV); other kinds get fixed sentinel tags."""
    tagged = []
    for token in tokens:
        sentinel = SENTINEL_TAGS.get(token.kind)
        pos = sentinel if sentinel is not None else lexicon.tag(token.text)
        tagged.append(_new_tagged((token, pos)))
    return tagged


def _match_trigger(tagged: list[TaggedToken], i: int, allow_im: bool) -> int:
    """Return the index just past a first-person trigger starting at i, or -1."""
    text = tagged[i].token.text
    if text == "i'm":
        return i + 1
    if text == "i" and i + 1 < len(tagged) and tagged[i + 1].token.text == "am":
        return i + 2
    if allow_im and text == "im":
        return i + 1
    return -1


def extract_selfreport_candidates(tagged: list[TaggedToken],
                                  allow_im: bool = False) -> list[tuple[str, str]]:
    """Apply the anchored pattern: trigger "i'm"/"i am", then optionally one
    adverb and one determiner, then adjectives with an optional noun head.
    Emits every adjective plus the head; at least one of them must be present.

    The "im" spelling is an extension, off by default.
    """
    out: list[tuple[str, str]] = []
    n = len(tagged)
    i = 0
    while i < n:
        j = _match_trigger(tagged, i, allow_im)
        if j < 0:
            i += 1
            continue
        k = j
        if k < n and tagged[k].pos == "RB":
            k += 1
        if k < n and tagged[k].pos == "DT":
            k += 1
        collected: list[tuple[str, str]] = []
        while k < n and tagged[k].pos == "JJ":
            collected.append((tagged[k].token.text, "JJ"))
            k += 1
        if k < n and tagged[k].pos in NOUN_TAGS:
            collected.append((tagged[k].token.text, tagged[k].pos))
            k += 1
        if collected:
            out.extend(collected)
            i = k
        else:
            i = j
    return out


@dataclass
class SelfReportLexicon:
    """Per-word description counts backing the co-occurrence score.

    os_counts[w] = number of descriptions where w was extracted as a
    self-report word; o_counts[w] = number of descriptions containing w as a
    token at all. S is the set of words with os_counts > 0.
    """
    os_counts: dict[str, int]
    o_counts: dict[str, int]
    total_selfreport: int = field(init=False)

    def __post_init__(self):
        for word, os_count in self.os_counts.items():
            _check_counts(word, os_count, self.o_counts.get(word, 0))
        self.total_selfreport = sum(self.os_counts.values())

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


def selfreport_words(tagged: list[TaggedToken], tag_lexicon: TagLexicon,
                     allow_im: bool = False) -> set[str]:
    """Kept self-report words of one tagged description.

    Kept words must be singular (no NNS/NNPS) and their extracted tag must
    equal the lexicon majority tag, so out-of-vocabulary words never enter S.
    """
    return {word for word, pos
            in extract_selfreport_candidates(tagged, allow_im=allow_im)
            if pos not in PLURAL_TAGS and tag_lexicon.tags.get(word) == pos}


class SelfReportCounter:
    """O_s and O counts, added one tagged description at a time.

    Counting is per-description: a description mentioning a word twice still
    contributes one to each counter.
    """

    def __init__(self, tag_lexicon: TagLexicon, allow_im: bool = False):
        self.tag_lexicon = tag_lexicon
        self.allow_im = allow_im
        self.os_counter: Counter[str] = Counter()
        self.o_counter: Counter[str] = Counter()

    def add(self, tagged: list[TaggedToken]) -> None:
        self.os_counter.update(selfreport_words(tagged, self.tag_lexicon,
                                                self.allow_im))
        self.o_counter.update({tt.token.text for tt in tagged})

    def lexicon(self) -> SelfReportLexicon:
        os_counts = dict(self.os_counter)
        o_counts = {word: self.o_counter[word] for word in os_counts}
        return SelfReportLexicon(os_counts=os_counts, o_counts=o_counts)


def build_selfreport_lexicon(corpus: Iterable, tag_lexicon: TagLexicon,
                             allow_im: bool = False) -> SelfReportLexicon:
    """Count O_s and O per description over the corpus: anything with a
    description, such as UserRecord or cli.Description."""
    counter = SelfReportCounter(tag_lexicon, allow_im=allow_im)
    for record in corpus:
        counter.add(pos_tag(tokenize(record.description), tag_lexicon))
    return counter.lexicon()
