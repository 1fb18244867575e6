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
text and reads its kind off the text's first characters. Neither calls a
Python function per token.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

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
# token kinds in the order of _TOKEN_RE's groups, as findall returns them
_KINDS = tuple(sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get))
_WORD = _KINDS.index("word")


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


# the packaged contraction list, bound on first use (resources imports this
# module, so it cannot be loaded at import time)
_default_contractions: frozenset[str] | None = None


def _load_default_contractions() -> frozenset[str]:
    global _default_contractions
    from . import resources
    _default_contractions = resources.load_contractions()
    return _default_contractions


def _text_and_kind(groups: tuple[str, ...]) -> tuple[str, str]:
    """(lowercased text, kind) of one match, from its groups: one per kind in
    _KINDS order, of which only the matched one is non-empty."""
    word = groups[_WORD].lower()
    if not word:
        token = max(groups)  # "" sorts first
        return token.lower(), _KINDS[groups.index(token)]
    if "'" in word or "’" in word:
        normalized = word.replace("’", "'")
        if normalized in (_default_contractions or _load_default_contractions()):
            return normalized, "contraction"
    return word, "word"


def tokenize(text: str) -> list[Token]:
    """Split text into typed tokens with character spans.

    Joining the source slices of consecutive tokens with the original
    inter-token whitespace reconstructs the input exactly.
    """
    return [_new_token((*_text_and_kind(match.groups("")), match.span()))
            for match in _TOKEN_RE.finditer(text)]


class TweetTokens(NamedTuple):
    """The lowercased texts of tokenize(text)'s tokens, without spans, by
    kind, each list in token order."""
    words: list[str]   # word and contraction tokens
    links: list[str]   # url and mention tokens
    others: list[str]  # hashtag, emoji and punct tokens
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
    characters of _EMOJI_RANGES; built on first use, not at import."""
    def capturing(kept: str | None) -> re.Pattern:
        return re.compile(re.sub(
            r"\(\?P<(\w+)>", lambda group: "(" if group[1] == kept else "(?:",
            _TOKEN_RE.pattern))
    ranges = _EMOJI_RANGES[::3], _EMOJI_RANGES[2::3]  # "a-b" per range
    emoji = frozenset(chr(code) for first, last in zip(*ranges)
                      for code in range(ord(first), ord(last) + 1))
    return capturing(None), capturing("word"), emoji


def tweet_words(text: str) -> list[str]:
    """The texts of tokenize(text)'s word and contraction tokens, in order.

    No token holds whitespace, so tweet_words of several texts joined by
    newlines is the concatenation of tweet_words of each: one scan serves
    many tweets.
    """
    words = list(map(str.lower, filter(None, _tweet_scans()[1].findall(text))))
    if "’" in text:
        contractions = _default_contractions or _load_default_contractions()
        for i, word in enumerate(words):
            if "’" in word and word.replace("’", "'") in contractions:
                words[i] = word.replace("’", "'")
    return words


def tweet_tokens(text: str) -> TweetTokens:
    """The tokens of tokenize(text), sorted by kind (see TweetTokens).

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
    """
    scan, _, emoji = _tweet_scans()
    contraction_set = _default_contractions or _load_default_contractions()
    words, links, others = [], [], []
    contractions = hashtags = 0
    for token in scan.findall(text):
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
                hashtags += 1
        elif lead.isalnum() or lead == "_":  # \w
            if lead in "hw" and token.startswith(_URL_PREFIXES):
                links.append(lowered)
                continue
            if "'" in lowered or "’" in lowered:
                normalized = lowered.replace("’", "'")
                if normalized in contraction_set:
                    lowered = normalized
                    contractions += 1
            words.append(lowered)
        else:  # punct
            others.append(lowered)
    return _new_tweet_tokens((words, links, others, contractions, hashtags))


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
