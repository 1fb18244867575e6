"""The description pass as it was before it ran on code strings: tokenize
to Token records with spans, pos_tag to TaggedToken records, then the
self-report pattern, the query matcher, the filters, the score and the
tuning search as Python loops over those records. Kept as the oracle of the
program's pass (tests/test_description_pass.py); nothing here is fast.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from identminer.filters import DEFAULT_QUERY_MAP, PERSON_KEYWORDS, ClassLabel
from identminer.resources import load_contractions
from identminer.textprep import _TOKEN_RE

SENTINEL_TAGS = {"hashtag": "HT", "mention": "USR", "url": "URL",
                 "emoji": "EMJ", "punct": "PCT"}
NOUN_TAGS = ("NN", "NNS", "NNPS")
PLURAL_TAGS = ("NNS", "NNPS")
WEIGHTINGS = ("simple", "tfidf")


class Token(NamedTuple):
    text: str
    kind: str  # word | hashtag | mention | url | emoji | punct | contraction
    char_span: tuple[int, int]


class TaggedToken(NamedTuple):
    token: Token
    pos: str


class ReferenceMatch(NamedTuple):
    keyword: str
    label: ClassLabel
    token_index: int
    char_span: tuple[int, int]


def reference_tokenize(text: str) -> list[Token]:
    contractions = load_contractions()
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token, kind = match[0].lower(), match.lastgroup
        if kind == "word" and ("'" in token or "’" in token):
            normalized = token.replace("’", "'")
            if normalized in contractions:
                token, kind = normalized, "contraction"
        tokens.append(Token(token, kind, match.span()))
    return tokens


def reference_pos_tag(tokens, tags: dict[str, str]) -> list[TaggedToken]:
    return [TaggedToken(token, SENTINEL_TAGS.get(token.kind)
                        or tags.get(token.text, "NN"))
            for token in tokens]


def reference_tag(text: str, tags: dict[str, str]) -> list[TaggedToken]:
    return reference_pos_tag(reference_tokenize(text), tags)


def _match_trigger(tagged, i: int, allow_im: bool) -> int:
    text = tagged[i].token.text
    if text == "i'm":
        return i + 1
    if text == "i" and i + 1 < len(tagged) and tagged[i + 1].token.text == "am":
        return i + 2
    if allow_im and text == "im":
        return i + 1
    return -1


def reference_extract(tagged, allow_im: bool = False) -> list[tuple[str, str]]:
    out = []
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
        collected = []
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


def reference_selfreport_words(tagged, tags: dict[str, str],
                               allow_im: bool = False) -> set[str]:
    return {word for word, pos in reference_extract(tagged, allow_im)
            if pos not in PLURAL_TAGS and tags.get(word) == pos}


def reference_lexicon_counts(texts, tags: dict[str, str],
                             allow_im: bool = False) -> tuple[dict, dict]:
    """(O_s, O) counts of the words of S over the texts."""
    os_counter, o_counter = Counter(), Counter()
    for text in texts:
        tagged = reference_tag(text, tags)
        os_counter.update(reference_selfreport_words(tagged, tags, allow_im))
        o_counter.update({tt.token.text for tt in tagged})
    return dict(os_counter), {word: o_counter[word] for word in os_counter}


def reference_find_query_matches(tagged) -> list[ReferenceMatch]:
    return [ReferenceMatch(tt.token.text, DEFAULT_QUERY_MAP[tt.token.text], i,
                           tt.token.char_span)
            for i, tt in enumerate(tagged)
            if tt.token.text in DEFAULT_QUERY_MAP]


def reference_quoted_spans(raw_text: str) -> list[tuple[int, int]]:
    spans = []
    for opener, closer in (('"', '"'), ("“", "”")):
        if opener == closer:
            positions = [i for i, ch in enumerate(raw_text) if ch == opener]
            for a, b in zip(positions[0::2], positions[1::2]):
                spans.append((a, b))
        else:
            closers = [i for i, ch in enumerate(raw_text) if ch == closer]
            used = set()
            for a in (i for i, ch in enumerate(raw_text) if ch == opener):
                nxt = next((b for b in closers if b > a and b not in used),
                           None)
                if nxt is not None:
                    used.add(nxt)
                    spans.append((a, nxt))
    return spans


def reference_filter_chain(tagged, raw_text: str, match, filters,
                           colors, blocklist) -> tuple[str, ...]:
    i = match.token_index
    start, end = match.char_span
    verdicts = {
        "color": any(tt.token.kind == "word" and tt.token.text in colors
                     for k, tt in enumerate(tagged) if k != i),
        "plural": i + 1 < len(tagged) and tagged[i + 1].pos in PLURAL_TAGS,
        "bigram_blocklist": (
            (i + 1 < len(tagged)
             and (match.keyword, tagged[i + 1].token.text) in blocklist)
            or (i > 0 and (tagged[i - 1].token.text, match.keyword)
                in blocklist)),
        "quote": any(a < start and end - 1 < b
                     for a, b in reference_quoted_spans(raw_text)),
    }
    return tuple(name for name in ("color", "plural", "bigram_blocklist",
                                   "quote")
                 if name in filters and verdicts[name])


def reference_person_bigram(tagged, match) -> bool:
    nxt = match.token_index + 1
    return nxt < len(tagged) and tagged[nxt].token.text in PERSON_KEYWORDS


def reference_score(tagged, token_index: int, lexicon, window: int,
                    weighting: str) -> float:
    if len(lexicon) == 0:
        raise ValueError("self-report lexicon is empty")
    word_positions = [i for i, tt in enumerate(tagged)
                      if tt.token.kind == "word"]
    try:
        query_pos = word_positions.index(token_index)
    except ValueError:
        return 0.0
    value = 0.0
    for pos, index in enumerate(word_positions):
        distance = abs(pos - query_pos)
        if distance == 0 or distance > window:
            continue
        word = tagged[index].token.text
        if word not in lexicon:
            continue
        os_count = lexicon.os_counts[word]
        term = (1.0 / distance) * (os_count / lexicon.o_counts[word])
        if weighting == "tfidf":
            term = term * math.log(lexicon.total_selfreport / os_count)
        value += term
    return value


def reference_precision_recall(scores, labels, threshold):
    tp = fp = fn = 0
    for score, label in zip(scores, labels):
        predicted = score >= threshold
        if predicted and label:
            tp += 1
        elif predicted and not label:
            fp += 1
        elif not predicted and label:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def reference_tune(tuning_set, lexicon, grid):
    """tuning_set: (reference tagged tokens, token index, label) rows."""
    labels = [bool(label) for _, _, label in tuning_set]
    if not any(labels) or all(labels):
        raise ValueError("tuning set needs at least one positive and one "
                         "negative")
    scores = {}
    best_key = best = None
    for params in grid:
        key = (params.window, params.weighting)
        if key not in scores:
            scores[key] = [reference_score(tagged, index, lexicon, *key)
                           for tagged, index, _ in tuning_set]
        precision, recall = reference_precision_recall(scores[key], labels,
                                                       params.threshold)
        if precision is None:
            continue
        rank = (-precision, -recall, params.window, params.threshold,
                WEIGHTINGS.index(params.weighting))
        if best_key is None or rank < best_key:
            best_key, best = rank, (params, precision, recall)
    if best_key is None:
        raise ValueError("no grid point yields a positive prediction")
    return best
