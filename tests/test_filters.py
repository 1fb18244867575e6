import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer import resources
from identminer.filters import (AMBIGUOUS, CLASS_ORDER, DEFAULT_QUERY_MAP,
                                FILTER_NAMES, NO_MATCH, ClassLabel,
                                apply_filter_chain, assign_class,
                                blocklist_bigram_filter, color_filter,
                                enabled_filters, find_query_matches,
                                person_bigram_match, plural_filter,
                                quote_filter)

from helpers import tag

COLORS = resources.load_colors()
BLOCKLIST = resources.load_bigram_blocklist()
NO_FILTERS = ()


def matches_of(text):
    return find_query_matches(tag(text), text)


def first_match(text):
    matches = matches_of(text)
    assert matches, f"no query match in {text!r}"
    return matches[0]


def chain(text, filters=FILTER_NAMES):
    tagged = tag(text)
    match = first_match(text)
    return apply_filter_chain(tagged, text, match, filters, COLORS, BLOCKLIST)


# ---------------------------------------------------------------------------
# matching and class assignment

def test_class_label_codes():
    assert [label.value for label in CLASS_ORDER] == ["W", "B", "HL", "A"]
    assert ClassLabel.from_code("HL") is ClassLabel.HISPANIC_LATINX
    with pytest.raises(ValueError):
        ClassLabel.from_code("X")


def test_find_query_matches_all_occurrences():
    matches = matches_of("black coffee and black tea")
    assert [m.token_index for m in matches] == [0, 3]
    assert all(m.keyword == "black" and m.label is ClassLabel.BLACK
               for m in matches)


def test_find_query_matches_is_case_insensitive():
    text = "Proud LATINA here"
    match = first_match(text)
    assert match.keyword == "latina"
    assert match.label is ClassLabel.HISPANIC_LATINX
    # the source span is taken only where the quote filter reads it
    assert match.char_span is None
    text = 'Proud "LATINA" here'
    start, end = first_match(text).char_span
    assert text[start:end] == "LATINA"


def test_find_query_matches_whole_token_only():
    # "blackbird" must not match "black"
    assert matches_of("blackbird spotting") == []
    # nor the split spelling "african american" the african-american keyword
    assert matches_of("proud african american writer") == []


@pytest.mark.parametrize("word,code", [
    ("white", "W"), ("caucasian", "W"), ("black", "B"),
    ("african-american", "B"), ("hispanic", "HL"), ("latin", "HL"),
    ("latina", "HL"), ("latino", "HL"), ("latinx", "HL"), ("asian", "A"),
])
def test_query_map_covers_all_keywords(word, code):
    assert first_match(f"the {word} one").label.value == code


def test_assign_class_sentinels():
    assert assign_class([]) is NO_MATCH
    single = matches_of("black coffee and black tea")
    assert assign_class(single) is ClassLabel.BLACK
    mixed = matches_of("black and white movies")
    assert assign_class(mixed) is AMBIGUOUS


def test_assign_class_order_independent(rng):
    matches = matches_of("black tea black sky black cat")
    shuffled = matches[:]
    rng.shuffle(shuffled)
    assert assign_class(shuffled) is assign_class(matches)


# ---------------------------------------------------------------------------
# individual filters (True means the filter rejects the match)

def test_color_filter_rejects_second_color():
    text = "black and red outfit"
    assert color_filter(tag(text), first_match(text), COLORS) is True


def test_color_filter_ignores_query_occurrence_itself():
    text = "black belt holder"
    assert not color_filter(tag(text), first_match(text), COLORS)


def test_color_filter_counts_other_query_colors():
    text = "black and white movies"
    matches = matches_of(text)
    for match in matches:
        assert color_filter(tag(text), match, COLORS)


def test_plural_filter_rejects_plural_successor():
    text = "white people watcher"
    assert plural_filter(tag(text), first_match(text)) is True


def test_plural_filter_passes_singular_and_end_of_text():
    text = "white person here"
    assert not plural_filter(tag(text), first_match(text))
    text = "i am black"
    assert not plural_filter(tag(text), first_match(text))


def test_blocklist_checks_both_sides():
    text = "black sheep of the family"
    assert blocklist_bigram_filter(tag(text), first_match(text),
                                   BLOCKLIST) is True
    text = "jet black everything"
    assert blocklist_bigram_filter(tag(text), first_match(text),
                                   BLOCKLIST) is True
    text = "black sky tonight"
    assert not blocklist_bigram_filter(tag(text), first_match(text), BLOCKLIST)


def test_quote_filter_rejects_quoted_query():
    text = '"i am black" she said'
    assert quote_filter(text, first_match(text)) is True
    text = "she said “i am black” once"
    assert quote_filter(text, first_match(text)) is True


def test_quote_filter_passes_outside_and_unbalanced():
    text = 'she said "hi" and i am black'
    assert not quote_filter(text, first_match(text))
    text = 'just one " then i am black'
    assert not quote_filter(text, first_match(text))


def test_person_bigram_match():
    text = "proud black woman here"
    assert person_bigram_match(tag(text), first_match(text))
    text = "proud black farmer here"
    assert not person_bigram_match(tag(text), first_match(text))
    text = "i am black"
    assert not person_bigram_match(tag(text), first_match(text))


# ---------------------------------------------------------------------------
# filter selection and the chain

def test_enabled_filters():
    assert enabled_filters(["quote", "color"]) == ("color", "quote")
    # the short config name and the long name used in reports both work
    assert enabled_filters(["bigram"]) == ("bigram_blocklist",)
    assert enabled_filters(["bigram_blocklist"]) == ("bigram_blocklist",)
    assert enabled_filters(["quote", "bigram", "plural", "color"]) == \
        FILTER_NAMES
    assert enabled_filters([]) == NO_FILTERS
    assert enabled_filters([" ", ""]) == NO_FILTERS
    # the CLI config rules reject any other name before this runs
    assert enabled_filters(["sparkle"]) == NO_FILTERS


def test_chain_lists_every_rejecting_filter_in_chain_order():
    # trips color (red elsewhere) and plural (people next), nothing else
    text = "red black people fans"
    assert chain(text) == ("color", "plural")
    assert chain(text, ("plural", "bigram_blocklist", "quote")) == ("plural",)
    assert chain(text, NO_FILTERS) == ()


def test_chain_first_rejection_wins():
    # trips both color (red elsewhere) and plural (people next)
    text = "red black people fans"
    assert chain(text)[0] == "color"
    assert chain(text, ("plural", "bigram_blocklist", "quote"))[0] == "plural"
    assert chain(text, ("bigram_blocklist", "quote")) == ()


def test_chain_respects_disabled_filters():
    text = "black and red outfit"
    assert chain(text)
    assert chain(text, NO_FILTERS) == ()


def test_chain_rejecting_names_match_report_names():
    cases = {
        "black and red outfit": "color",
        "white people watcher": "plural",
        "black sheep of the family": "bigram_blocklist",
        '"i am black" she said': "quote",
    }
    for text, expected in cases.items():
        assert chain(text)[0] == expected
        assert expected in FILTER_NAMES


def _subsets():
    for bits in itertools.product((False, True), repeat=4):
        yield tuple(name for name, bit in zip(FILTER_NAMES, bits) if bit)


def test_chain_pass_set_shrinks_as_filters_enable(rng):
    fragments = ["black", "and red", "people", "sheep", '"i am black"',
                 "farmer", "jet", "tea time", "person"]
    texts = []
    for _ in range(120):
        n = rng.randrange(1, 5)
        texts.append(" ".join(rng.choice(fragments) for _ in range(n)))
    subsets = list(_subsets())
    checked = 0
    for text in texts:
        tagged = tag(text)
        for match in find_query_matches(tagged, text):
            passed = {filters: not apply_filter_chain(tagged, text, match,
                                                      filters, COLORS,
                                                      BLOCKLIST)
                      for filters in subsets}
            for small in subsets:
                for large in subsets:
                    if set(small) <= set(large) and passed[large]:
                        assert passed[small]
                        checked += 1
    assert checked > 0


# every kind of word a filter looks at: query words, colors, plural nouns,
# blocklisted neighbours, quotes, and neutral filler
DESCRIPTION_WORDS = st.sampled_from(
    sorted(DEFAULT_QUERY_MAP) + ["red", "blue", "people", "fans", "girls",
                                 "sheep", "coffee", "jet", "pitch", "farmer",
                                 "woman", "i", "am", "a", "!",
                                 '"', "“", "”", '"i', 'black"'])


def _alone(name, tagged, text, match):
    """Whether the one named filter rejects the match, asked directly."""
    return {"color": lambda: color_filter(tagged, match, COLORS),
            "plural": lambda: plural_filter(tagged, match),
            "bigram_blocklist": lambda: blocklist_bigram_filter(tagged, match,
                                                                BLOCKLIST),
            "quote": lambda: quote_filter(text, match)}[name]()


@settings(max_examples=200)
@given(words=st.lists(DESCRIPTION_WORDS, min_size=1, max_size=12),
       filters=st.lists(st.sampled_from(FILTER_NAMES), unique=True))
def test_chain_is_the_enabled_filters_that_reject_alone(words, filters):
    text = " ".join(words)
    tagged = tag(text)
    for match in find_query_matches(tagged, text):
        expected = tuple(name for name in FILTER_NAMES
                         if name in filters
                         and _alone(name, tagged, text, match))
        assert apply_filter_chain(tagged, text, match, tuple(filters),
                                  COLORS, BLOCKLIST) == expected
