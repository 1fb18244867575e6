import itertools
import random

import pytest

from identminer import resources
from identminer.filters import (AMBIGUOUS, CLASS_ORDER, FILTER_NAMES,
                                NO_MATCH, ClassLabel, FilterConfig,
                                FilterOutcome, apply_filter_chain,
                                assign_class, blocklist_bigram_filter,
                                color_filter, find_query_matches,
                                person_bigram_match, plural_filter,
                                quote_filter)

from helpers import tag

COLORS = resources.load_colors()
BLOCKLIST = resources.load_bigram_blocklist()
NO_FILTERS = FilterConfig(False, False, False, False)


def first_match(text):
    matches = find_query_matches(tag(text))
    assert matches, f"no query match in {text!r}"
    return matches[0]


def chain(text, config=FilterConfig()):
    tagged = tag(text)
    match = first_match(text)
    return apply_filter_chain(tagged, text, match, config, COLORS, BLOCKLIST)


# ---------------------------------------------------------------------------
# matching and class assignment

def test_class_label_codes():
    assert [label.value for label in CLASS_ORDER] == ["W", "B", "HL", "A"]
    assert ClassLabel.from_code("HL") is ClassLabel.HISPANIC_LATINX
    with pytest.raises(ValueError):
        ClassLabel.from_code("X")


def test_find_query_matches_all_occurrences():
    matches = find_query_matches(tag("black coffee and black tea"))
    assert [m.token_index for m in matches] == [0, 3]
    assert all(m.keyword == "black" and m.label is ClassLabel.BLACK
               for m in matches)


def test_find_query_matches_is_case_insensitive():
    text = "Proud LATINA here"
    match = first_match(text)
    assert match.keyword == "latina"
    assert match.label is ClassLabel.HISPANIC_LATINX
    start, end = match.char_span
    assert text[start:end] == "LATINA"


def test_find_query_matches_whole_token_only():
    # "blackbird" must not match "black"
    assert find_query_matches(tag("blackbird spotting")) == []
    # nor the split spelling "african american" the african-american keyword
    assert find_query_matches(tag("proud african american writer")) == []


@pytest.mark.parametrize("word,code", [
    ("white", "W"), ("caucasian", "W"), ("black", "B"),
    ("african-american", "B"), ("hispanic", "HL"), ("latin", "HL"),
    ("latina", "HL"), ("latino", "HL"), ("latinx", "HL"), ("asian", "A"),
])
def test_query_map_covers_all_keywords(word, code):
    assert first_match(f"the {word} one").label.value == code


def test_assign_class_sentinels():
    assert assign_class([]) is NO_MATCH
    single = find_query_matches(tag("black coffee and black tea"))
    assert assign_class(single) is ClassLabel.BLACK
    mixed = find_query_matches(tag("black and white movies"))
    assert assign_class(mixed) is AMBIGUOUS


def test_assign_class_order_independent(rng):
    matches = find_query_matches(tag("black tea black sky black cat"))
    shuffled = matches[:]
    rng.shuffle(shuffled)
    assert assign_class(shuffled) is assign_class(matches)


# ---------------------------------------------------------------------------
# individual filters

def test_color_filter_rejects_second_color():
    text = "black and red outfit"
    outcome = color_filter(tag(text), first_match(text), COLORS)
    assert outcome == FilterOutcome(False, "color")


def test_color_filter_ignores_query_occurrence_itself():
    text = "black belt holder"
    assert color_filter(tag(text), first_match(text), COLORS).passed


def test_color_filter_counts_other_query_colors():
    text = "black and white movies"
    matches = find_query_matches(tag(text))
    for match in matches:
        assert not color_filter(tag(text), match, COLORS).passed


def test_plural_filter_rejects_plural_successor():
    text = "white people watcher"
    outcome = plural_filter(tag(text), first_match(text))
    assert outcome == FilterOutcome(False, "plural")


def test_plural_filter_passes_singular_and_end_of_text():
    text = "white person here"
    assert plural_filter(tag(text), first_match(text)).passed
    text = "i am black"
    assert plural_filter(tag(text), first_match(text)).passed


def test_blocklist_checks_both_sides():
    text = "black sheep of the family"
    outcome = blocklist_bigram_filter(tag(text), first_match(text), BLOCKLIST)
    assert outcome == FilterOutcome(False, "bigram_blocklist")
    text = "jet black everything"
    outcome = blocklist_bigram_filter(tag(text), first_match(text), BLOCKLIST)
    assert outcome == FilterOutcome(False, "bigram_blocklist")
    text = "black sky tonight"
    assert blocklist_bigram_filter(tag(text), first_match(text), BLOCKLIST).passed


def test_quote_filter_rejects_quoted_query():
    text = '"i am black" she said'
    assert quote_filter(text, first_match(text)) == FilterOutcome(False, "quote")
    text = "she said “i am black” once"
    assert quote_filter(text, first_match(text)) == FilterOutcome(False, "quote")


def test_quote_filter_passes_outside_and_unbalanced():
    text = 'she said "hi" and i am black'
    assert quote_filter(text, first_match(text)).passed
    text = 'just one " then i am black'
    assert quote_filter(text, first_match(text)).passed


def test_person_bigram_match():
    text = "proud black woman here"
    assert person_bigram_match(tag(text), first_match(text))
    text = "proud black farmer here"
    assert not person_bigram_match(tag(text), first_match(text))
    text = "i am black"
    assert not person_bigram_match(tag(text), first_match(text))


# ---------------------------------------------------------------------------
# configuration and the chain

def test_filter_config_from_names():
    config = FilterConfig.from_names(["color", "quote"])
    assert config == FilterConfig(color=True, plural=False, bigram=False,
                                  quote=True)
    # long name used in reports is accepted too
    assert FilterConfig.from_names(["bigram_blocklist"]).bigram
    assert FilterConfig.from_names([]) == NO_FILTERS
    with pytest.raises(ValueError):
        FilterConfig.from_names(["sparkle"])


def test_filter_outcome_consistency_enforced():
    with pytest.raises(ValueError):
        FilterOutcome(True, "color")
    with pytest.raises(ValueError):
        FilterOutcome(False, None)


def test_filter_outcome_rejected_by():
    assert FilterOutcome(True).rejected_by == ()
    assert FilterOutcome(False, "color").rejected_by == ("color",)
    both = FilterOutcome(False, "color", ("color", "quote"))
    assert both.rejected_by == ("color", "quote")
    with pytest.raises(ValueError):
        FilterOutcome(False, "quote", ("color", "quote"))
    with pytest.raises(ValueError):
        FilterOutcome(True, None, ("color",))


def test_chain_lists_every_rejecting_filter_in_chain_order():
    # trips color (red elsewhere) and plural (people next), nothing else
    text = "red black people fans"
    assert chain(text).rejected_by == ("color", "plural")
    assert chain(text, config=FilterConfig(color=False)).rejected_by == ("plural",)
    assert chain(text, config=NO_FILTERS).rejected_by == ()


def test_chain_first_rejection_wins():
    # trips both color (red elsewhere) and plural (people next)
    text = "red black people fans"
    outcome = chain(text)
    assert outcome.rejecting_filter == "color"
    outcome = chain(text, config=FilterConfig(color=False))
    assert outcome.rejecting_filter == "plural"
    outcome = chain(text, config=FilterConfig(color=False, plural=False))
    assert outcome.passed


def test_chain_respects_disabled_filters():
    text = "black and red outfit"
    assert not chain(text).passed
    assert chain(text, config=NO_FILTERS).passed


def test_chain_rejecting_names_match_report_names():
    cases = {
        "black and red outfit": "color",
        "white people watcher": "plural",
        "black sheep of the family": "bigram_blocklist",
        '"i am black" she said': "quote",
    }
    for text, expected in cases.items():
        assert chain(text).rejecting_filter == expected
        assert expected in FILTER_NAMES


def _subset_configs():
    for bits in itertools.product((False, True), repeat=4):
        yield FilterConfig(*bits)


def _enabled(config):
    return {f for f in ("color", "plural", "bigram", "quote")
            if getattr(config, f)}


def test_chain_pass_set_shrinks_as_filters_enable(rng):
    fragments = ["black", "and red", "people", "sheep", '"i am black"',
                 "farmer", "jet", "tea time", "person"]
    texts = []
    for _ in range(120):
        n = rng.randrange(1, 5)
        texts.append(" ".join(rng.choice(fragments) for _ in range(n)))
    configs = list(_subset_configs())
    checked = 0
    for text in texts:
        tagged = tag(text)
        for match in find_query_matches(tagged):
            passed = {config: apply_filter_chain(tagged, text, match, config,
                                                 COLORS, BLOCKLIST).passed
                      for config in configs}
            for config_a in configs:
                for config_b in configs:
                    if _enabled(config_a) <= _enabled(config_b) and passed[config_b]:
                        assert passed[config_a]
                        checked += 1
    assert checked > 0
