"""util.read_rows and the seven readers built on it: what each skips, what
each keeps, and that a bad line only ever comes out as ValueError("PATH:N:
reason")."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer import resources
from identminer.datasets import read_dataset_tsv
from identminer.models.features import read_embeddings
from identminer.scorer import read_tuning_tsv
from identminer.textprep import SelfReportLexicon, TagLexicon
from identminer.util import read_rows

EMBEDDING = " ".join(str(i / 768) for i in range(768))

# reader -> (read, LF fixture, whether # lines are comments). The caching
# loaders are read through __wrapped__, so a rewritten file is read again.
READERS = {
    "dataset": (read_dataset_tsv, "u1\tW\t0.5\tQB\nu2\tB\t\tcrowd\n", False),
    "tuning": (read_tuning_tsv, "u1\tyes\ta1\nu1\tno\ta2\n", False),
    "lexicon": (SelfReportLexicon.from_tsv, "proud\t1\t2\nblack\t2\t5\n",
                False),
    "tag lexicon": (TagLexicon.from_tsv, "Cat\tNN\nred\tJJ\n", True),
    "embeddings": (read_embeddings, f"u1\t{EMBEDDING}\nu2\t{EMBEDDING}\n",
                   False),
    "word list": (resources.load_wordlist, "Red\nblue\n", True),
    "blocklist": (resources.load_bigram_blocklist.__wrapped__,
                  "light skin\nDark  Skin\n", True),
}


def comparable(value):
    """The reader's value, with embedding rows as lists so == compares it."""
    if isinstance(value, dict):
        return {key: row.tolist() for key, row in value.items()}
    return value


def read_text(tmp_path, reader, text, name="input.tsv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return comparable(READERS[reader][0](path))


@pytest.mark.parametrize("reader", READERS)
def test_crlf_blank_and_comment_copies_read_as_the_lf_original(tmp_path, reader):
    _, text, comments = READERS[reader]
    original = read_text(tmp_path, reader, text)
    lines = text.splitlines()
    copies = {
        "crlf": "\r\n".join(lines) + "\r\n",
        "blank": "\n" + "\n\n".join(lines) + "\n\n",
        "crlf-blank": "\r\n" + "\r\n\r\n".join(lines),
    }
    if comments:
        copies["comments"] = "# a comment\n" + "\n#\tNN\n".join(lines) + "\n#"
        copies["trimmed"] = "".join(f"  {line} \t\n" for line in lines)
    for name, copy in copies.items():
        assert read_text(tmp_path, reader, copy, f"{name}.tsv") == original, \
            name


@pytest.mark.parametrize("reader, row", [
    ("dataset", "#u3\tA\t\tcrowd"),
    ("tuning", "#u3\tunsure\ta1"),
    ("lexicon", "#tag\t1\t1"),
    ("embeddings", f"#u3\t{EMBEDDING}"),
])
def test_hash_lines_are_rows_where_the_file_has_no_comments(tmp_path, reader,
                                                           row):
    _, text, _ = READERS[reader]
    original = read_text(tmp_path, reader, text)
    with_row = read_text(tmp_path, reader, text + row + "\n", "hash.tsv")
    assert len(with_row) == len(original) + 1


def test_read_rows_splits_at_tabs_and_names_the_bad_line(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"a\tb\r\n\nc\t\n")
    assert read_rows(path, tuple) == [("a", "b"), ("c", "")]

    def two_fields(fields):
        if len(fields) != 2:
            raise ValueError("expected 2 fields")
        return fields

    path.write_bytes(b"a\tb\n\nc\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                                         "expected 2 fields$"):
        read_rows(path, two_fields)
    path.write_bytes(b"a\tb\nc\xe9\td\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "
                                         "'utf-8' codec can't decode"):
        read_rows(path, tuple)


def test_read_rows_unique_rejects_a_repeated_first_field(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("a\t1\nb\t1\na\t2\n", encoding="utf-8")
    assert len(read_rows(path, tuple)) == 3
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "
                                         "repeated key 'a'$"):
        read_rows(path, tuple, unique="key")


def test_read_rows_comments_trim_and_skip_hash_lines(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("  # note\n\t\n a b \n#x\n", encoding="utf-8")
    assert read_rows(path, tuple, comments=True) == [("a b",)]
    assert read_rows(path, tuple) == [("  # note",), ("", ""), (" a b ",),
                                      ("#x",)]


@pytest.mark.parametrize("text, reason", [
    ("proud\t1_0\t20\n", "count '1_0' is not ASCII digits"),
    ("proud\t+7\t20\n", "count '+7' is not ASCII digits"),
    ("proud\t7\t 20\n", "count ' 20' is not ASCII digits"),
    ("proud\t٧\t20\n", "count '٧' is not ASCII digits"),
    ("proud\t3\t2\n", "bad counts for 'proud': O_s=3, O=2"),
    ("proud\t0\t2\n", "bad counts for 'proud': O_s=0, O=2"),
    ("proud\t1\t2\tx\n", "expected word<TAB>O_s<TAB>O"),
])
def test_lexicon_counts_are_ascii_digits_with_valid_bounds(tmp_path, text,
                                                           reason):
    path = tmp_path / "lex.tsv"
    path.write_text("black\t1\t1\n" + text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "
                                         f"{re.escape(reason)}$"):
        SelfReportLexicon.from_tsv(path)


def test_blocklist_entry_keeps_its_text_in_the_error(tmp_path):
    path = tmp_path / "block.txt"
    path.write_text("light skin\n One Two\tThree \n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: blocklist entry 'One Two\\tThree' is not a bigram")):
        resources.load_bigram_blocklist.__wrapped__(path)


# byte pieces where the line format meets its parsers: separators, comment
# and line-end marks, invalid UTF-8, field values, and every good fixture row
PIECES = (b"\t", b" ", b"#", b"\r", b"\xe9", b"\xff", b"\xc3", b"\xa9",
          b"\xe2\x80\xa8", b"u1", b"W", b"QB", b"yes", b"NN", b"1", b"0.5",
          b"nan", b"1e999", b"_", b"\xd9\xa7",
          *sorted({line.encode("utf-8") for _, text, _ in READERS.values()
                   for line in text.splitlines()}))


def byte_lines():
    line = st.one_of(st.binary(max_size=30),
                     st.lists(st.sampled_from(PIECES), max_size=8)
                     .map(b"".join))
    return st.lists(line.map(lambda raw: raw.replace(b"\n", b"")),
                    min_size=1, max_size=6)


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=60)
@given(lines=byte_lines())
def test_hostile_lines_only_raise_value_error_naming_their_line(
        example_dir, reader, lines):
    path = example_dir / "input.tsv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        READERS[reader][0](path)
    except ValueError as exc:
        found = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert found, str(exc)
        assert 1 <= int(found.group(1)) <= len(lines)
