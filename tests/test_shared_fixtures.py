"""The guard on the shared fixtures of conftest.py, run in pytest sessions
of their own on planted writes."""
from pathlib import Path

TESTS = '''
import os
import pytest


@pytest.fixture(scope="module")
def built(request, shared):
    def fill(root):
        (root / "a.txt").write_text("a")
        return root / "a.txt"

    return shared(request, fill)


def test_reads(built):
    assert built.read_text() == "a"


def test_writes(built):
    stat = built.stat()
    # writable again, so that the write is made when not run as root too
    built.chmod(0o644)
    built.write_text("b")
    {restore}


def test_reads_after(built):
    assert built.stat().st_size == 1
'''


def run_planted(pytester, restore: str):
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text(
        encoding="utf-8"))
    pytester.makepyfile(TESTS.format(restore=restore))
    return pytester.runpytest("-p", "no:cacheprovider")


def test_a_test_that_writes_into_a_shared_fixture_fails_by_name(pytester):
    result = run_planted(pytester, "")
    # at its own teardown, not at the next test's, and at the session's end
    result.assert_outcomes(passed=3, errors=2)
    result.stdout.fnmatch_lines([
        "*ERROR at teardown of test_writes*",
        "*test_writes wrote into shared fixture built: *a.txt*",
        "shared fixture files changed after they were built: *a.txt*"])


def test_a_write_that_keeps_size_and_mtime_fails_at_the_session_end(
        pytester):
    result = run_planted(pytester, "os.utime(built, ns=(stat.st_atime_ns, "
                                   "stat.st_mtime_ns))")
    result.assert_outcomes(passed=3, errors=1)
    result.stdout.fnmatch_lines([
        "*ERROR at teardown of test_reads_after*",
        "shared fixture files changed after they were built: "
        "{'built': *a.txt*"])
