import gc
import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import settings

pytest_plugins = ["pytester"]

# property tests call the real pipeline functions, whose first call can be
# slow (resource loading, numpy import); no per-example deadline
settings.register_profile("identminer", deadline=None)
settings.load_profile("identminer")


def pytest_collection_finish(session):
    # the modules, strategies and tables loaded so far live to the session's
    # end: moved out of the collector's reach, the full collections that the
    # property tests' garbage sets off need not scan them each time
    gc.freeze()


@pytest.fixture
def rng():
    return random.Random(20240601)


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    """One directory for every example of a module's property tests: each
    example overwrites the files it writes there, where a directory of its
    own would cost a scan of all the session's directories."""
    return tmp_path_factory.mktemp("examples")


# fixture name -> [its directory, {file: sha256}, {file: (size, mtime)}]
SHARED: dict[str, list] = {}


def _files(root: Path, key) -> dict:
    return {str(path): key(path) for path in sorted(root.rglob("*"))
            if path.is_file()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stat(path: Path) -> tuple[int, int]:
    return path.stat().st_size, path.stat().st_mtime_ns


def _changed(built: dict, now: dict) -> list[str]:
    return sorted(name for name in built.keys() | now.keys()
                  if built.get(name) != now.get(name))


@pytest.fixture(scope="session")
def shared(tmp_path_factory):
    """shared(request, build) runs build(directory) once, in a directory
    named after the fixture of request, makes what it wrote read-only and
    returns what build returns. The tests of that fixture only read the
    directory: after each of them every file must keep its size and mtime,
    and at the session's end its sha256, so that a test which writes into
    it fails by name instead of leaving the tests after it depending on the
    order they run in."""
    def build(request, fill):
        root = tmp_path_factory.mktemp(request.fixturename)
        value = fill(root)
        for path in [root, *root.rglob("*")]:
            path.chmod(path.stat().st_mode & 0o555)
        SHARED[request.fixturename] = [root, _files(root, _sha256),
                                       _files(root, _stat)]
        return value

    yield build
    changed = {name: _changed(digests, _files(root, _sha256))
               for name, (root, digests, _) in SHARED.items()}
    if any(changed.values()):
        pytest.fail(f"shared fixture files changed after they were built: "
                    f"{changed}", pytrace=False)


@pytest.fixture(autouse=True)
def _shared_fixtures_kept(request):
    yield
    for name in set(request.fixturenames) & SHARED.keys():
        now = _files(SHARED[name][0], _stat)
        # the tests after this one are not blamed for its write
        changed, SHARED[name][2] = _changed(SHARED[name][2], now), now
        if changed:
            pytest.fail(f"{request.node.nodeid} wrote into shared fixture "
                        f"{name}: {changed}", pytrace=False)


@pytest.fixture(scope="session")
def timelines(request, shared) -> dict[int, Path]:
    """The benchmark's timelines workload (perfbench/corpus.py) at seeds 3
    and 5: seed -> the directory of its corpus.jsonl and train.tsv."""
    from helpers import load_perfbench

    def build(root):
        for seed in (3, 5):
            load_perfbench("corpus").generate("timelines", seed,
                                              root / str(seed))
        return {seed: root / str(seed) for seed in (3, 5)}

    return shared(request, build)
