"""Set-up probe: import the CLI and load every bundled resource, as each
subcommand does before it reads a corpus line.

    python perfbench/probe.py            # the timed set-up (no output)
    python perfbench/probe.py --timings  # print per-loader seconds as JSON

The benchmark times the whole process from spawn to exit.
"""
from __future__ import annotations

import json
import sys
import time

LOADERS = ("load_tag_lexicon", "load_stopwords", "load_contractions",
           "load_colors", "load_bigram_blocklist")


def main() -> int:
    start = time.perf_counter()
    import identminer.cli  # noqa: F401
    from identminer import resources
    timings = {"import_cli": time.perf_counter() - start}
    for loader in LOADERS:
        t0 = time.perf_counter()
        getattr(resources, loader)()
        timings[loader] = time.perf_counter() - t0
    if "--timings" in sys.argv[1:]:
        print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main())
