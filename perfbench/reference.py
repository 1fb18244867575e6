"""Fixed reference job for speed normalisation; imports nothing from the
program, so a change to the program never moves its time.

    python perfbench/reference.py

A fresh process, like every subcommand, that builds, encodes, decodes and
tokenizes a fixed set of records in newly allocated memory. The benchmark
times it from spawn to exit before every subcommand (run.py, Runner).
"""
from __future__ import annotations

import json
import re

TOKEN = re.compile(r"(?P<url>https?://\S+)|(?P<tag>[#@]\w+)"
                   r"|(?P<word>\w+(?:'\w+)*)|(?P<punct>[^\w\s]+)")
RECORDS = 6000


def main() -> None:
    lines = [json.dumps({"user_id": f"r{i}",
                         "text": f"i'm a proud teacher & coffee lover #{i % 97} "
                                 f"@u{i % 89} https://t.co/{i} back tonight",
                         "flags": list(range(i % 16))})
             for i in range(RECORDS)]
    counts: dict[str, int] = {}
    for record in map(json.loads, lines):
        for match in TOKEN.finditer(record["text"].lower()):
            token = match.group()
            counts[token] = counts.get(token, 0) + 1
    sorted(counts.items())


if __name__ == "__main__":
    main()
