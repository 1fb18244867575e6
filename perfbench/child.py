"""Run one identminer subcommand in this process, traced or profiled.

    python perfbench/child.py --trace OUT.json -- dataset-build --kind hf ...
    python perfbench/child.py --profile OUT.txt -- train --model unigram ...

With --trace the layer boundaries are wrapped (see spans.py), the whole
``cli.main`` call is the root span, and the spans are written to OUT.json
when the subcommand returns. With --profile the call runs under cProfile and
the top 20 functions by cumulative time are written to OUT.txt. The exit
code is the subcommand's.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace")
    mode.add_argument("--profile")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        from identminer import cli
        root = tracer.name_id(f"cli.{argv[0]}")
        try:
            return tracer.span(root, cli.main, (argv,), {})
        finally:
            tracer.dump(args.trace)

    import cProfile
    import io
    import pstats
    from identminer import cli
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(cli.main, argv)
    finally:
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("cumulative") \
            .print_stats(20)
        Path(args.profile).write_text(buffer.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
