"""Run the gfekit command line in this interpreter, optionally traced.

    PYTHONPATH=src python3 bench/gfekit_cli.py [--trace-out PREFIX] -- ARGS...

runs `gfekit.cli.main` with ARGS, exactly as the `gfekit` console script
would. With --trace-out, the benchmark's tracer is installed after the import
and, when the command ends, the aggregates go to PREFIX.json and the kept
spans are appended to spans.jsonl next to it.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    argv = sys.argv[1:]
    prefix = None
    if argv[:1] == ["--trace-out"]:
        prefix, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if prefix is not None:
        import tracer as tracing
    t0 = time.perf_counter()
    import gfekit.cli

    import_s = time.perf_counter() - t0
    tr = tracing.install() if prefix is not None else None
    sys.argv = ["gfekit"] + argv
    try:
        gfekit.cli.main()
    finally:
        if tr is not None:
            hits, misses = tracing.structure_cache_stats()
            data = tr.snapshot()
            data.update(import_s=import_s, cache_hits=hits, cache_misses=misses,
                        unbound=tracing.unbound_originals(tr))
            prefix.with_suffix(".json").write_text(json.dumps(data))
            tr.write_spans(prefix.parent / "spans.jsonl", tag=prefix.name)


if __name__ == "__main__":
    main()
