#!/usr/bin/env python3
"""Recompute bench/pins.json from the current program.

    python3 bench/make_pins.py --seeds 1-16 --size full
    python3 bench/make_pins.py --seeds 3 --size tiny

Pins are the output digests the benchmark compares every run against, so a
change that alters any output fails loudly. Regenerate them only for a
change whose outputs are meant to differ, and say so in that change. A pin
is written only when the batch also passes its oracle checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", required=True, help="N or A-B")
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--workloads", default="frey,bounds,campaign,reproduce")
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    run.load_program()
    import workloads

    pins = workloads.PINS
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "pins"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        for name in args.workloads.split(","):
            cls = workloads.WORKLOADS[name]
            if name == "reproduce":
                wl = cls(seeds[0], "full", workdir)
                wl.generate()
                batch = wl.run_batch()
                bad = [e for e in wl.check(batch) + batch.errors
                       if "differs from its pin" not in e and "changed" not in e]
                if bad:
                    print(f"reproduce: not pinned: {bad}", file=sys.stderr)
                    return 1
                outs = {label: proc.stdout for label, proc in batch.outputs}
                pins["reproduce"] = {
                    "stdout": {k: hashlib.sha256(v.encode()).hexdigest()
                               for k, v in sorted(outs.items())},
                    "beal_ledger_hash": json.loads(outs["count_beal"])["ledger_hash"],
                    "beal_ledger_file": hashlib.sha256(wl.ledger_text.encode()).hexdigest(),
                }
                print("reproduce pinned")
                continue
            for seed in seeds:
                wl = cls(seed, args.size, workdir)
                wl.generate()
                batch = wl.run_batch()
                bad = batch.errors + wl.check(batch)
                if bad:
                    print(f"{name} seed {seed}: not pinned: {bad[:3]}", file=sys.stderr)
                    return 1
                pins.setdefault(name, {}).setdefault(args.size, {})[str(seed)] = batch.digest
                print(f"{name} {args.size} seed {seed}: {batch.digest[:16]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
