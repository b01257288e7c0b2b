"""Span tracer installed from outside the program.

`install()` wraps the public functions of every gfekit layer and rebinds each
name that refers to them, in every loaded gfekit module, so that calls made
through `from .arith import factor`-style imports are traced too. `LinLog`
methods are patched on the class.

Every call is aggregated per span name (calls, self time) and
per (name, parent) edge. Self time is the span's duration minus the time its
child spans cover. Full span records (id, name, start, end, parent id) are
kept in memory up to `SPAN_CAP` and written out when the run ends; past the
cap only the aggregates grow, so a scan with millions of leaf calls stays
small.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 5_000

# Layer -> public functions wrapped in it. Configuration setters and getters
# are left out: they do no work and `get_precision` runs inside every sign.
# `ramification` is only table lookups inside other layers and is not traced.
LAYER_FUNCTIONS = {
    "arith": ("factor", "is_prime", "radical", "coprime_part", "k_full_part",
              "integer_nth_root", "is_perfect_power", "is_perfect_square",
              "small_primes"),
    "linlog": ("log_atom", "log_of_int"),
    "freycurves": ("abc_permutation", "invariants", "reduction_type",
                   "weierstrass_coefficients"),
    "bounds": ("default_profile", "derived_constants", "forbidden_interval",
               "elimination_from_constants", "lemma13_chain", "scenario",
               "certificate"),
    "structure": ("structure_profile", "xl_candidates", "general_rl_cap",
                  "general_rl_product_cap", "general_v2_sieve",
                  "general_x1_collapse_threshold", "threers_v2_product_cap",
                  "threers_v3_sieve", "threers_rl_product_cap",
                  "threers_collapse_threshold", "threers_exponent_range",
                  "threers_lpart_candidates", "twothree_admissible_t"),
    "search": ("enumerate_candidates", "check_pair", "check_power_tail",
               "small_z1_scan"),
    "campaign": ("build_p1_plan", "build_p2_plan", "build_p3_plan",
                 "explicit_box_task", "run_campaign", "run_task"),
    "catalog": ("classify_chi", "known_solutions", "catalan_family", "status",
                "count_remaining", "load_registry"),
    "cli": ("command_dispatch",),
}
LINLOG_METHODS = {"sign": "sign", "interval": "interval",
                  "precision_used": "precision_used", "__float__": "float"}
LAYERS = tuple(LAYER_FUNCTIONS)
# The public lru_cache sieves and caps of `structure`.
SIEVES = ("xl_candidates", "general_v2_sieve", "general_x1_collapse_threshold",
          "threers_v2_product_cap", "threers_v3_sieve", "threers_rl_product_cap",
          "threers_collapse_threshold", "twothree_admissible_t")


def _size_class(n) -> str:
    if n <= 10**6:
        return "le1e6"
    return "le1e12" if n <= 10**12 else "gt1e12"


def _count(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


class Tracer:
    """In-memory spans and aggregates for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []          # [name, start, child_time, span_id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self.originals: list[tuple[object, object]] = []  # (original, wrapper)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        clock = time.perf_counter
        stack = self.stack
        calls, self_time, edges = self.calls, self.self_time, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [name, clock(), 0.0, self._next_id]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                calls[name] += 1
                self_time[name] += own
                edges[(name, parent[0] if parent else "")] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[3], name, frame[1], end,
                                       parent[3] if parent else 0))
                else:
                    self.dropped += 1
                if hook is not None:
                    hook(self, args, kwargs, result, dur, own)

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        self.originals.append((fn, traced))
        return traced

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain JSON-ready data."""
        return {
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "edges": {f"{a}<{b}": n for (a, b), n in self.edges.items()},
            "extra": dict(self.extra),
            "span_count": len(self.spans) + self.dropped,
        }

    def write_spans(self, path, tag: str = "") -> None:
        with open(path, "a") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"proc": tag, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
            if self.dropped:
                fh.write(json.dumps({"proc": tag, "dropped": self.dropped}) + "\n")


# -- hooks for counts measured at the boundary ------------------------------


def _factor_hook(tr, args, kwargs, result, dur, own):
    n = args[0] if args else kwargs["n"]
    tr.extra[f"arith.factor.self_s.{_size_class(n)}"] += own


def _sign_hook(tr, args, kwargs, result, dur, own):
    if args[0].logs:
        tr.extra["linlog.sign_with_logs"] += 1


def _forbidden_hook(tr, args, kwargs, result, dur, own):
    tr.extra["bounds.results"] += 1
    if result is not None and result.applicable:
        tr.extra["bounds.applicable"] += 1


def _check_pair_hook(tr, args, kwargs, result, dur, own):
    tr.extra["search.check_pair.cells"] += _count(args[0]) * _count(args[2])


def _tail_hook(tr, args, kwargs, result, dur, own):
    m_range = args[3] if len(args) > 3 else kwargs["m_range"]
    tr.extra["search.check_power_tail.cells"] += _count(args[0]) * _count(m_range)


def _run_campaign_hook(tr, args, kwargs, result, dur, own):
    shards = kwargs.get("shards", 1)
    key = "shards1" if shards <= 1 else "shards2"
    tr.extra[f"campaign.run_campaign.{key}_s"] += dur
    if shards > 1:
        tr.extra["campaign.wait_s"] += own


HOOKS = {
    "arith.factor": _factor_hook,
    "linlog.LinLog.sign": _sign_hook,
    "bounds.forbidden_interval": _forbidden_hook,
    "search.check_pair": _check_pair_hook,
    "search.check_power_tail": _tail_hook,
    "campaign.run_campaign": _run_campaign_hook,
}


def install() -> Tracer:
    """Wrap every traced function and rebind every gfekit name bound to it."""
    import importlib

    tracer = Tracer()
    replace: dict[int, object] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"gfekit.{layer}")
        for fname in names:
            fn = getattr(mod, fname)
            name = f"{layer}.{fname}"
            replace[id(fn)] = tracer.wrap(name, fn, HOOKS.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gfekit" and not mod_name.startswith("gfekit."):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    from gfekit.linlog import LinLog

    for meth, label in LINLOG_METHODS.items():
        name = f"linlog.LinLog.{label}"
        setattr(LinLog, meth, tracer.wrap(name, getattr(LinLog, meth), HOOKS.get(name)))
    return tracer


def structure_cache_stats() -> tuple[int, int]:
    """(hits, misses) summed over structure's public lru_cache functions."""
    from gfekit import structure

    hits = misses = 0
    for name in SIEVES:
        info = getattr(structure, name).cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    return hits, misses


def unbound_originals(tracer: Tracer) -> list[str]:
    """gfekit names still bound to an unwrapped original (should be none)."""
    originals = {id(orig) for orig, _ in tracer.originals}
    missed = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gfekit" and not mod_name.startswith("gfekit."):
            continue
        for attr, value in vars(mod).items():
            if id(value) in originals:
                missed.append(f"{mod_name}.{attr}")
    return missed
