"""The four benchmark workloads: seeded inputs, one timed batch, output checks.

Each workload is a closed batch run from one process: the next item starts
when the previous one finishes. Inputs are generated from the seed before any
timing starts, and the program only ever sees the generated inputs.

Calls into gfekit go through module attributes (`freycurves.invariants`, not
a name imported here), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from gfekit import arith, bounds, campaign, freycurves, linlog, structure
from gfekit.freycurves import FreyFamily
from gfekit.ramification import VolTable
from tracer import structure_cache_stats

CPUS = os.sched_getaffinity(0)  # before an end-to-end run pins itself to one
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = json.loads((BENCH_DIR / "pins.json").read_text())
clock = time.perf_counter


def sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()


@dataclass
class Batch:
    """One timed batch: wall time, per-item latencies and what to check."""

    wall: float = 0.0
    attempted: int = 0
    items: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)   # item-level exceptions
    digest: str = ""
    # Speed-probe times taken before the first item and after each item,
    # for workloads whose items are long enough to bracket one by one.
    item_probes: list[float] = field(default_factory=list)
    speed: float = 0.0   # median speed-probe time while the batch ran


class NoProbe:
    """Stand-in for the speed tracker when nothing is scaled."""

    spent = 0.0

    def __call__(self, force: bool = False) -> None:
        return None


def wall_since(start: float, probe, spent0: float) -> float:
    """Seconds since `start`, less the time the speed probe took meanwhile."""
    return clock() - start - (probe.spent - spent0)


def _guarded(fn, errors: list[str], label: str):
    """Run one item; an exception fails that item and the batch goes on."""
    try:
        return fn()
    except Exception as exc:  # item boundary: record and count the failure
        errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


class Workload:
    name = ""
    # Imports and lazy tables the workload's first call builds in a fresh
    # process; timed by the set-up probe.
    setup_code = ""
    # Whether each batch of an end-to-end run draws new inputs. Workloads
    # whose item costs vary with the input do, so that a run's medians rest
    # on many distinct inputs rather than on one draw.
    fresh_inputs = False

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir

    def generate(self, k: int = 0) -> None:
        """Draw the inputs of batch k; the same for every k unless fresh_inputs."""
        key = f"{self.name}:{self.seed}" + (f":{k}" if self.fresh_inputs else "")
        self.draw(random.Random(key))

    def draw(self, rng: random.Random) -> None:
        raise NotImplementedError

    def run_batch(self, *, time_items: bool = True, trace_dir: Path | None = None,
                  probe=NoProbe()) -> Batch:
        """One timed batch. `probe()` is called between items; it samples the
        machine's speed when due, and the batch excludes its time."""
        raise NotImplementedError

    def check(self, batch: Batch) -> list[str]:
        """Mismatches against oracles and invariants, one entry per item."""
        raise NotImplementedError

    def pin(self) -> str | None:
        return PINS.get(self.name, {}).get(self.size, {}).get(str(self.seed))


# ---------------------------------------------------------------------------
# frey: factorization-heavy invariants over every size class.


def frey_triple(family: FreyFamily, rng: random.Random, bound: int = 10**6):
    """A coprime triple satisfying the family constraint, entries up to bound."""
    while True:
        if family is FreyFamily.GENERAL_ABC:
            a = 4 * rng.randrange(-bound // 4, bound // 4) - 1
            b = 16 * rng.randrange(-bound // 16, bound // 16 + 1)
            c = -a - b
        else:
            a = rng.randrange(-bound, bound)
            x = rng.randrange(-bound, bound)
            if family is FreyFamily.TWO_THREE:
                b, c = x, a * a + x**3
            elif family is FreyFamily.THREE_RS:
                b, c = x**3 - a, x
            else:
                b, c = x * x - a, x
        if 0 not in (a, b, c) and math.gcd(math.gcd(a, b), c) == 1:
            return a, b, c


def _weierstrass(family: FreyFamily, a: int, b: int, c: int):
    """(c4, delta, j) from the long-Weierstrass model via b2..b8."""
    if family is FreyFamily.GENERAL_ABC:
        a1, a2, a3, a4, a6 = 1, (b - a - 1) // 4, 0, -a * b // 16, 0
    elif family is FreyFamily.TWO_THREE:
        a1, a2, a3, a4, a6 = 0, 0, 0, 3 * b, 2 * a
    elif family is FreyFamily.THREE_RS:
        a1, a2, a3, a4, a6 = 3 * c, 0, a, 0, 0
    else:
        a1, a2, a3, a4, a6 = 0, 2 * c, 0, a, 0
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, Fraction(delta), Fraction(c4) ** 3 / delta


def _closed_denominator(family: FreyFamily, a: int, b: int, c: int) -> int:
    """The bookkeeping j-denominator, computed without factoring."""
    if family is FreyFamily.GENERAL_ABC:
        return (a * b * c) ** 2 // 2**8
    if family is FreyFamily.TWO_THREE:
        n, small = abs(c), 1728
    elif family is FreyFamily.THREE_RS:
        n, small = abs(a) ** 3 * abs(b), 27
    else:
        n, small = a * a * abs(b), 64
    return n // math.gcd(n, small)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3e24, independent of gfekit."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    if n >= 3317044064679887385961981:
        raise ValueError("outside the deterministic range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Frey(Workload):
    name = "frey"
    setup_code = "import gfekit.freycurves\nfrom gfekit.arith import small_primes\nsmall_primes()"
    fresh_inputs = True
    # Triples per family in one batch. GENERAL_ABC entries factor in well
    # under a millisecond and the other families take up to tens; with equal
    # counts the median item would sit in the sparse gap between the two and
    # jump with every draw. Four times as many GENERAL_ABC triples put the
    # median inside their dense cluster; wall_s and the tail still carry the
    # ~10^12 and ~10^18 classes.
    PER_FAMILY = {"full": {FreyFamily.GENERAL_ABC: 1200, FreyFamily.TWO_THREE: 300,
                           FreyFamily.THREE_RS: 300, FreyFamily.TWO_RS: 300},
                  "tiny": {fam: 4 for fam in FreyFamily}}

    def draw(self, rng) -> None:
        self.inputs = [(fam, frey_triple(fam, rng))
                       for fam, n in self.PER_FAMILY[self.size].items() for _ in range(n)]

    def run_batch(self, *, time_items=True, trace_dir=None, probe=NoProbe()) -> Batch:
        out = Batch()
        start, spent0 = clock(), probe.spent
        for fam, (a, b, c) in self.inputs:
            probe()
            t0 = clock()
            inv = _guarded(lambda: freycurves.invariants(fam, a, b, c), out.errors,
                           f"{fam.name} {(a, b, c)}")
            out.items.append(clock() - t0)
            out.outputs.append(inv)
        out.wall = wall_since(start, probe, spent0)
        out.attempted = len(self.inputs)
        out.digest = sha([
            None if inv is None else
            [inv.family.name, list(inv.triple), inv.c4, str(inv.delta), str(inv.j),
             [list(pe) for pe in inv.denom_n.items()]]
            for inv in out.outputs
        ])
        return out

    def check(self, batch: Batch) -> list[str]:
        bad = []
        for (fam, (a, b, c)), inv in zip(self.inputs, batch.outputs):
            if inv is None:
                continue  # already counted as an item error
            c4, delta, j = _weierstrass(fam, a, b, c)
            denom = 1
            for p, e in inv.denom_n.items():
                denom *= p**e
            ok = (inv.c4 == c4 and inv.delta == delta and inv.j == j
                  and denom == _closed_denominator(fam, a, b, c)
                  and denom % j.denominator == 0
                  and all(_is_prime(p) for p in inv.denom_n.primes()))
            if not ok:
                bad.append(f"{fam.name} {(a, b, c)}: invariants differ from the oracle")
        return bad


# ---------------------------------------------------------------------------
# bounds: certified interval elimination against its chain replay.


def _log_of(n: arith.FactoredInteger) -> linlog.LinLog:
    out = linlog.LinLog.of(0)
    for p, e in n.items():
        out = out + linlog.log_atom(p, e)
    return out


def bound_config(rng: random.Random, n_s: int, n_primes: int,
                 favorable: bool) -> bounds.BoundConfig:
    """An admissible BoundConfig with a concrete N: n_s primes in S and
    n_primes primes dividing N.

    Favorable draws use small coefficients and u0 at its maximum so that the
    closed-form elimination applies; the others mostly do not. Each Vol(l) is
    just large enough that the per-l volume inequality holds for this N.
    """
    s_primes = sorted(rng.sample([5, 7, 11, 13, 17, 19, 23], n_s))
    factors: dict[int, int] = {}
    for p in rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37], n_primes):
        e = rng.choice(s_primes) * rng.randint(1, 2) if rng.random() < 0.45 \
            else rng.randint(1, 9)
        while sum(1 for l in s_primes if e % l == 0) > 1:
            e += 1  # at most one S-divisor per exponent: nk(S) stays free
        factors[p] = e
    n_val = arith.FactoredInteger(factors)
    n0 = rng.choice([1, 2**8, 27, 1728])
    n0_val = arith.factor(n0)
    u0 = min(e + n0_val.valuation(p) for p, e in n_val.items())
    if not favorable:
        u0 = rng.randint(1, u0)
    p_n = min(n_val.primes())
    s1 = frozenset(rng.sample([2, 3], rng.randint(0, 2)))
    b_set = {p for p, e in n_val.items() if any(e % l == 0 for l in s_primes)}
    rest = [n_val.valuation(p) for p in b_set - s1]
    n1_s = max(1, min(rest) if rest else rng.randint(1, 30))
    nk_s = math.ceil(n_val.value().bit_length() / math.log2(p_n)) + rng.randint(1, 300)
    lam = Fraction(rng.randint(1, 3)) if favorable \
        else Fraction(rng.randint(2, 12), rng.randint(1, 2))
    profiles, vols = {}, {}
    for l in s_primes:
        if favorable:
            a4 = Fraction(1, rng.randint(6, 12))
            a1 = a4 + Fraction(1, rng.randint(4, 24))
        else:
            a4 = Fraction(rng.randint(1, 8), rng.randint(4, 12))
            a1 = a4 + Fraction(rng.randint(0, 9), rng.randint(3, 9))
        profiles[l] = (a1, a4)
        n_l = arith.k_full_part(n_val, l)
        lhs = (_log_of(n_val) - _log_of(n_l) - linlog.log_atom(l, n_val.valuation(l))) / lam
        rhs0 = _log_of(arith.radical(n_val)) * a1 - _log_of(arith.radical(n_l)) * a4
        vol = Fraction(max(0.0, float(lhs - rhs0)) + 0.75).limit_denominator(1024)
        if not linlog.LinLog.of(vol) + rhs0 >= lhs:
            raise AssertionError("volume constant does not cover the deficit")
        vols[l] = linlog.LinLog.of(vol)
    return bounds.make_config(
        n_value=n_val, n0=n0, u0=u0, p_n=p_n, s_primes=s_primes, k=2, s1=s1,
        n1_s=n1_s, nk_s=nk_s, lam=lam, profiles=profiles, vols=vols,
        provenance="benchmark synthetic",
    )


# Scenario grid: (family case, exponents, situation, dataset key prefix,
# primes allowed in S). With k = 3 and four to eight primes in S, b1 < 1;
# small Vol entries then give an excluded interval and large ones do not.
SCENARIOS = (
    ("general", (5, 7, 11), "a", ("GENERAL_ABC", 1), (13, 17, 19, 23, 29, 31, 37, 41)),
    ("general", (5, 7, 11), "b", ("GENERAL_ABC", 1), (13, 17, 19, 23, 29, 31, 37, 41)),
    ("twothree-t", (29,), "a", ("TWO_THREE", 1), (11, 17, 19, 23, 31, 37, 41, 43)),
)
SMALL_VOL = (Fraction(1, 8), Fraction(10))
LARGE_VOL = (Fraction(1000), Fraction(5000))
CHAIN_THEOREMS = ("A-sum", "B-primes", "C-primes", "N_l sum", "volume")


class Bounds(Workload):
    name = "bounds"
    setup_code = "import gfekit.bounds\nfrom gfekit.arith import small_primes\nsmall_primes()"
    fresh_inputs = True
    # Configurations per stratum (|S|, primes of N, favorable) in one batch.
    # A fixed mix keeps the batch's cost from swinging with the draw.
    PER_STRATUM = {"full": 10, "tiny": 1}
    STRATA = {"full": [(n_s, n_p, fav) for n_s in (2, 3, 4) for n_p in (2, 3, 4, 5)
                       for fav in (True, False)],
              "tiny": [(2, 3, True), (3, 4, False), (4, 2, True), (2, 5, False)]}
    GRID_DRAWS = {"full": 4, "tiny": 1}

    def draw(self, rng) -> None:
        self.configs = [bound_config(rng, *stratum) for stratum in self.STRATA[self.size]
                        for _ in range(self.PER_STRATUM[self.size])]
        self.grid = []
        for case, expo, situation, (fam, kind), pool in SCENARIOS:
            for _ in range(self.GRID_DRAWS[self.size]):
                for target, vols in ((True, SMALL_VOL), (False, LARGE_VOL)):
                    s_primes = tuple(sorted(rng.sample(pool, rng.choice((4, 6, 8)))))
                    table = VolTable()
                    vol = vols[0] + (vols[1] - vols[0]) * Fraction(rng.randint(0, 64), 64)
                    for l in s_primes:
                        table.set_raw((fam, kind, l, None), vol, "benchmark grid")
                    self.grid.append((case, expo, situation, s_primes, table, target))

    def run_batch(self, *, time_items=True, trace_dir=None, probe=NoProbe()) -> Batch:
        out = Batch()
        start, spent0 = clock(), probe.spent
        for i, cfg in enumerate(self.configs):
            probe()
            t0 = clock()

            def eliminate(cfg=cfg):
                res = bounds.forbidden_interval(cfg)
                return res, bounds.certificate(cfg, res), bounds.lemma13_chain(cfg)

            out.outputs.append(_guarded(eliminate, out.errors, f"config {i}"))
            out.items.append(clock() - t0)
        for case, expo, situation, s_primes, table, _ in self.grid:
            probe()
            t0 = clock()

            def build(case=case, expo=expo, situation=situation, s_primes=s_primes,
                      table=table):
                cfg = bounds.scenario(case, expo, situation, s_primes=s_primes, k=3,
                                      tables=table)
                res = bounds.forbidden_interval(cfg)
                return res, bounds.certificate(cfg, res), None

            out.outputs.append(_guarded(build, out.errors, f"scenario {case} {s_primes}"))
            out.items.append(clock() - t0)
        out.wall = wall_since(start, probe, spent0)
        out.attempted = len(out.outputs)
        out.digest = sha([None if o is None else
                          [o[1], None if o[2] is None else
                           [o[2].applicable, o[2].partition, [s.holds for s in o[2].steps]]]
                          for o in out.outputs])
        return out

    def check(self, batch: Batch) -> list[str]:
        bad = []
        n = len(self.configs)
        for i, o in enumerate(batch.outputs[:n]):
            if o is None:
                continue
            res, _, replay = o
            same = res.applicable == replay.applicable
            if same and res.applicable:
                same = all((x - y).is_rational() and (x - y).const == 0
                           for x, y in zip(res.interval, replay.interval))
            holds = all(s.holds for s in replay.steps if s.name.startswith(CHAIN_THEOREMS))
            if not same:
                bad.append(f"config {i}: closed-form interval differs from the replay")
            elif not holds:
                bad.append(f"config {i}: a chain theorem fails on admissible input")
        for (case, _, _, s_primes, _, target), o in zip(self.grid, batch.outputs[n:]):
            if o is None:
                continue
            res, cert, _ = o
            verdict = "excluded-interval" if target else "not-applicable"
            if res.applicable != target or cert["verdict"] != verdict:
                bad.append(f"scenario {case} {s_primes}: verdict {cert['verdict']}")
        return bad


# ---------------------------------------------------------------------------
# campaign: cold planning, box checks, sharding and checkpoints.

PLANTED = "13^2 + 7^3 = 2^9"


def clear_structure_caches() -> None:
    """Forget every structure lru_cache, as a fresh gfekit process would."""
    for value in vars(structure).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class Campaign(Workload):
    name = "campaign"
    setup_code = "import gfekit.campaign\nfrom gfekit.arith import small_primes\nsmall_primes()"
    BOX_LIMIT = {"full": 20, "tiny": 3}

    def draw(self, rng) -> None:
        self.box_limit = self.BOX_LIMIT[self.size]
        # Any box from (1..13, 1..7) up to 40 x 40 holds exactly the planted record.
        self.planted = (rng.randint(14, 40), rng.randint(8, 40))
        self.order_seed = rng.randrange(2**32)
        self.checkpoint_bytes = 0
        self.cache_stats = (0, 0)

    def run_batch(self, *, time_items=True, trace_dir=None, probe=NoProbe()) -> Batch:
        out = Batch()
        ck1, ck2 = self.workdir / "shards1.ckpt", self.workdir / "shards2.ckpt"
        for path in (ck1, ck2):
            path.unlink(missing_ok=True)
        clear_structure_caches()
        start, spent0 = clock(), probe.spent
        p3 = campaign.build_p3_plan(4, 5, 5, box_limit=self.box_limit)
        p1 = campaign.build_p1_plan(7, 11, box_limit=self.box_limit)
        planted = campaign.explicit_box_task("box-239", range(1, self.planted[0]), 2,
                                             range(1, self.planted[1]), 3, {9})
        tasks = p3.tasks + p1.tasks + [planted]
        random.Random(self.order_seed).shuffle(tasks)
        plan = campaign.CampaignPlan(name="benchmark", tasks=tasks,
                                     meta={"box_limit": self.box_limit})
        self.cache_stats = structure_cache_stats()
        run_task = campaign.run_task
        if time_items:
            def timed(task):
                probe()
                t0 = clock()
                try:
                    return run_task(task)
                finally:
                    out.items.append(clock() - t0)
            campaign.run_task = timed
        try:
            r1 = _guarded(lambda: campaign.run_campaign(plan, shards=1,
                                                        checkpoint_path=str(ck1)),
                          out.errors, "shards=1")
        finally:
            campaign.run_task = run_task
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, CPUS)  # the pool's two workers inherit this
        try:
            r2 = _guarded(lambda: campaign.run_campaign(plan, shards=2,
                                                        checkpoint_path=str(ck2)),
                          out.errors, "shards=2")
        finally:
            os.sched_setaffinity(0, pinned)
        out.wall = wall_since(start, probe, spent0)
        out.attempted = len(tasks)
        self.checkpoint_bytes = ck1.stat().st_size if ck1.exists() else 0
        out.outputs = [len(tasks), r1, r2]
        out.digest = sha([None if r is None else r.report_hash() for r in (r1, r2)])
        return out

    def check(self, batch: Batch) -> list[str]:
        n_tasks, r1, r2 = batch.outputs
        if r1 is None or r2 is None:
            return []
        bad = []
        if r1.report_hash() != r2.report_hash():
            bad.append("report hash differs between shards=1 and shards=2")
        for report in (r1, r2):
            found = [rec.identity() for rec in report.records()]  # re-verifies exactly
            if found != [PLANTED]:
                bad.append(f"records {found}, expected only {PLANTED}")
            if len(report.outcomes) != n_tasks:
                bad.append(f"{len(report.outcomes)} outcomes for {n_tasks} tasks")
        return bad


# ---------------------------------------------------------------------------
# reproduce: the paper's headline commands, each in a fresh interpreter.

FIVE_TUPLES = [
    "-1549034^2 + 15613^3 = 33^8",
    "3^2 - 2^3 = 1^7",
    "13^2 + 7^3 = 2^9",
    "71^2 - 17^3 = 2^7",
    "21063928^2 - 76271^3 = 17^7",
]
COMMANDS = {
    "count_ge4": ["count", "ge4"],
    "count_beal": ["count", "beal", "--ledger", "{ledger}"],
    "scan_small_z1": ["scan-small-z1"],
    "verify_known": ["verify-known"],
    "profile_4_5_7_11": ["profile", "4", "5", "7", "11"],
    "profile_threers_7_11_17": ["profile", "--family", "threers", "7", "11", "17"],
    "profile_113_11": ["profile", "113", "11"],
}
TINY_COMMANDS = ("count_ge4", "count_beal", "verify_known", "profile_4_5_7_11")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Reproduce(Workload):
    name = "reproduce"
    setup_code = ("import gfekit.cli\nfrom gfekit.arith import small_primes\n"
                  "from gfekit.catalog import load_registry\nsmall_primes()\nload_registry()")

    def draw(self, rng) -> None:
        labels = list(COMMANDS) if self.size == "full" else list(TINY_COMMANDS)
        rng.shuffle(labels)
        self.labels = labels
        self.ledger = self.workdir / "ledger.json"

    def argv(self, label: str, trace_dir: Path | None) -> list[str]:
        cmd = [a.replace("{ledger}", str(self.ledger)) for a in COMMANDS[label]]
        boot = [sys.executable, str(BENCH_DIR / "gfekit_cli.py")]
        if trace_dir is not None:
            boot += ["--trace-out", str(trace_dir / label)]
        return boot + ["--", "--json", "--seed", str(self.seed)] + cmd

    def run_batch(self, *, time_items=True, trace_dir=None, probe=NoProbe()) -> Batch:
        out = Batch()
        self.ledger.unlink(missing_ok=True)
        self.ledger_text = ""
        env = child_env()
        out.item_probes.append(probe(force=True))
        for label in self.labels:
            t0 = clock()
            proc = _guarded(lambda: subprocess.run(
                self.argv(label, trace_dir), cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=150), out.errors, label)
            out.items.append(clock() - t0)
            out.outputs.append((label, proc))
            out.item_probes.append(probe(force=True))
        out.wall = sum(out.items)  # commands run back to back; probes excluded
        out.attempted = len(self.labels)
        self.ledger_text = self.ledger.read_text() if self.ledger.exists() else ""
        out.digest = sha({label: None if p is None else
                          hashlib.sha256(p.stdout.encode()).hexdigest()
                          for label, p in sorted(out.outputs)})
        return out

    def stdout_pin(self, label: str) -> str | None:
        return PINS["reproduce"]["stdout"].get(label)

    def check(self, batch: Batch) -> list[str]:
        bad = []
        for label, proc in batch.outputs:
            if proc is None:
                continue
            if proc.returncode != 0:
                bad.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
            problem = None
            try:
                payload = json.loads(proc.stdout)
            except json.JSONDecodeError:
                payload, problem = {}, "stdout is not one JSON object"
            if label == "count_ge4" and payload.get("count") != 244:
                problem = f"count ge4 = {payload.get('count')}, expected 244"
            elif label == "count_beal":
                pins = PINS["reproduce"]
                if payload.get("ledger_hash") != pins["beal_ledger_hash"]:
                    problem = "count beal ledger_hash changed"
                elif hashlib.sha256(self.ledger_text.encode()).hexdigest() \
                        != pins["beal_ledger_file"]:
                    problem = "count beal --ledger file changed"
            elif label == "scan_small_z1" and payload.get("identities") != FIVE_TUPLES:
                problem = f"small-z scan found {payload.get('identities')}"
            elif label == "verify_known" and payload.get("verified") is not True:
                problem = "verify-known failed"
            if problem is None and digest != self.stdout_pin(label):
                problem = "JSON stdout differs from its pin"
            if problem:
                bad.append(f"{label}: {problem}")
        return bad

    def pin(self) -> str | None:
        return None  # each command's stdout is pinned on its own, for every seed


WORKLOADS = {cls.name: cls for cls in (Frey, Bounds, Campaign, Reproduce)}
