"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each criterion also enforces its runtime budget.
"""

import math
import random
import sys
import time
import zlib
from fractions import Fraction

from gfekit.arith import coprime_part, factor, integer_nth_root, k_full_part, radical
from gfekit.bounds import elimination_from_constants, forbidden_interval, lemma13_chain, scenario
from gfekit.campaign import build_p3_plan, CampaignPlan, explicit_box_task, run_campaign
from gfekit.catalog import CatalanFamily, count_remaining, known_solutions
from gfekit.freycurves import FreyFamily, invariants, weierstrass_coefficients
from gfekit.linlog import LinLog
from gfekit.ramification import VolNotConfigured, VolTable
from gfekit.search import check_pair, small_z1_scan
from gfekit.structure import (
    general_rl_product_cap,
    general_v2_sieve,
    general_x1_collapse_threshold,
    threers_collapse_threshold,
    threers_exponent_range,
    threers_v3_sieve,
    twothree_admissible_t,
    xl_candidates,
)
from tests.conftest import synthetic_config
from tests.test_freycurves import random_triple, weierstrass_oracle
from tests.test_search import naive_box_check


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num} [{status}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_acceptance_1_known_solutions():
    t0 = time.time()
    ok = True
    for entry in known_solutions():
        if isinstance(entry, CatalanFamily):
            ok &= all(entry.member(n).verify() for n in (2, 3, 11, 64))
        else:
            ok &= entry.verify()
    elapsed = time.time() - t0
    _report(1, "known-solution verification", ok and elapsed < 1.0,
            f"10 identities in {elapsed:.2f}s")


def test_acceptance_2_invariant_oracle():
    t0 = time.time()
    failures = 0
    for family in FreyFamily:
        rng = random.Random(zlib.crc32(family.name.encode()) & 0xFFF)
        for _ in range(1000):
            a, b, c = random_triple(family, rng)
            inv = invariants(family, a, b, c)
            c4o, deltao, jo = weierstrass_oracle(
                *weierstrass_coefficients(family, a, b, c))
            if (inv.c4, inv.delta, inv.j) != (c4o, deltao, jo):
                failures += 1
    elapsed = time.time() - t0
    _report(2, "Weierstrass invariant oracle", failures == 0 and elapsed < 30,
            f"4000 triples, {failures} failures, {elapsed:.1f}s")


def test_acceptance_3_bound_engine_replay():
    t0 = time.time()
    rng = random.Random(31337)
    mismatches = 0
    applicable = 0
    for _ in range(110):
        cfg = synthetic_config(rng)
        res = forbidden_interval(cfg)
        replay = lemma13_chain(cfg)
        if res.applicable != replay.applicable:
            mismatches += 1
        elif res.applicable:
            applicable += 1
            lo, hi = res.interval
            rlo, rhi = replay.interval
            if (lo - rlo).sign() != 0 or (hi - rhi).sign() != 0:
                mismatches += 1
    hand = elimination_from_constants(Fraction(1, 2), LinLog.of(10), LinLog.of(30))
    hand_ok = (hand.applicable
               and hand.interval[0].rational_value() == 20
               and hand.interval[1].rational_value() == 30)
    elapsed = time.time() - t0
    _report(3, "bound-engine replay equivalence",
            mismatches == 0 and hand_ok,
            f"110 configs ({applicable} applicable), hand example (20,30), "
            f"{elapsed:.1f}s")


def test_acceptance_4_paper_constant_regressions():
    t0 = time.time()
    checks = {
        "x_l(4,11)": xl_candidates(4, 11) == (1, 3, 5),
        "x_l table": all(
            xl_candidates(r, l) == expected
            for (r, l), expected in {
                (4, 13): (1, 3), (4, 17): (1, 3), (5, 11): (1, 3),
                (5, 13): (1, 3), (6, 11): (1, 3), (7, 11): (1,),
                (4, 19): (1,), (8, 13): (1,),
            }.items()
        ),
        "r_l cap 37": general_rl_product_cap() == 37,
        "r2*r cap 306 and r cap 303": general_v2_sieve() == (306, 303),
        "x collapse at 69": general_x1_collapse_threshold() == 69,
        "t range <=109 or {113,121}": (
            max(twothree_admissible_t()) == 121
            and [t for t in twothree_admissible_t() if t >= 110] == [113, 121]
        ),
        "cube-family r <= 667": threers_exponent_range() == (7, 667),
        "cube-family 3-part sieve (153,137)": threers_v3_sieve() == (153, 137),
        "collapse to 2-power at 138": threers_collapse_threshold() == 138,
    }
    failed = [k for k, v in checks.items() if not v]
    elapsed = time.time() - t0
    # The h-bound table needs raw log-volume constants, which are never
    # published; the sub-check is reported as skipped with the reason.
    try:
        cfg = scenario("general", (8, 8, 8), "a", s_primes=(11, 13), k=2,
                       tables=VolTable())
        forbidden_interval(cfg)
        hbound_note = "h-bound table: ran"
    except VolNotConfigured as exc:
        hbound_note = f"h-bound table: SKIPPED ({exc})"
    _report(4, "paper-constant regressions",
            not failed and elapsed < 60,
            f"{len(checks)} checks in {elapsed:.1f}s; {hbound_note}"
            + (f"; failed: {failed}" if failed else ""))


def test_acceptance_5_small_z1_scan():
    t0 = time.time()
    records = small_z1_scan(z1_bound=19, t_max=9, height_bound=2 * 10**12)
    found = {(r.sign_r * r.x**2, r.sign_s * r.y**3, r.z**r.t) for r in records}
    expected = {
        (3**2, -(2**3), 1),
        (71**2, -(17**3), 2**7),
        (13**2, 7**3, 2**9),
        (-(1549034**2), 15613**3, 33**8),
        (21063928**2, -(76271**3), 17**7),
    }
    elapsed = time.time() - t0
    _report(5, "small-z scan finds exactly the five tuples",
            found == expected and elapsed < 60,
            f"{len(found)} tuples in {elapsed:.1f}s")


def test_acceptance_6_search_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(606)
    disagreements = 0
    for _ in range(50):
        r, s = rng.randint(2, 6), rng.randint(2, 6)
        t_set = set(rng.sample(range(2, 12), rng.randint(1, 3)))
        xs = rng.sample(range(1, 400), rng.randint(5, 100))
        ys = rng.sample(range(1, 400), rng.randint(5, 100))
        assert len(xs) * len(ys) <= 10**4
        got = {(rec.x, rec.r, rec.sign_r, rec.y, rec.s, rec.sign_s, rec.z, rec.t)
               for rec in check_pair(xs, r, ys, s, t_set)}
        if got != naive_box_check(xs, r, ys, s, t_set):
            disagreements += 1
    elapsed = time.time() - t0
    _report(6, "pair-check equals the naive double loop",
            disagreements == 0, f"50 boxes, {disagreements} disagreements, "
            f"{elapsed:.1f}s")


def _desk_campaign() -> CampaignPlan:
    plan = build_p3_plan(4, 5, 5, box_limit=5)
    extra = build_p3_plan(5, 6, 7, box_limit=5)
    tasks = plan.tasks + extra.tasks
    tasks.append(explicit_box_task("box-2-3-9", range(1, 25), 2,
                                   range(1, 25), 3, {9}))
    return CampaignPlan("acceptance-desk", tasks,
                        meta={"box_limit": 5, "parts": [plan.name, extra.name]})


def test_acceptance_7_desk_campaign():
    t0 = time.time()
    plan = _desk_campaign()
    reports = {n: run_campaign(plan, shards=n) for n in (1, 4, 8)}
    hashes = {rep.report_hash() for rep in reports.values()}
    idents = [rec.identity() for rec in reports[1].records()]
    elapsed = time.time() - t0
    _report(7, "desk-scale campaign",
            idents == ["13^2 + 7^3 = 2^9"] and len(hashes) == 1,
            f"records={idents}, {len(plan.tasks)} tasks, identical hash across "
            f"1/4/8 shards, {elapsed:.1f}s")


def test_acceptance_8_signature_counters():
    t0 = time.time()
    ge4 = count_remaining("ge4")
    beal = count_remaining("beal")
    ge4_ok = ge4.count == 244
    if beal.matches_expected:
        beal_ok = True
        note = "beal matches 2446"
    else:
        report = beal.discrepancy_report()
        complete = (report is not None
                    and all(e["citation"] for e in report["excluded_in_range"])
                    and len(report["delta_signatures"])
                    == report["published_rules_count"] - report["full_closure_count"])
        beal_ok = complete
        note = (f"beal computed {beal.count} (full closure) vs published 2446; "
                f"discrepancy report complete with "
                f"{len(report['delta_signatures'])} delta signatures")
    elapsed = time.time() - t0
    _report(8, "remaining-signature counters",
            ge4_ok and beal_ok and elapsed < 10,
            f"ge4={ge4.count}, {note}, {elapsed:.1f}s")


def test_acceptance_9_arith_property_suite():
    t0 = time.time()
    rng = random.Random(909)
    cases = 0
    ok = True
    for _ in range(34000):  # radical laws
        a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
        fa = factor(a)
        ra = radical(fa)
        ok &= radical(ra).items() == ra.items()
        if math.gcd(a, b) == 1:
            ok &= radical(factor(a * b)).value() == ra.value() * radical(factor(b)).value()
        cases += 1
    for _ in range(33000):  # coprime / k-full laws
        n = rng.randrange(1, 10**6)
        k = rng.randrange(1, 50)
        fn = factor(n)
        cp = coprime_part(fn, k)
        ok &= n % cp.value() == 0 and math.gcd(cp.value(), k) == 1
        kk = rng.randrange(2, 9)
        kf = k_full_part(fn, kk)
        ok &= all(e % kk == 0 for _, e in kf.items())
        ok &= all(e % kk != 0 for p, e in fn.items() if kf.valuation(p) == 0)
        cases += 1
    for _ in range(33000):  # nth-root sandwich
        n = rng.randrange(1, 10**10)
        t = rng.randrange(2, 20)
        root, exact = integer_nth_root(n, t)
        ok &= root**t <= n < (root + 1) ** t
        ok &= exact == (root**t == n)
        cases += 1
    elapsed = time.time() - t0
    _report(9, "arithmetic property suite",
            ok and cases >= 10**5, f"{cases} randomized cases in {elapsed:.1f}s")
