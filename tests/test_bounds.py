import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from gfekit.arith import FactoredInteger
from gfekit.bounds import (
    ConfigError,
    EliminationResult,
    certificate,
    default_profile,
    derived_constants,
    elimination_from_constants,
    forbidden_interval,
    lemma13_chain,
    make_config,
    scenario,
)
from gfekit.linlog import (
    LinLog,
    PrecisionExhausted,
    log_atom,
    log_bounds,
)
from gfekit.freycurves import FreyFamily
from gfekit.ramification import VolNotConfigured, VolTable, dataset
from tests.conftest import log_ratio_convergents, synthetic_config


def test_default_profile_values():
    a1, a4 = default_profile(11, 3)
    assert a1 == Fraction(704, 495)
    assert a4 == Fraction(4, 9)


def test_derived_constants_on_default_profile():
    cfg = make_config(
        n_value=None, n0=1, u0=8, p_n=2, s_primes=(11, 13), k=2,
        s1=set(), n1_s=22, nk_s=286, e0=3,
        vols={11: LinLog.of(1), 13: LinLog.of(2)},
    )
    dc = derived_constants(cfg)
    assert dc.a1 == 3 * (default_profile(11, 3)[0] + default_profile(13, 3)[0])
    assert dc.a4 == 6 * min(default_profile(11, 3)[1], default_profile(13, 3)[1])
    assert dc.a5.rational_value() == 0  # S1 empty
    assert dc.a2.rational_value() == 9  # (6/2) * (1 + 2)
    assert dc.a3.logs == ((11, Fraction(1)), (13, Fraction(1)))


def test_elimination_hand_example():
    res = elimination_from_constants(Fraction(1, 2), LinLog.of(10), LinLog.of(30))
    assert res.applicable
    lo, hi = res.interval
    assert lo.rational_value() == 20
    assert hi.rational_value() == 30


def test_elimination_inapplicable_cases():
    res = elimination_from_constants(Fraction(3, 2), LinLog.of(10), LinLog.of(30))
    assert not res.applicable and res.witness["reason"] == "b1 >= 1"
    res = elimination_from_constants(Fraction(1, 2), LinLog.of(10), LinLog.of(19))
    assert not res.applicable
    # primed mode needs the unprimed b1 <= 1
    res = elimination_from_constants(
        Fraction(1, 2), LinLog.of(10), LinLog.of(30),
        mode="primed", b1_unprimed=Fraction(11, 10))
    assert not res.applicable


def test_vol_required_loudly():
    cfg = make_config(
        n_value=None, n0=1, u0=8, p_n=2, s_primes=(11, 13), k=2,
        s1=set(), n1_s=22, nk_s=286, e0=3,
    )
    with pytest.raises(VolNotConfigured):
        derived_constants(cfg)


def test_partition_example():
    cfg = make_config(
        n_value=FactoredInteger({2: 16, 3: 22, 7: 8}), n0=1, u0=8, p_n=2,
        s_primes=(11, 13), k=2, s1=set(), n1_s=22, nk_s=200, e0=3,
        vols={11: LinLog.of(100), 13: LinLog.of(100)},
    )
    replay = lemma13_chain(cfg)
    assert replay.partition == {"A": (), "B": (3,), "C": (2, 7)}


def test_chain_replay_equivalence_randomized(rng):
    agree = applicable = 0
    for _ in range(120):
        cfg = synthetic_config(rng)
        res = forbidden_interval(cfg)
        replay = lemma13_chain(cfg)
        assert res.applicable == replay.applicable
        if res.applicable:
            applicable += 1
            lo, hi = res.interval
            rlo, rhi = replay.interval
            assert (lo - rlo).sign() == 0
            assert (hi - rhi).sign() == 0
        # the six statement-(i) inequalities are theorems on admissible input
        for step in replay.steps:
            if step.name.startswith(("A-sum", "B-primes", "C-primes", "N_l sum",
                                     "volume")):
                assert step.holds, step
        agree += 1
    assert agree == 120
    assert applicable >= 10  # the generator produces live exclusions too


def test_monotonicity_in_vol_and_u0(rng):
    for _ in range(20):
        cfg = synthetic_config(rng)
        dc = derived_constants(cfg)
        bumped = make_config(
            n_value=cfg.n_value, n0=cfg.n0, u0=cfg.u0, p_n=cfg.p_n,
            s_primes=cfg.s_primes, k=cfg.k, s1=cfg.s1, n1_s=cfg.n1_s,
            nk_s=cfg.nk_s, lam=cfg.lam,
            profiles={l: (pp.a1, pp.a4) for l, pp in cfg.per_l.items()},
            vols={l: pp.vol + 1 for l, pp in cfg.per_l.items()},
        )
        dc2 = derived_constants(bumped)
        assert not dc2.b2 < dc.b2  # b2 weakly increases with Vol
        assert dc2.b1 == dc.b1
        if cfg.u0 > 1:
            shrunk = make_config(
                n_value=None, n0=cfg.n0, u0=cfg.u0 - 1, p_n=cfg.p_n,
                s_primes=cfg.s_primes, k=cfg.k, s1=cfg.s1, n1_s=cfg.n1_s,
                nk_s=cfg.nk_s, lam=cfg.lam,
                profiles={l: (pp.a1, pp.a4) for l, pp in cfg.per_l.items()},
                vols={l: pp.vol for l, pp in cfg.per_l.items()},
            )
            assert derived_constants(shrunk).b1 >= dc.b1


def test_scenario_general_fields():
    cfg = scenario("general", (5, 7, 11), "a", s_primes=(11, 13), k=2)
    assert cfg.u0 == 8
    assert cfg.n0 == 2**8
    assert cfg.p_n == 2
    assert cfg.n1_s == 22
    assert cfg.nk_s == 286
    assert cfg.s1 == {2}
    assert cfg.per_l[11].a1 == Fraction(704, 495)
    assert cfg.primed is not None and cfg.primed.u0p == 8


def test_scenario_twothree_fields():
    cfg = scenario("twothree-t", (23,), s_primes=(11, 17), k=2)
    assert cfg.u0 == 23
    assert cfg.n1_s == 11 * 23
    assert cfg.nk_s == 11 * 17
    assert cfg.s1 == {2, 3}
    assert cfg.p_n == 2
    cfg = scenario("twothree-u0", (23,), s_primes=(11, 17), k=2, u0=11)
    assert cfg.u0 == 11 and cfg.n1_s == 11


def test_scenario_threers_fields():
    cfg = scenario("threers", (7, 11), "a", s_primes=(11, 17), k=2)
    assert cfg.n0 == 27
    assert cfg.primed.u0p == min(3 * 7, 11) == 11
    assert cfg.n1_s == 11
    assert cfg.nk_s == 187
    assert cfg.s1 == {3}


def test_scenario_precondition_errors():
    with pytest.raises(ConfigError):
        scenario("general", (3, 7, 11), "a", s_primes=(11, 13), k=2)
    with pytest.raises(ConfigError):
        scenario("twothree-t", (22,), s_primes=(11, 17), k=2)  # 11 | t
    with pytest.raises(ConfigError):
        scenario("twothree-q", (23,), s_primes=(11, 17), k=2, q=7)  # q does not divide t
    with pytest.raises(ConfigError):
        scenario("threers", (7, 11), "a", s_primes=(11, 13), k=2)  # l = 13 excluded
    with pytest.raises(ConfigError):
        scenario("general", (5, 7, 11), "a", s_primes=(7, 13), k=2)  # l < 11


def test_scenario_q_verified_not_chosen():
    cfg = scenario("twothree-q", (55,), s_primes=(17, 19), k=2, q=5)
    assert cfg.u0 == 55 and cfg.n1_s == 55 and cfg.p_n == 3
    # Vol carries the additive log 2 once raw entries exist
    table = VolTable()
    table.set_raw(("TWO_THREE", 2, 17, 5), Fraction(3), "test")
    table.set_raw(("TWO_THREE", 2, 19, 5), Fraction(3), "test")
    cfg = scenario("twothree-q", (55,), s_primes=(17, 19), k=2, q=5, tables=table)
    vol = cfg.per_l[17].vol
    assert vol.const == 3 and vol.logs == ((2, Fraction(1)),)


def test_case_rows_match_their_datasets():
    from gfekit.bounds import _CASES

    # Each row's e0 is a second copy of its dataset's; scenario does not call
    # dataset(), whose ValueErrors would replace scenario's ConfigError texts.
    for name, case in _CASES.items():
        ds = dataset(FreyFamily[case.family], case.kind, 17, 5 if name == "twothree-q" else None)
        assert (ds.family.name, ds.kind, ds.e0) == (case.family, case.kind, case.e0), name


def test_forbidden_interval_with_synthetic_vols():
    table = VolTable()
    for l in (11, 13):
        table.set_raw(("GENERAL_ABC", 1, l, None), Fraction(1, 4), "synthetic")
    cfg = scenario("general", (5, 7, 11), "a", s_primes=(11, 13), k=2,
                   tables=table)
    res = forbidden_interval(cfg)
    cert = certificate(cfg, res)
    assert cert["verdict"] in ("excluded-interval", "not-applicable")
    assert "config_hash" in cert
    if res.applicable:
        lo, hi = res.interval_floats()
        assert lo < hi


def test_certificate_propagates_precision_exhaustion():
    table = VolTable()
    for l in (11, 13):
        table.set_raw(("GENERAL_ABC", 1, l, None), Fraction(1, 4), "synthetic")
    cfg = scenario("general", (5, 7, 11), "a", s_primes=(11, 13), k=2,
                   tables=table)

    def ends(bound):
        # |q log 3 - p log 2| is below 1/q, so signing it needs about
        # 2 log2(q) bits.
        p, q = next(c for c in log_ratio_convergents(3, 2) if c[1] > bound)
        tight = log_atom(3, q) - log_atom(2, p)
        return EliminationResult(True, "unprimed", (tight, LinLog.of(10)), {})

    assert certificate(cfg, ends(10**50))["precision_used"] == 512
    with pytest.raises(PrecisionExhausted):
        certificate(cfg, ends(10**160))


def test_large_vol_general_b_scenario_is_excluded():
    # general (5,7,11), situation b, S = (29, 31, 37, 41), Vol 1125 at every
    # prime: b1 = 0.8365 and b2 = 6852.3 put b2/(1 - b1) at 41,903.6, below
    # the ceiling 66,526 log 2 = 46,112.3, so an interval is excluded even
    # though every Vol is above 1000.
    s_primes, vol = (29, 31, 37, 41), Fraction(1125)
    table = VolTable()
    for l in s_primes:
        table.set_raw(("GENERAL_ABC", 1, l, None), vol, "large Vol")
    cfg = scenario("general", (5, 7, 11), "b", s_primes=s_primes, k=3, tables=table)
    res = forbidden_interval(cfg)
    assert res.applicable
    assert certificate(cfg, res)["verdict"] == "excluded-interval"

    # Re-decide it from the constants' definitions, with Fractions and the
    # certified rational enclosures of log_bounds instead of LinLog signs.
    n, lam = len(s_primes), Fraction(6)
    a1 = lam / n * sum(default_profile(l, 3)[0] for l in s_primes)
    a4 = lam * min(default_profile(l, 3)[1] for l in s_primes)
    assert (cfg.n0, cfg.u0, cfg.p_n, cfg.s1, cfg.n1_s, cfg.nk_s) == \
        (2**8, 8, 2, frozenset({2}), 58, 66526)
    b1 = max(a1 / 8, Fraction(3, n) + (a1 - a4) / 58)
    assert b1 == derived_constants(cfg).b1 and 0 < b1 < 1 and a1 >= a4
    # b2 = (a1/u0) log n0 + a2 + a1 a3 + (a1 - a4) a5 with log n0 = 8 log 2,
    # a2 = (lam/n) * (sum of Vol), a3 = sum of log l and a5 = log 2. Every
    # log has a positive coefficient, so the upper ends bound b2 above.
    hi = {p: log_bounds(p)[1] for p in (2,) + s_primes}
    b2_hi = (a1 / 8 * 8 * hi[2] + lam / n * n * vol
             + a1 * sum(hi[l] for l in s_primes) + (a1 - a4) * hi[2])
    threshold_hi = b2_hi / (1 - b1)
    ceiling_lo = 66526 * log_bounds(2)[0]
    assert 41903 < threshold_hi < 41904 < 46112 < ceiling_lo < 46113
    assert abs(float(res.interval[0]) - float(threshold_hi)) < 1e-3


# ---------------------------------------------------------------------------
# Golden grid for scenario: one sha256 per family case over every input below.
# Each input records repr(cfg) plus its certificate, or the exception's type
# and text, so a change to any BoundConfig field, provenance string, error
# message or the order in which the precondition checks fire moves a digest.

_GOLDEN_FAMILIES = {
    # family: (cases, exponents, sets S, u0 values, q values)
    "general": (("general", "general-2tor"),
                ((5, 7, 11), (3, 7, 11), (11, 13, 17), (5, 11, 17), (5, 7)),
                ((11, 13), (11, 19), (17, 19, 23), (7, 13), (11, 11), (11, 15)),
                (None, 12), (None, 5)),
    "twothree": (("twothree-u0", "twothree-t", "twothree-q"),
                 ((23,), (55,), (45,), (10,), (22,), (23, 1)),
                 ((11, 17), (17, 19), (11, 23), (11, 13), (17,), (17, 21)),
                 (None, 11, 12, 30, 5), (None, 5, 7, 9, 11)),
    "threers": (("threers", "threers-2tor"),
                ((7, 11), (11, 17), (3, 11), (7, 5), (7,)),
                ((11, 17), (17, 19), (11, 19), (11, 13), (19,), (17, 25)),
                (None, 7, 8, 30), (None, 5)),
    "unknown": (("cubic",), ((5, 7, 11),), ((11, 13), (11,)), (None,), (None,)),
}
# (situation, variant): a, b, c and an unknown one; every situation-c branch
# of both families, one that names the other family's branch and one unknown.
_GOLDEN_SITUATIONS = (("a", None), ("b", None), ("z", None), ("c", None),
                      ("c", "rst"), ("c", "rs"), ("c", "s"), ("c", "r"),
                      ("c", "zz"), ("b", "rs"))
_GOLDEN_DATASETS = (("GENERAL_ABC", 1), ("GENERAL_ABC", 3), ("TWO_THREE", 1),
                    ("TWO_THREE", 2), ("THREE_RS", 1), ("THREE_RS", 2))


def _golden_tables() -> tuple[VolTable | None, ...]:
    """No table, a table with every key of the grid, and one missing l = 17.

    Each raw Vol depends on its whole key, so reading the wrong key shows."""
    full, partial = VolTable(), VolTable()
    for family, kind in _GOLDEN_DATASETS:
        for l in (11, 13, 15, 17, 19, 21, 23, 25):
            for q in ((5, 7, 9, 11) if (family, kind) == ("TWO_THREE", 2) else (None,)):
                vol = Fraction(100 * kind + l, 64) + (q or 0)
                full.set_raw((family, kind, l, q), vol, "golden grid")
                if l != 17:
                    partial.set_raw((family, kind, l, q), vol, "golden grid")
    return None, full, partial


def _rejected_by_prime_or_option_checks(case, situation, variant, s_primes, q) -> bool:
    """Inputs that the composite-S/q and ignored-option checks reject: S or q
    composite, a situation other than a for a case without a primed block, or
    a variant outside situation c. They stay out of the digests; the tests of
    those checks cover them."""
    composite = any(l in (15, 21, 25) for l in s_primes) or (case == "twothree-q" and q == 9)
    no_primed = case in ("general-2tor", "twothree-u0", "twothree-t", "twothree-q")
    return composite or (no_primed and situation != "a") or (
        variant is not None and situation != "c")


def _golden_digests() -> dict[str, str]:
    tables = _golden_tables()
    certs: dict[str, str] = {}
    digests = {}
    for cases, exps, sets, u0s, qs in _GOLDEN_FAMILIES.values():
        for case in cases:
            h = hashlib.sha256()
            for e, (sit, var), s, u0, q, k, tab in itertools.product(
                    exps, _GOLDEN_SITUATIONS, sets, u0s, qs, (2, 3), range(3)):
                if _rejected_by_prime_or_option_checks(case, sit, var, s, q):
                    continue
                try:
                    cfg = scenario(case, e, sit, s_primes=s, k=k, tables=tables[tab],
                                   u0=u0, q=q, variant=var)
                    key = repr(cfg)
                    if key not in certs:
                        cert = certificate(cfg, forbidden_interval(cfg))
                        certs[key] = json.dumps(cert, sort_keys=True, default=str)
                    record = key + certs[key]
                except (ValueError, LookupError) as exc:
                    # Only the type of a bare ValueError (a wrong number of
                    # exponents): Python words unpacking errors per version.
                    text = "" if type(exc) is ValueError else str(exc)
                    record = f"{type(exc).__name__}: {text}"
                h.update(record.encode() + b"\n")
            digests[case] = h.hexdigest()
    return digests


# Expected sha256 per family case: a moved digest means scenario now builds or
# rejects some input of the grid differently.
_GOLDEN_DIGESTS = {
    "general": "06e7c4f5ff3416eda0d8b60be68f945cbeb4fd7d4c58cc3358b34ef12cd05328",
    "general-2tor": "3142c3c19a00075d795fdd1e4762dab61e6fe94cea6d9b94fd74edd02bb1844f",
    "twothree-u0": "143dda7ca46d7fe70f0502bd5e2fc3c6277c8b265068fb556125c9a1e7ae4fcb",
    "twothree-t": "83dbcb9355fba091d02f7f799c7e524829ee8b2fd65cb2c1629e9547baa4a75f",
    "twothree-q": "6f346d0cffd7e89fab7cb7c85eed7c2707d0af11b9aa790f17f86c9238909c26",
    "threers": "073ba0a866ebcaa04784ebe604d2ce11caad3655af58143a117a826ffacf1c22",
    "threers-2tor": "6a0ec69f72675864ce6c9b97461d36b618b2ad0aaa1df7ea1608c4c7b787abb8",
    "cubic": "e2b5f53bfa83d161f721f451b282f0df78275eee06d1c3a2adcfbd9f338566c5",
}


def test_scenario_golden_grid():
    assert _golden_digests() == _GOLDEN_DIGESTS


def test_scenario_rejects_the_inputs_left_out_of_the_digests():
    for cases, exps, sets, u0s, qs in _GOLDEN_FAMILIES.values():
        for case, e, (sit, var), s, u0, q, k in itertools.product(
                cases, exps, _GOLDEN_SITUATIONS, sets, u0s, qs, (2, 3)):
            if _rejected_by_prime_or_option_checks(case, sit, var, s, q):
                with pytest.raises(ValueError):
                    scenario(case, e, sit, s_primes=s, k=k, u0=u0, q=q, variant=var)
