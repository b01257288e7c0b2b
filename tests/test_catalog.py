import functools
import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gfekit import catalog
from gfekit.arith import divisors, is_prime
from gfekit.catalog import (
    CatalanFamily,
    ChiClass,
    CountResult,
    Signature,
    State,
    classify_chi,
    count_remaining,
    known_solutions,
    load_registry,
    status,
)
from gfekit.search import SolutionRecord
from gfekit.structure import twothree_admissible_t


def test_chi_examples():
    assert classify_chi(Signature(2, 3, 5)) is ChiClass.SPHERICAL
    assert classify_chi(Signature(2, 4, 4)) is ChiClass.EUCLIDEAN
    assert classify_chi(Signature(4, 5, 7)) is ChiClass.HYPERBOLIC
    assert classify_chi(Signature(2, 3, 6)) is ChiClass.EUCLIDEAN
    # sweep against the rational definition chi = 1/a + 1/b + 1/c - 1
    for a, b in itertools.combinations_with_replacement(range(2, 101), 2):
        chi_ab = Fraction(1, a) + Fraction(1, b) - 1
        for c in range(b, 101):
            chi = chi_ab + Fraction(1, c)
            expected = (ChiClass.SPHERICAL if chi > 0 else
                        ChiClass.EUCLIDEAN if chi == 0 else ChiClass.HYPERBOLIC)
            assert classify_chi(Signature(a, b, c)) is expected, (a, b, c)


def test_known_solutions_verify():
    entries = known_solutions()
    assert len(entries) == 10
    fixed = [e for e in entries if isinstance(e, SolutionRecord)]
    assert len(fixed) == 9
    for rec in fixed:
        assert rec.verify()
    fam = [e for e in entries if isinstance(e, CatalanFamily)]
    assert len(fam) == 1
    for n in (2, 3, 7, 50):
        assert fam[0].member(n).verify()
    idents = {r.identity() for r in fixed}
    assert "2^5 + 7^2 = 3^4" in idents
    assert "43^8 + 96222^3 = 30042907^2" in idents


def test_known_solution_signatures_consistent_with_registry():
    # No fixed known solution may sit inside a signature whose registry
    # state claims "no non-trivial primitive solutions at all" -- the solved
    # rules all mean "solved: only the known solutions", so this checks the
    # records' signatures are classified (not out of scope).
    for rec in known_solutions():
        if isinstance(rec, CatalanFamily):
            continue
        sig = Signature(rec.r, rec.s, rec.t)
        st = status(sig)
        assert st.state in (State.SOLVED, State.REMAINING, State.OUT_OF_SCOPE)


def test_status_examples():
    st = status(Signature(5, 5, 5))
    assert st.state is State.SOLVED and "(n,n,n)" in st.provenance
    st = status(Signature(4, 5, 11))
    assert st.state is State.REMAINING and "(4,5,n)" in st.provenance
    st = status(Signature(4, 5, 10))
    assert st.state is State.SOLVED and "reduces to" in st.provenance
    assert status(Signature(2, 2, 7)).state is State.OUT_OF_SCOPE
    assert status(Signature(2, 3, 6)).state is State.SOLVED
    assert status(Signature(2, 5, 7)).state is State.REMAINING
    assert status(Signature(3, 5, 7)).state is State.REMAINING
    assert status(Signature(5, 5, 11)).state is State.SOLVED  # prime >= 11
    assert status(Signature(5, 5, 12)).state is State.SOLVED  # outside all clauses


def test_status_permutation_invariance():
    for triple in ((4, 5, 11), (2, 3, 11), (3, 13, 17), (5, 6, 7), (3, 5, 49)):
        states = {status(Signature(*perm)).state
                  for perm in itertools.permutations(triple)}
        assert len(states) == 1


def test_registry_consistency():
    reg = load_registry()
    assert reg["schema_version"] == 1
    # every remaining family clause is reachable: spot one signature per family
    assert status(Signature(2, 3, 109)).state is State.REMAINING
    assert status(Signature(3, 4, 113)).state is State.REMAINING
    assert status(Signature(3, 5, 3677)).state is State.REMAINING
    assert status(Signature(3, 11, 667)).state is State.REMAINING
    assert status(Signature(3, 17, 29)).state is State.REMAINING
    assert status(Signature(2, 101, 103)).state is State.REMAINING


def test_count_ge4_reproduces_published_value():
    result = count_remaining("ge4")
    assert result.count == 244
    assert result.matches_expected
    assert result.discrepancy_report() is None
    assert len(result.ledger) == 244
    # ledger is deterministic
    again = count_remaining("ge4")
    assert again.ledger_hash == result.ledger_hash


def test_ge4_matches_published_modulus_rules():
    # The closure-derived family-1 exclusions coincide with the shipped
    # modulus records.
    reg = load_registry()
    mods = {tuple(m["pair"]): m["moduli"] for m in reg["modulus_exclusions"]}
    result = count_remaining("ge4")
    kept = {tuple(c) for c in result.ledger}
    for (a, b), moduli in mods.items():
        for n in range(7, 304):
            canon = tuple(sorted((a, b, n)))
            expected_kept = all(n % m for m in moduli)
            assert (canon in kept) == expected_kept, (canon, moduli)


def test_count_beal_reports_structured_discrepancy():
    result = count_remaining("beal")
    assert result.expected == 2446
    if result.matches_expected:
        return
    report = result.discrepancy_report()
    assert report is not None
    assert report["computed"] == result.count
    assert report["published_rules_count"] >= result.count
    # every excluded in-range signature carries a citation
    assert all(e["citation"] for e in report["excluded_in_range"])
    # the delta enumeration explains the gap between the two closures
    assert len(report["delta_signatures"]) == (
        report["published_rules_count"] - report["full_closure_count"]
    )
    for entry in report["delta_signatures"]:
        assert "reduces to" in entry["citation"]


@pytest.mark.parametrize(("m", "size"), [(4, 39), (8, 27), (10, 27)])
def test_beal_ledger_3_m_n_is_a_strict_subset_of_the_2_3_n_sieve(m, size):
    # (3, m, n) reduces to (2, 3, n) for these m, so its remaining n must
    # survive the (2, 3, n) sieve; reductions remove some of the survivors.
    ns = {n for a, b, n in count_remaining("beal").ledger if (a, b) == (3, m)}
    assert len(ns) == size
    assert ns < set(twothree_admissible_t())


def test_counters_mode_validation_and_exclusion_toggle():
    with pytest.raises(ValueError):
        count_remaining("all")
    raw = count_remaining("ge4", closure="none")
    assert raw.count > 244
    assert set(map(tuple, count_remaining("ge4").ledger)) <= set(map(tuple, raw.ledger))


# Counts and ledger hashes of both closures at both floors.
COUNT_PINS = {
    ("ge4", "full"): (244, "a126315844542bc339633bf1de3f2918ad3d4cc9e079e22ee4d0bdc582a76bc4"),
    ("ge4", "published"): (244, "a126315844542bc339633bf1de3f2918ad3d4cc9e079e22ee4d0bdc582a76bc4"),
    ("beal", "full"): (2420, "24d99bec66c565803f258d8bff3f66e5a9b1ab96e43c3e0c58934d2da25ba726"),
    ("beal", "published"): (2444, "052fb5b63a78cae31aefa049ccc901f9e5f9a595bc8a96daecc1bf14dcd53a42"),
}


@pytest.mark.parametrize(("mode", "closure"), sorted(COUNT_PINS))
def test_count_pins(mode, closure):
    result = count_remaining(mode, closure=closure)
    assert (result.count, result.ledger_hash) == COUNT_PINS[mode, closure]


def test_count_without_exclusions_pin():
    raw = count_remaining("beal", closure="none")
    assert (raw.count, raw.ledger_hash) == (
        6249, "18cc5c80de9086ed6053464bf5cf70993147dea7079c32f2543016da67c0f3ff")


def test_no_exclusion_result_reports_the_real_closures():
    raw = count_remaining("beal", closure="none")
    assert raw.closure == "none"
    report = raw.discrepancy_report()
    assert (report["closure"], report["computed"]) == ("none", 6249)
    assert (report["full_closure_count"], report["published_rules_count"]) == (2420, 2444)
    full = count_remaining("beal").discrepancy_report()
    assert report["delta_signatures"] == full["delta_signatures"]
    assert len(report["delta_signatures"]) == 24


def test_status_sweep_pin():
    # state and provenance of every canonical triple with entries in 2..60
    rows = [[list(canon), st.state.value, st.provenance]
            for canon in itertools.combinations_with_replacement(range(2, 61), 3)
            for st in [status(Signature(*canon))]]
    assert len(rows) == 35990
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "ea60f7e75249b373a32f43dcbbee11bc28fec925b00771368531e6d437712f08")


def _assert_count_pins_hold():
    for (mode, closure), pin in COUNT_PINS.items():
        result = count_remaining(mode, closure=closure)
        assert (result.count, result.ledger_hash) == pin


def test_status_interleaves_registries_on_warm_caches(tmp_path):
    reg = load_registry()
    sig = Signature(4, 5, 11)
    assert status(sig).state is State.REMAINING  # warm the caches
    trimmed = dict(reg, remaining_families=[
        fam for fam in reg["remaining_families"] if fam["id"] != "f-45n"])
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(trimmed))
    for _ in range(2):
        assert status(sig, str(path)).state is not State.REMAINING
        assert status(sig).state is State.REMAINING
    assert count_remaining("ge4", registry_path=str(path)).count == 148
    assert status(sig).state is State.REMAINING
    _assert_count_pins_hold()


def test_registry_path_counts_beside_warm_closures(tmp_path):
    _assert_count_pins_hold()  # warm every catalog cache
    reg = load_registry()
    # Drop a remaining family and a solved rule, so that a stale closure or a
    # stale matcher of either kind changes a count.
    edited = dict(
        reg,
        remaining_families=[f for f in reg["remaining_families"] if f["id"] != "f-45n"],
        solved_rules=[r for r in reg["solved_rules"]
                      if not (r["kind"] == "aan" and r["fixed"] == 3)])
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(edited))
    assert count_remaining("ge4", registry_path=str(path)).count == 148
    published = count_remaining("beal", closure="published", registry_path=str(path))
    assert published.count == 2388
    # The report compares the closures of the registry that was counted.
    full = count_remaining("beal", registry_path=str(path))
    assert published.discrepancy_report()["full_closure_count"] == full.count
    assert full.count != COUNT_PINS["beal", "full"][0]
    _assert_count_pins_hold()


def test_both_forms_of_the_shipped_registry_share_one_dict():
    assert load_registry() is load_registry(None)


def test_clearing_every_catalog_cache_drops_the_registry():
    shipped = load_registry()
    for value in vars(catalog).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    assert load_registry() is not shipped
    assert load_registry() is load_registry(None)
    _assert_count_pins_hold()


def test_count_result_mutation_does_not_reach_the_next_result():
    first = count_remaining("beal", closure="published")
    first.ledger.append((3, 3, 3))
    first.excluded[0]["citation"] = "edited"
    first.excluded[0]["signature"].append(99)
    again = count_remaining("beal", closure="published")
    assert (again.count, again.ledger_hash) == COUNT_PINS["beal", "published"]
    assert len(again.ledger) == again.count
    assert again.excluded[0]["citation"] != "edited"
    assert len(again.excluded[0]["signature"]) == 3


# ---------------------------------------------------------------------------
# The registry's remaining-family windows, derived from the structure layer.


def test_twothree_window_is_the_admissible_t_sieve():
    from gfekit.structure import twothree_admissible_t

    remaining = tuple(n for n in range(7, 400)
                      if status(Signature(2, 3, n)).state is State.REMAINING)
    assert remaining == twothree_admissible_t(400)
    assert len(remaining) == 56


def test_exponent_windows_are_the_structure_caps():
    from gfekit.structure import general_v2_sieve, threers_exponent_range

    windows = {(4, 5): general_v2_sieve()[1], (4, 7): general_v2_sieve()[1],
               (5, 6): general_v2_sieve()[1], (3, 7): threers_exponent_range()[1],
               (3, 11): threers_exponent_range()[1]}
    assert set(windows.values()) == {303, 667}
    for (a, b), cap in windows.items():
        own = [n for n in range(2, 2 * cap)
               for st in [status(Signature(a, b, n))]
               if st.state is State.REMAINING and st.provenance.startswith(f"({a},{b},n)")]
        assert own and max(own) <= cap, (a, b)
        # Every member cites the family window ending at the structure cap.
        assert all(status(Signature(a, b, n)).provenance.endswith(f"<= n <= {cap}")
                   for n in own), (a, b)


def test_general_window_303_and_301_give_the_same_ledgers(tmp_path):
    # 302 and 303 fall to modulus exclusions, so no count rests on the
    # registry's 303 (the structure cap) against the published 301.
    reg = load_registry()
    edited = dict(reg, remaining_families=[
        dict(f, n_max=301) if f["id"] in ("f-45n", "f-47n", "f-56n") else f
        for f in reg["remaining_families"]])
    path = tmp_path / "registry.json"
    path.write_text(json.dumps(edited))
    for mode in ("ge4", "beal"):
        shipped = count_remaining(mode)
        narrowed = count_remaining(mode, registry_path=str(path))
        assert (narrowed.count, narrowed.ledger) == (shipped.count, shipped.ledger)
        assert narrowed.ledger_hash == shipped.ledger_hash


# ---------------------------------------------------------------------------
# The compiled registry index against a plain loop over the rules.


class _PlainRegistry:
    """The registry read the way the index replaced: every rule and family
    tried in registry order for every signature, with divisors from
    arith.divisors. It shares no matcher with catalog."""

    def __init__(self, reg: dict):
        self.reg = reg
        self.solved = functools.lru_cache(maxsize=None)(self._solved)

    @staticmethod
    def without(canon, entries):
        rest = list(canon)
        for e in entries:
            if e not in rest:
                return None
            rest.remove(e)
        return rest

    def base(self, canon):
        for rule in self.reg["solved_rules"]:
            kind = rule["kind"]
            if kind == "nnn":
                hit = canon[0] == canon[2] and canon[0] >= rule["n_min"]
            elif kind == "aan":
                rest = self.without(canon, [rule["fixed"]])
                hit = rest is not None and rest[0] == rest[1] >= rule["repeated_min"]
            elif kind == "exact":
                hit = list(canon) in [sorted(t) for t in rule["triples"]]
            else:
                rest = self.without(canon, rule["pair"])
                if rest is None:
                    continue
                n = rest[0]
                hit = (n in rule["n_values"] if kind == "fixed-pair-set" else
                       n >= rule["n_min"] and (kind == "fixed-pair-min" or is_prime(n)))
            if hit:
                return rule["citation"]
        return None

    def readings(self, canon):
        out = []
        for fam in self.reg["remaining_families"]:
            kind = fam.get("kind", "pair")
            fixed = fam["pair"] if kind == "pair" else [3 if kind == "3mn" else 2]
            rest = self.without(canon, fixed)
            if rest is None:
                continue
            if kind == "pair":
                n = rest[0]
                inside = fam["n_min"] <= n <= fam["n_max"] or n in fam.get("n_extra", ())
            else:
                m, n = rest
                fixed = [fixed[0], m]
                inside = (fam["m_min"] <= m <= fam["m_max"] and m < n <= fam["n_max"]
                          if kind == "3mn" else m >= fam["m_min"] and n >= fam["n_min"])
            if inside:
                out.append((tuple(fixed), n, fam["clause"]))
        return out

    def _solved(self, canon):
        base = self.base(canon)
        if base is not None:
            return base
        if not self.readings(canon):
            return "complement of the remaining-signature list"
        a, b, c = canon
        seen = set()
        for da in divisors(a)[1:]:
            for db in divisors(b)[1:]:
                for dc in divisors(c)[1:]:
                    red = tuple(sorted((da, db, dc)))
                    if red == canon or red in seen:
                        continue
                    seen.add(red)
                    if classify_chi(Signature(*red)) is ChiClass.SPHERICAL:
                        continue
                    sub = self.solved(red)
                    if sub is not None:
                        return f"reduces to {red}: {sub}"
        return None

    def status(self, canon):
        if classify_chi(Signature(*canon)) is ChiClass.SPHERICAL:
            return (State.OUT_OF_SCOPE,
                    "spherical signature: parametrized solution families exist")
        cited = self.solved(canon)
        if cited is not None:
            return State.SOLVED, cited
        return State.REMAINING, self.readings(canon)[0][2]

    def full(self, canon):
        state, provenance = self.status(canon)
        return None if state is State.REMAINING else provenance

    def published(self, canon):
        direct = self.base(canon)
        if direct is not None:
            return direct
        mods = {tuple(m["pair"]): m for m in self.reg["modulus_exclusions"]}
        for pair, n, _ in self.readings(canon):
            rule = mods.get(pair)
            if rule and any(n % m == 0 for m in rule["moduli"]):
                return rule["citation"]
            for d in divisors(n)[1:-1]:
                red = tuple(sorted(pair + (d,)))
                if classify_chi(Signature(*red)) is ChiClass.SPHERICAL:
                    continue
                if self.base(red) is not None:
                    return f"parameter reduces to {red}: {self.base(red)}"
                if not self.readings(red):
                    return f"parameter reduces to {red}: complement of the remaining list"
        return None


def _registry_variant(reg: dict, edits) -> dict:
    """reg with each edit applied: ("drop", section, i) removes an entry,
    ("n_min", i, delta) moves the n_min of the i-th entry that has one, and
    ("n_extra", i, n) adds n to the extras of the i-th pair family."""
    reg = json.loads(json.dumps(reg))
    for edit in edits:
        if edit[0] == "drop":
            entries = reg[edit[1]]
            entries.pop(edit[2] % len(entries))
        elif edit[0] == "n_min":
            owners = [e for s in ("solved_rules", "remaining_families")
                      for e in reg[s] if "n_min" in e]
            owner = owners[edit[1] % len(owners)]
            owner["n_min"] = max(2, owner["n_min"] + edit[2])
        else:
            pairs = [f for f in reg["remaining_families"] if f.get("kind", "pair") == "pair"]
            family = pairs[edit[1] % len(pairs)]
            family["n_extra"] = sorted({*family.get("n_extra", ()), edit[2]})
    return reg


_EDITS = st.lists(st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(["solved_rules", "remaining_families"]),
              st.integers(0, 30)),
    st.tuples(st.just("n_min"), st.integers(0, 30), st.integers(-4, 4)),
    st.tuples(st.just("n_extra"), st.integers(0, 30), st.integers(4, 700))),
    min_size=1, max_size=2)


@settings(max_examples=12, deadline=None)
@given(_EDITS)
def test_indexed_registry_equals_a_plain_loop_over_the_rules(tmp_path_factory, edits):
    reg = _registry_variant(load_registry(), edits)
    path = tmp_path_factory.mktemp("variant") / "registry.json"
    path.write_text(json.dumps(reg))
    plain = _PlainRegistry(reg)
    for canon in itertools.combinations_with_replacement(range(2, 23), 3):
        got = status(Signature(*canon), str(path))
        assert (got.state, got.provenance) == plain.status(canon), canon
    for closure, exclusion in (("full", plain.full), ("published", plain.published)):
        result = count_remaining("ge4", closure=closure, registry_path=str(path))
        expected = [(c, exclusion(c)) for c in catalog._in_range_candidates(4, str(path))]
        assert result.ledger == [c for c, cite in expected if not cite]
        assert result.excluded == [{"signature": list(c), "citation": cite}
                                   for c, cite in expected if cite]
