import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from gfekit import catalog
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
