from fractions import Fraction

import pytest

from gfekit.freycurves import FreyFamily
from gfekit.ramification import (
    A2_TABLES,
    VolTable,
    a1_coefficient,
    dataset,
)

G = FreyFamily.GENERAL_ABC
TT = FreyFamily.TWO_THREE
RS = FreyFamily.THREE_RS

# Every (family, kind) that dataset() catalogs, with the q it needs.
DATASETS = ((G, 1, None), (G, 2, None), (G, 3, None), (G, 4, None),
            (TT, 1, None), (TT, 2, 5), (RS, 1, None), (RS, 2, None), (RS, 3, None))


# Golden transcriptions of the catalog listings at l = 11 (and q = 5).
def test_general_dataset_kind1_golden():
    ds = dataset(G, 1, 11)
    assert (ds.l0, ds.e0) == (11, 3)
    assert ds.s0 == {2, 3, 11}
    assert ds.gen_mult == {1, 3, 11, 33}
    assert ds.per_prime[2] == ({2}, {2, 6, 22, 66})
    assert ds.per_prime[3] == ({2, 6, 8}, {2, 6, 22, 66})
    assert ds.per_prime[11] == ({10, 110, 120}, {10, 30, 110, 330})


def test_general_dataset_kind2_empties_good_set():
    ds = dataset(G, 2, 11)
    assert ds.per_prime[11][0] == frozenset()
    assert ds.per_prime[11][1] == {10, 30, 110, 330}


def test_general_dataset_kind3_golden():
    ds = dataset(G, 3, 13)
    assert (ds.l0, ds.e0) == (13, 1)
    assert ds.s0 == {2, 13}
    assert ds.gen_mult == {1, 13}
    assert ds.per_prime[2] == ({2}, {2, 26})
    assert ds.per_prime[13] == ({12, 156, 168}, {12, 156})


def test_twothree_dataset_kind1_golden():
    ds = dataset(TT, 1, 11)
    assert (ds.l0, ds.e0) == (11, 12)
    assert ds.s0 == {2, 3, 11}
    assert ds.gen_mult == frozenset(
        d for d in range(1, 133) if 132 % d == 0)
    assert ds.per_prime[2][0] == frozenset(
        d for d in range(1, 2**8 * 9 + 1) if (2**8 * 9) % d == 0 and d % 2 == 0)
    assert ds.per_prime[11][0] == {10, 110, 120}
    assert ds.per_prime[11][1] == frozenset(
        10 * e for e in (1, 2, 3, 4, 6, 11, 12, 22, 33, 44, 66, 132))


def test_twothree_dataset_kind2_golden():
    ds = dataset(TT, 2, 11, 5)
    assert (ds.l0, ds.e0, ds.q) == (11, 2, 5)
    assert ds.s0 == {2, 3, 5, 11}
    assert ds.gen_mult == {1, 2, 11, 22}
    assert ds.per_prime[3] == ({1}, frozenset(
        d for d in range(1, 111) if 110 % d == 0 and d % 2 == 0))
    assert ds.per_prime[5][0] == {4, 20, 24}
    assert ds.per_prime[5][1] == {4, 8, 44, 88}  # 4 * divisors of 22


def test_threers_dataset_kind2_golden():
    ds = dataset(RS, 2, 11)
    assert (ds.l0, ds.e0) == (11, 4)
    assert ds.per_prime[2][0] == {2, 4, 6, 8, 12, 16, 24, 32, 48, 96}
    assert ds.per_prime[3][0] == {2, 4, 6, 12}
    assert ds.per_prime[11][1] == frozenset(10 * e for e in (1, 2, 4, 11, 22, 44))
    ds3 = dataset(RS, 3, 11)
    assert ds3.per_prime[11][0] == frozenset()


def test_dataset_rejects_uncatalogued_combinations():
    with pytest.raises(ValueError):
        dataset(TT, 2, 11)  # q is mandatory here
    with pytest.raises(ValueError):
        dataset(G, 5, 11)  # no such kind
    with pytest.raises(ValueError):
        dataset(FreyFamily.TWO_RS, 1, 11)  # family has no catalog entries
    with pytest.raises(ValueError):
        dataset(TT, 1, 13)  # l = 13 is excluded for this family
    with pytest.raises(ValueError):
        dataset(TT, 2, 11, 11)  # l | q(q^2-1)


def test_datasets_list_every_catalog_entry():
    found = set()
    for fam in FreyFamily:
        for kind in range(6):
            try:
                dataset(fam, kind, 11, 5)
            except ValueError:
                continue
            found.add((fam, kind))
    assert found == {(fam, kind) for fam, kind, _ in DATASETS}


def test_exact_sets_divide_the_coarse_bounds():
    # Members of each exact good-reduction l-set divide #GL(2, Z/lZ) =
    # l(l-1)^2(l+1), and good-reduction indices at 2 divide the largest
    # multiplicative index there (the coarse "divides 6l" bound).
    for l in (11, 13, 17, 19, 23):
        gl2 = l * (l - 1) ** 2 * (l + 1)
        for fam, kind in ((G, 1), (RS, 2), (TT, 1)):
            if fam is not G and l == 13:
                continue
            exact, mult = dataset(fam, kind, l).per_prime[l]
            assert exact
            for e in exact:
                assert gl2 % e == 0
                assert e % (l - 1) == 0
            assert all(m % (l - 1) == 0 for m in mult)
    good2, mult2 = dataset(G, 1, 11).per_prime[2]
    assert max(mult2) == 6 * 11
    for e in good2:
        assert max(mult2) % e == 0


def test_dataset_index_sets_divide_gl2():
    # Every index at p = l is a multiple of l - 1 and divides
    # #GL(2, Z/lZ) = l(l-1)^2(l+1), the order of the mod-l image.
    for fam, kind, q in DATASETS:
        for l in (11, 13, 17, 19, 23):
            if fam is not G and l == 13:
                continue
            good, mult = dataset(fam, kind, l, q).per_prime[l]
            gl2 = l * (l - 1) ** 2 * (l + 1)
            assert mult
            for e in good | mult:
                assert gl2 % e == 0 and e % (l - 1) == 0, (fam, kind, l, e)


def test_set_raw_stores_value_and_provenance():
    table = VolTable()
    key = (G.name, 1, 11, None)
    table.set_raw(key, 5, "test")
    assert table.raw == {key: Fraction(5)}
    assert isinstance(table.raw[key], Fraction)
    assert table.provenance == {str(key): "test"}


def test_a2_tables_match_transcription():
    assert A2_TABLES["general-2tor"] == {11: 71, 13: 74, 17: 80, 19: 84,
                                         23: Fraction("91.1")}
    assert A2_TABLES["general-2tor-alt"] == {11: 71, 13: 74, 17: 80, 19: 84,
                                             23: 92}
    assert A2_TABLES["general-mu6"] == {17: 156, 19: 164, 23: 182, 29: 210,
                                        31: 219, 37: 248}
    assert A2_TABLES["threers-mu6"][29] == 1389
    assert A2_TABLES["threers-2tor"] == {17: 403, 19: 425, 23: 472, 29: 544,
                                         31: 578}


def test_a1_coefficient_values():
    # 3 < a1 <= 4 on the halved 2-torsion table; equality exactly at p = 11
    assert a1_coefficient("general-2tor", 11) == 4
    for p in (13, 17, 19, 23):
        v = a1_coefficient("general-2tor", p)
        assert 3 < v < 4
    for p in (17, 19, 23, 29, 31):
        v = a1_coefficient("threers-2tor", p)
        assert 6 < v < Fraction("7.6")
        v = a1_coefficient("threers-mu6", p)
        assert 6 < v < Fraction("7.6")
