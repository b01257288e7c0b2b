import json
import math
import re
import warnings
from fractions import Fraction

import pytest

from gfekit import campaign
from gfekit.campaign import (
    _CHUNK,
    CampaignPlan,
    CampaignReport,
    CheckpointMismatch,
    build_p1_plan,
    build_p2_plan,
    build_p3_plan,
    explicit_box_task,
    run_campaign,
)
from gfekit import search, structure
from gfekit.linlog import LinLog, log_bounds, log_of_int
from gfekit.structure import structure_profile


def desk_plan() -> CampaignPlan:
    plan = build_p3_plan(5, 6, 7, box_limit=8)
    plan.tasks.append(explicit_box_task("box-239", range(1, 25), 2,
                                        range(1, 25), 3, {9}))
    return plan


def test_p3_plan_shape():
    plan = build_p3_plan(5, 6, 7, box_limit=8)
    assert plan.meta["l"] == 11  # smallest admissible auxiliary prime
    assert plan.tasks
    assert all(t.kind == "pair" for t in plan.tasks)
    with pytest.raises(ValueError):
        build_p3_plan(4, 5, 6)  # 6 > 4 + 5 - 4
    with pytest.raises(ValueError):
        build_p2_plan(5, 6, 7)  # 7 < 5 + 6 - 3
    with pytest.raises(ValueError):
        build_p2_plan(4, 5, 11, l=11)  # the profile rejects l dividing t
    assert build_p2_plan(4, 5, 30, box_limit=4).tasks


def test_smooth_values_under_coprime_example():
    # A log cap just above log 7 admits the odd values up to 7.
    cap = Fraction(math.log(7)).limit_denominator(10**6) + Fraction(1, 10**6)
    assert campaign._smooth_values_under(cap, (2,), None) == (1, 3, 5, 7)
    assert campaign._smooth_values_under(cap, (2, 3), 5) == (1, 5)


@pytest.mark.parametrize("build, exponents", [
    (build_p1_plan, (4, 4)),
    (build_p2_plan, (4, 4, 5)),
    (build_p3_plan, (4, 4, 4)),
])
def test_exponents_at_a1_have_no_cap(build, exponents):
    # a1(11) = 4, so two exponents 4 leave no weight for the single-smooth
    # or pair-product cap: the profile grants none.
    with pytest.raises(ValueError, match="grants no"):
        build(*exponents, box_limit=6)


@pytest.mark.parametrize("exponents", [(10, 4, 5), (10, 4, 4)])
def test_p3_needs_the_profiles_pair_product_cap(exponents):
    # The largest weight exceeds the sum of the other two, so the joint
    # pair-product cap does not hold.
    with pytest.raises(ValueError, match="min-pair-product"):
        build_p3_plan(*exponents, box_limit=6)


P2_GROUPS = (("x", "z"), ("y", "z"))
P3_GROUPS = (("x", "y"), ("x", "z"), ("y", "z"))


@pytest.mark.parametrize("build, exponents, caps, groups", [
    (build_p2_plan, (4, 5, 8), ("min-single", "largest-single"), P2_GROUPS),
    (build_p3_plan, (4, 5, 5), ("min-pair-product", "min-pair-product"), P3_GROUPS),
    (build_p3_plan, (5, 6, 7), ("min-pair-product", "min-pair-product"), P3_GROUPS),
])
def test_pair_plan_smooth_parts_match_brute_force(build, exponents, caps, groups):
    # A pair (sa, sb) is admitted when log(sb)/B + lo(sa)/A <= 1, with
    # lo(sa) the certified lower bound of log sa and every decision certified.
    plan = build(*exponents, box_limit=20)
    prof = structure_profile("general", exponents, plan.meta["l"])
    cap_a, cap_b = (prof.pair_caps[name] for name in caps)
    expect = set()
    for na, nb in groups:
        for sa in range(1, 21):
            if any(sa % p == 0 for p in prof.variables[na].smooth_coprime_to):
                continue
            if log_of_int(sa) > LinLog.of(cap_a):
                continue
            rem = LinLog.of(cap_b - cap_b * log_bounds(sa)[0] / cap_a)
            expect |= {(na, sa, nb, sb) for sb in range(1, 21)
                       if all(sb % p for p in prof.variables[nb].smooth_coprime_to)
                       and log_of_int(sb) <= rem}
    got = []
    for t in plan.tasks:
        na, nb = re.match(r"pair-([xyz])\d+-([xyz])", t.task_id).groups()
        got.append((na, t.params["a"]["smooth"], nb, t.params["b"]["smooth"]))
    assert sorted(got) == sorted(expect)


@pytest.mark.parametrize("build, exponents, tasks, digest", [
    (build_p3_plan, (4, 5, 5), 243,
     "8a36e5fed6e64de7ce307d855fbbcd5732a9ebbf13e863278acf4600c8af6faa"),
    (build_p1_plan, (7, 11), 18,
     "bcceb47b54320513bcdc113581fd22ca65d17b5d4aa93b075be65e6a0594e652"),
    (build_p2_plan, (4, 5, 8), 162,
     "bf6b1ca1f1cdd2e77923859403c0247388b893725c1f0bcb9db9268db9c8a694"),
])
def test_plan_hash_pins(build, exponents, tasks, digest):
    # Smooth-part enumeration and the certified log caps feed these hashes.
    plan = build(*exponents, box_limit=20)
    assert len(plan.tasks) == tasks
    assert plan.plan_hash() == digest


@pytest.mark.parametrize("build, exponents, cap", [
    (build_p2_plan, (4, 5, 8), "71.00"),
    (build_p3_plan, (5, 6, 7), "23.67"),
])
def test_unbounded_smooth_list_is_refused(build, exponents, cap):
    # e^cap is far above _SMOOTH_PART_MAX: without a box_limit the plan
    # would list every smooth part below it.
    message = re.escape(f"{exponents} at l=11: ") + f".* cap {cap} admits smooth"
    with pytest.raises(ValueError, match=message):
        build(*exponents)
    assert build(*exponents, box_limit=20).tasks


def test_p1_plan_without_box_limit_builds():
    # cap 3145/441 ~ 7.13 lists the ~1,250 integers up to e^cap.
    plan = build_p1_plan(7, 11)
    assert plan.meta["smooth_cap"] == "3145/441"
    assert len(plan.tasks) == 1154


# report_hash of P3(4,5,5) then P1(7,11), box_limit=20, taken before the box
# checks cached spec expansions and support masks.
P3_P1_REPORT = "f88577139c25c1f7f33339f1caabac0219bf1b4b977a1ecdd17d0922b9970b0f"


def test_campaign_expands_each_spec_and_masks_each_value_once():
    for module in (search, structure):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    p3 = build_p3_plan(4, 5, 5, box_limit=20)
    p1 = build_p1_plan(7, 11, box_limit=20)
    plan = CampaignPlan("p3-p1", p3.tasks + p1.tasks, {"box_limit": 20})
    specs = [t.params["a"] for t in p3.tasks] + [t.params["b"] for t in p3.tasks] \
        + [t.params["spec"] for t in p1.tasks]
    distinct = {json.dumps(spec, sort_keys=True) for spec in specs}
    pair_values = {v for t in p3.tasks for key in "ab"
                   for v in search.enumerate_candidates(t.params[key])}
    # The tail tasks run through check_pair, so their candidates and their
    # powers 2^m are masked too.
    tail_values = {v for t in p1.tasks
                   for v in search.enumerate_candidates(t.params["spec"])}
    powers = {2**m for t in p1.tasks
              for m in range(t.params["m_lo"], t.params["m_hi"] + 1)}
    masked = pair_values | tail_values | powers
    assert (len(specs), len(distinct), len(pair_values), len(powers),
            len(masked)) == (504, 36, 1323, 237, 1594)
    report = run_campaign(plan, shards=1)
    assert report.report_hash() == P3_P1_REPORT
    assert search._expand_spec.cache_info().misses == len(distinct)
    assert search._support_mask.cache_info().misses == len(masked)


def test_p1_plan_shape():
    plan = build_p1_plan(4, 5, box_limit=10)
    assert plan.meta["l"] == 11
    assert all(t.kind == "tail" for t in plan.tasks)
    assert all(t.params["m_lo"] == 70 and t.params["m_hi"] == 306
               for t in plan.tasks)
    with pytest.raises(ValueError):
        build_p1_plan(4, 70)


def test_campaign_finds_planted_identity_and_nothing_else():
    report = run_campaign(desk_plan())
    assert [r.identity() for r in report.records()] == ["13^2 + 7^3 = 2^9"]
    assert report.verdict.startswith("1-records-found")


def test_campaign_determinism_across_shards():
    plan = desk_plan()
    hashes = {run_campaign(plan, shards=n).report_hash() for n in (1, 4, 8)}
    assert len(hashes) == 1


def test_checkpoint_bytes_do_not_depend_on_shards(tmp_path):
    plan = build_p1_plan(7, 11, box_limit=20)
    files = set()
    for n in (1, 2, 4):
        path = tmp_path / f"shards{n}.ckpt"
        run_campaign(plan, shards=n, checkpoint_path=str(path))
        files.add(path.read_bytes())
    assert len(files) == 1


def test_failing_task_keeps_earlier_chunks(tmp_path, monkeypatch):
    # A pair task with root exponent 1 always raises (ValueError from the
    # root sieves). It opens the third chunk, at an even plan index.
    bad = 2 * _CHUNK
    tasks = [explicit_box_task(f"box-{i}", range(1, 20), 2, range(1, 20), 3, {9})
             for i in range(3 * _CHUNK)]
    tasks.insert(bad, explicit_box_task("bad", [1, 2], 2, [1, 2], 3, {1}))
    plan = CampaignPlan("failing", tasks)
    ckpt = tmp_path / "run.ckpt"
    with pytest.raises(ValueError):
        run_campaign(plan, shards=2, checkpoint_path=str(ckpt))
    recorded = [json.loads(ln)["task_id"]
                for ln in ckpt.read_text().splitlines()[1:]]
    assert recorded == [t.task_id for t in tasks[:bad]]

    ran = []
    run_task = campaign.run_task

    def stand_in(task):
        ran.append(task.task_id)
        if task.task_id == "bad":
            return {"task_id": "bad", "box_size": 0, "records": []}
        return run_task(task)

    monkeypatch.setattr(campaign, "run_task", stand_in)
    report = run_campaign(plan, checkpoint_path=str(ckpt))
    assert ran == [t.task_id for t in tasks[bad:]]
    assert [o["task_id"] for o in report.outcomes] == [t.task_id for t in tasks]


def test_plan_roundtrip(tmp_path):
    plan = desk_plan()
    path = tmp_path / "plan.json"
    plan.save(str(path))
    loaded = CampaignPlan.load(str(path))
    assert loaded.plan_hash() == plan.plan_hash()


def test_tail_plan_passes_the_param_types():
    plan = build_p1_plan(7, 11, box_limit=20)
    loaded = CampaignPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
    assert loaded.plan_hash() == plan.plan_hash()


_PAIR = {"a": {"values": [1]}, "b": {"smooth": 1, "l": 11}, "r": 2, "s": 3,
         "t_set": [2]}


@pytest.mark.parametrize("key, value", [
    ("r", "2"), ("s", 2.5), ("r", True), ("t_set", 9), ("t_set", [2, "3"]),
    ("a", {"values": "x"}), ("a", [1, 2]), ("b", {"smooth": 1}),
    ("b", {"smooth": 1, "l": 11, "lparts": 1}),
    ("b", {"smooth": 1, "l": 11, "e2cap": 3}),
])
def test_mistyped_param_names_task_and_param(key, value):
    tasks = [{"task_id": "ok", "kind": "pair", "params": _PAIR},
             {"task_id": "bad", "kind": "pair", "params": {**_PAIR, key: value}}]
    with pytest.raises(ValueError, match=f"^plan task 1 \\(pair\\) param '{key}' must be "):
        CampaignPlan.from_dict({"name": "x", "tasks": tasks})


def test_report_roundtrip(tmp_path):
    report = run_campaign(desk_plan())
    path = tmp_path / "report.json"
    report.save(str(path))
    loaded = CampaignReport.load(str(path))
    assert loaded.report_hash() == report.report_hash()
    # corrupt a record: load must refuse
    data = json.loads(path.read_text())
    for outcome in data["outcomes"]:
        for rec in outcome["records"]:
            rec["x"] += 1
    path.write_text(json.dumps(data))
    with pytest.raises(Exception):
        CampaignReport.load(str(path))


def test_checkpoint_resume(tmp_path):
    plan = desk_plan()
    ckpt = tmp_path / "run.ckpt"
    full = run_campaign(plan)
    # run the first half only, by truncating the plan
    half = CampaignPlan(plan.name, plan.tasks[: len(plan.tasks) // 2], plan.meta)
    partial = run_campaign(half, checkpoint_path=str(ckpt))
    assert len(partial.outcomes) == len(half.tasks)
    # hack: the checkpoint from the half-plan has a different plan hash,
    # so resuming the full plan from it must refuse
    with pytest.raises(CheckpointMismatch):
        run_campaign(plan, checkpoint_path=str(ckpt))
    # a matching checkpoint resumes and completes to the same report
    ckpt2 = tmp_path / "run2.ckpt"
    first = run_campaign(plan, checkpoint_path=str(ckpt2))
    again = run_campaign(plan, checkpoint_path=str(ckpt2))
    assert first.report_hash() == again.report_hash() == full.report_hash()


def test_checkpoint_integrity(tmp_path):
    plan = desk_plan()
    ckpt = tmp_path / "run.ckpt"
    run_campaign(plan, checkpoint_path=str(ckpt))
    lines = ckpt.read_text().splitlines()
    # tamper with a completed-task line
    tampered = lines[:]
    assert '"box_size":' in tampered[1]
    tampered[1] = tampered[1].replace('"box_size":', '"box_size":9', 1)
    ckpt.write_text("\n".join(tampered) + "\n")
    with pytest.raises(CheckpointMismatch):
        run_campaign(plan, checkpoint_path=str(ckpt))


def three_box_plan() -> CampaignPlan:
    return CampaignPlan("three-boxes", [
        explicit_box_task(f"box-{i}", range(1, 20), 2, range(1, 20), 3, {9})
        for i in range(3)
    ])


def test_checkpoint_torn_at_every_byte_of_last_task_line(tmp_path):
    plan = three_box_plan()
    full = tmp_path / "full.ckpt"
    expected = run_campaign(plan, checkpoint_path=str(full)).report_hash()
    data = full.read_bytes()
    lines = data.splitlines(keepends=True)
    assert b'"task_id":"box-2"' in lines[3] and b'"integrity"' in lines[4]
    start = len(b"".join(lines[:3]))
    end = start + len(lines[3])
    ckpt = tmp_path / "cut.ckpt"
    for cut in range(start, end + 1):
        ckpt.write_bytes(data[:cut])
        torn = cut not in (start, end)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_campaign(plan, checkpoint_path=str(ckpt))
        assert report.report_hash() == expected, cut
        assert any("torn" in str(w.message) for w in caught) == torn, cut
        # the resumed checkpoint is whole: a second resume reads it cleanly
        assert run_campaign(plan, checkpoint_path=str(ckpt)).report_hash() == expected


def test_resume_at_every_task_boundary_rebuilds_the_same_checkpoint(tmp_path):
    plan = CampaignPlan("six-boxes", [
        explicit_box_task(f"box-{i}", range(1, 20), 2, range(1, 20), 3, {9})
        for i in range(6)
    ])
    full = tmp_path / "full.ckpt"
    run_campaign(plan, checkpoint_path=str(full))
    lines = full.read_bytes().splitlines(keepends=True)
    ckpt = tmp_path / "cut.ckpt"
    for kept in range(1, len(lines) - 1):  # the plan line plus `kept - 1` tasks
        ckpt.write_bytes(b"".join(lines[:kept]))
        run_campaign(plan, shards=2, checkpoint_path=str(ckpt))
        assert ckpt.read_bytes() == full.read_bytes(), kept


def test_resumed_checkpoint_keeps_one_integrity_line(tmp_path):
    plan = CampaignPlan("one-box", [
        explicit_box_task("box-0", range(1, 20), 2, range(1, 20), 3, {9})])
    ckpt = tmp_path / "run.ckpt"
    hashes = {run_campaign(plan, checkpoint_path=str(ckpt)).report_hash()
              for _ in range(3)}
    assert len(hashes) == 1
    lines = ckpt.read_text().splitlines()
    assert len(lines) == 3
    assert [i for i, ln in enumerate(lines) if '"integrity"' in ln] == [2]


def test_checkpoint_corrupt_inner_line_is_mismatch(tmp_path):
    plan = three_box_plan()
    ckpt = tmp_path / "run.ckpt"
    run_campaign(plan, checkpoint_path=str(ckpt))
    lines = ckpt.read_text().splitlines()
    lines[2] = lines[2][: len(lines[2]) // 2]
    ckpt.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointMismatch):
        run_campaign(plan, checkpoint_path=str(ckpt))
