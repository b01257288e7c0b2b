"""Campaign plans: sharded, checkpointed execution of search boxes.

A plan is a list of independent tasks, each a self-contained generator spec
for a finite box (candidate expansions of fixed smooth parts, or explicit
value lists). Execution order never affects the report: outcomes are merged
by task id and hashed over a canonical JSON form, so the same plan yields
byte-identical reports for any shard count and across resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CheckpointMismatch
from .linlog import LinLog, log_bounds
from .search import (SolutionRecord, check_pair, check_power_tail,
                     enumerate_candidates)
from .structure import StructureProfile, structure_profile, values_coprime_to

__all__ = [
    "CampaignPlan",
    "CampaignReport",
    "CheckpointMismatch",
    "build_p1_plan",
    "build_p2_plan",
    "build_p3_plan",
    "explicit_box_task",
    "run_campaign",
]

_PLAN_L_CHOICES = (11, 13, 17, 19)
# The 2-power window m_lo..m_hi of every P1 tail task: z^t = 2^m with t at
# least the window's start, which also bounds the plan's exponents r, s.
_P1_WINDOW = (70, 306)
# The most smooth parts one coordinate of a plan may list: a larger cap with
# no box_limit would build a list no run can hold (P2(4,5,8) has cap 71).
_SMOOTH_PART_MAX = 10**6
# Tasks per pool round trip at shards > 1. One task per trip adds a
# measurable per-task cost on plans of small boxes; a larger chunk delays the
# checkpoint record of every task in it.
_CHUNK = 4
# The params each task kind reads in run_task, with their types; from_dict
# checks both.
_TASK_PARAMS = {"pair": {"a": "spec", "b": "spec", "r": "int", "s": "int",
                         "t_set": "int list"},
                "tail": {"spec": "spec", "s": "int", "r_set": "int list",
                         "m_lo": "int", "m_hi": "int"}}
# The fields of a generator spec (see search.enumerate_candidates).
_SPEC_FIELDS = {"smooth": "int", "l": "int", "e2_cap": "int", "e3_cap": "int",
                "el_cap": "int", "lparts": "int list"}
_TYPE_NAMES = {"int": "an int", "int list": "a list of ints",
               "spec": '{"values": [int, ...]} or a generator spec of int '
                       "smooth, l, e2_cap, e3_cap, el_cap and int list lparts"}


def _fits(value, kind: str) -> bool:
    """Whether a JSON value has the param type kind (a key of _TYPE_NAMES)."""
    if kind == "int":
        return type(value) is int
    if kind == "int list":
        return isinstance(value, list) and all(type(v) is int for v in value)
    if not isinstance(value, dict):
        return False
    if "values" in value:
        return _fits(value["values"], "int list")
    return "smooth" in value and "l" in value and all(
        k in _SPEC_FIELDS and _fits(v, _SPEC_FIELDS[k]) for k, v in value.items())


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Task:
    task_id: str
    kind: str          # "pair" | "tail"
    params: dict

    def as_dict(self) -> dict:
        return {"task_id": self.task_id, "kind": self.kind, "params": self.params}


@dataclass
class CampaignPlan:
    name: str
    tasks: list[Task]
    meta: dict = field(default_factory=dict)

    def plan_hash(self) -> str:
        return _sha(_canonical(self.as_dict()))

    def as_dict(self) -> dict:
        return {"name": self.name, "meta": self.meta,
                "tasks": [t.as_dict() for t in self.tasks]}

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignPlan":
        """A plan from its JSON form. A ValueError names the first missing
        or mistyped piece, so every loaded task carries the params its kind
        reads, each of the type run_task passes on."""
        if not isinstance(d, dict):
            raise ValueError(f"plan must be a JSON object, got {type(d).__name__}")
        for key in ("name", "tasks"):
            if key not in d:
                raise ValueError(f"plan has no {key!r}")
        if not isinstance(d["tasks"], list):
            raise ValueError("plan 'tasks' must be a list")
        tasks = []
        for i, t in enumerate(d["tasks"]):
            if not isinstance(t, dict):
                raise ValueError(f"plan task {i} must be a JSON object")
            for key in ("task_id", "kind", "params"):
                if key not in t:
                    raise ValueError(f"plan task {i} has no {key!r}")
            kind, params = t["kind"], t["params"]
            if not isinstance(kind, str) or kind not in _TASK_PARAMS:
                raise ValueError(f"unknown task kind {kind!r}")
            if not isinstance(params, dict):
                raise ValueError(f"plan task {i} params must be a JSON object")
            for key in _TASK_PARAMS[kind]:
                if key not in params:
                    raise ValueError(f"plan task {i} ({kind}) has no param {key!r}")
            for key, typ in _TASK_PARAMS[kind].items():
                if not _fits(params[key], typ):
                    raise ValueError(f"plan task {i} ({kind}) param {key!r} must be "
                                     f"{_TYPE_NAMES[typ]}, got {params[key]!r:.40}")
            tasks.append(Task(t["task_id"], kind, params))
        return cls(name=d["name"], tasks=tasks, meta=d.get("meta", {}))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "CampaignPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def run_task(task: Task) -> dict:
    p = task.params
    if task.kind == "pair":
        a = enumerate_candidates(p["a"])
        b = enumerate_candidates(p["b"])
        records = check_pair(a, p["r"], b, p["s"], p["t_set"])
        box = len(a) * len(b)
    elif task.kind == "tail":
        cands = enumerate_candidates(p["spec"])
        records = check_power_tail(
            cands, p["s"], p["r_set"], range(p["m_lo"], p["m_hi"] + 1),
            m_bounds=(p["m_lo"], p["m_hi"]),
        )
        box = len(cands) * (p["m_hi"] - p["m_lo"] + 1)
    else:
        raise ValueError(f"unknown task kind {task.kind!r}")
    return {
        "task_id": task.task_id,
        "box_size": box,
        "records": [r.as_dict() for r in records],
    }


@dataclass
class CampaignReport:
    plan_name: str
    plan_hash: str
    outcomes: list[dict]
    truncated: bool

    def records(self) -> list[SolutionRecord]:
        out = []
        for o in self.outcomes:
            out.extend(SolutionRecord.from_dict(r) for r in o["records"])
        return sorted(set(out), key=lambda r: r.sort_key())

    @property
    def verdict(self) -> str:
        n = sum(len(o["records"]) for o in self.outcomes)
        base = "all-boxes-empty" if n == 0 else f"{n}-records-found"
        return base + ("-truncated" if self.truncated else "")

    def report_hash(self) -> str:
        return _sha(_canonical({
            "plan": self.plan_hash,
            "outcomes": self.outcomes,
        }))

    def as_dict(self) -> dict:
        return {
            "plan_name": self.plan_name,
            "plan_hash": self.plan_hash,
            "verdict": self.verdict,
            "truncated": self.truncated,
            "outcomes": self.outcomes,
            "report_hash": self.report_hash(),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "CampaignReport":
        with open(path) as fh:
            d = json.load(fh)
        report = cls(d["plan_name"], d["plan_hash"], d["outcomes"], d["truncated"])
        report.records()  # re-verify every record exactly
        if report.report_hash() != d["report_hash"]:
            raise CheckpointMismatch("report hash mismatch on load")
        return report


# ---------------------------------------------------------------------------
# Checkpointing.


def _read_checkpoint(path: str, plan_hash: str) -> dict[str, dict]:
    done: dict[str, dict] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb") as fh:
        data = fh.read()
    # Every record is written as one line ending in a newline, so bytes after
    # the last newline are a line cut off mid-write. Drop them, so that the
    # next record starts on a fresh line; that line's task runs again.
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        warnings.warn(
            f"checkpoint {path}: dropped a torn final line "
            f"({len(data) - complete} bytes); its task will run again",
            stacklevel=3,
        )
        with open(path, "r+b") as fh:
            fh.truncate(complete)
    try:
        lines = [ln for ln in data[:complete].decode().split("\n") if ln.strip()]
        records = [json.loads(ln) for ln in lines]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointMismatch(f"checkpoint {path} has a corrupt line: {exc}") from exc
    if not lines:
        return done
    head = records[0]
    if head.get("plan_hash") != plan_hash:
        raise CheckpointMismatch(
            f"checkpoint is for plan {head.get('plan_hash')!r}, not {plan_hash!r}"
        )
    body = []
    for ln, d in zip(lines[1:], records[1:]):
        if "integrity" in d:
            expect = _sha("\n".join([lines[0]] + body))
            if d["integrity"] != expect:
                raise CheckpointMismatch("checkpoint integrity hash mismatch")
            continue
        body.append(ln)
        done[d["task_id"]] = d["outcome"]
    return done


def _seal_checkpoint(path: str) -> None:
    """End the checkpoint with one integrity line over all lines above it.

    Trailers of earlier runs are dropped, so a resumed checkpoint still
    holds exactly one. The sealed file is written beside the old one and
    renamed over it, so a crash leaves either the old or the new file.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    body = [ln for ln in lines if "integrity" not in json.loads(ln)]
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(ln + "\n" for ln in body)
        fh.write(_canonical({"integrity": _sha("\n".join(body))}) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_campaign(
    plan: CampaignPlan,
    *,
    shards: int = 1,
    checkpoint_path: str | None = None,
) -> CampaignReport:
    """Execute a plan, optionally resuming from a checkpoint.

    Shard count affects scheduling only. Outcomes arrive in plan order (at
    shards > 1, from a process pool in chunks of _CHUNK tasks), and a single
    writer appends each to the checkpoint as it arrives. So the checkpoint
    and the report are byte-identical for any shard count, and a task that
    raises leaves recorded every task before its chunk.
    """
    phash = plan.plan_hash()
    done = _read_checkpoint(checkpoint_path, phash) if checkpoint_path else {}
    pending = [t for t in plan.tasks if t.task_id not in done]

    ckpt = None
    if checkpoint_path:
        ckpt = open(checkpoint_path, "a")
        if os.path.getsize(checkpoint_path) == 0:
            ckpt.write(_canonical({"plan_hash": phash}) + "\n")
            ckpt.flush()

    outcomes = dict(done)
    with ExitStack() as stack:
        if ckpt:
            stack.enter_context(ckpt)
        results = map(run_task, pending)
        if shards > 1 and len(pending) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=shards))
            results = pool.map(run_task, pending, chunksize=_CHUNK)
        for outcome in results:
            outcomes[outcome["task_id"]] = outcome
            if ckpt:
                ckpt.write(_canonical({"task_id": outcome["task_id"],
                                       "outcome": outcome}) + "\n")
                ckpt.flush()
    if checkpoint_path:
        _seal_checkpoint(checkpoint_path)

    ordered = [outcomes[t.task_id] for t in plan.tasks]
    return CampaignReport(
        plan_name=plan.name,
        plan_hash=phash,
        outcomes=ordered,
        truncated=bool(plan.meta.get("box_limit")),
    )


# ---------------------------------------------------------------------------
# Plan builders for the three published campaign shapes (general family).


def _choose_l(*exponents: int, given: int | None = None) -> int:
    if given is not None:
        if given not in _PLAN_L_CHOICES:
            raise ValueError(f"l must come from {_PLAN_L_CHOICES}")
        return given
    for l in _PLAN_L_CHOICES:
        if all(e % l for e in exponents):
            return l
    raise ValueError("no admissible auxiliary prime for these exponents")


def _smooth_values_under(cap: Fraction, coprime_to: tuple[int, ...],
                         limit: int | None) -> tuple[int, ...]:
    return values_coprime_to(LinLog.of(cap).floor_exp(at_most=limit), coprime_to)


def _pair_cap(prof: StructureProfile, name: str, box_limit: int | None) -> Fraction:
    """The profile's log cap `name` on a smooth part.

    A plan lists every smooth part up to e^cap, or up to box_limit, so a cap
    that would list more than _SMOOTH_PART_MAX values is refused here, before
    any list is built.
    """
    where = f"structure profile of {prof.exponents} at l={prof.aux_prime}"
    if name not in prof.pair_caps:
        raise ValueError(f"{where} grants no {name!r} cap")
    cap = prof.pair_caps[name]
    if (box_limit is None or box_limit > _SMOOTH_PART_MAX) and \
            LinLog.of(cap).floor_exp(at_most=_SMOOTH_PART_MAX + 1) > _SMOOTH_PART_MAX:
        raise ValueError(f"{where}: {name!r} cap {float(cap):.2f} admits smooth "
                         f"parts above {_SMOOTH_PART_MAX}; give a box_limit "
                         f"<= {_SMOOTH_PART_MAX}")
    return cap


def _spec_for(profile_var, smooth: int, l: int, box_limit: int | None) -> dict:
    cap = 6 if box_limit else None  # truncation keeps desk-scale boxes small
    return {
        "smooth": smooth,
        "l": l,
        "e2_cap": min(profile_var.cap_e2, cap) if cap else profile_var.cap_e2,
        "e3_cap": min(profile_var.cap_e3, cap) if cap else profile_var.cap_e3,
        "el_cap": min(profile_var.cap_el, cap) if cap else profile_var.cap_el,
        "lparts": list(profile_var.lpart_candidates or (1,)),
    }


def build_p1_plan(r: int, s: int, *, l: int | None = None,
                  box_limit: int | None = None) -> CampaignPlan:
    """Low exponents against a forced 2-power third coordinate (t >= 70)."""
    m_lo, m_hi = _P1_WINDOW
    if not 4 <= r <= s < m_lo:
        raise ValueError(f"plan needs 4 <= r <= s < {m_lo}")
    l = _choose_l(r, s, given=l)
    prof = structure_profile("general", (r, s, m_lo), l)
    cap = _pair_cap(prof, "min-single", box_limit)
    tasks = []
    for name, expo, other in (("x", r, s), ("y", s, r)):
        var = prof.variables[name]
        for smooth in _smooth_values_under(cap, var.smooth_coprime_to, box_limit):
            spec = _spec_for(var, smooth, l, box_limit)
            spec["e2_cap"] = 0  # this coordinate is odd: the 2-power is z
            tasks.append(Task(
                task_id=f"p1-{name}{smooth}",
                kind="tail",
                params={"spec": spec, "s": expo, "r_set": [other],
                        "m_lo": m_lo, "m_hi": m_hi},
            ))
    return CampaignPlan(
        name=f"P1({r},{s};l={l})", tasks=tasks,
        meta={"r": r, "s": s, "l": l, "box_limit": box_limit,
              "smooth_cap": str(cap)},
    )


def _pair_plan(kind: str, r: int, s: int, t: int, l: int | None,
               box_limit: int | None) -> CampaignPlan:
    if kind == "P2" and not t >= r + s - 3:
        raise ValueError("P2 needs t >= r + s - 3")
    if kind == "P3" and not t <= r + s - 4:
        raise ValueError("P3 needs t <= r + s - 4")
    l = _choose_l(r, s, t, given=l)
    prof = structure_profile("general", (r, s, t), l)
    # Each group (a, b, third) admits log(sa)/A + log(sb)/B <= 1.
    if kind == "P2":
        cap_a = _pair_cap(prof, "min-single", box_limit)
        cap_b = _pair_cap(prof, "largest-single", box_limit)
        groups = [("x", "z", "y"), ("y", "z", "x")]
    else:
        cap_a = cap_b = _pair_cap(prof, "min-pair-product", box_limit)
        groups = [("x", "y", "z"), ("x", "z", "y"), ("y", "z", "x")]
    tasks = []
    for na, nb, nc in groups:
        va, vb = prof.variables[na], prof.variables[nb]
        for sa in _smooth_values_under(cap_a, va.smooth_coprime_to, box_limit):
            # A lower bound on log sa can only widen the sb range: no pair is lost.
            rem = cap_b * (1 - log_bounds(sa)[0] / cap_a)
            for sb in _smooth_values_under(rem, vb.smooth_coprime_to, box_limit):
                tasks.append(Task(
                    task_id=f"pair-{na}{sa}-{nb}{sb}-e{va.exponent}x{vb.exponent}",
                    kind="pair",
                    params={"a": _spec_for(va, sa, l, box_limit), "r": va.exponent,
                            "b": _spec_for(vb, sb, l, box_limit), "s": vb.exponent,
                            "t_set": [prof.variables[nc].exponent]},
                ))
    return CampaignPlan(
        name=f"{kind}({r},{s},{t};l={l})", tasks=tasks,
        meta={"r": r, "s": s, "t": t, "l": l, "box_limit": box_limit},
    )


def build_p2_plan(r: int, s: int, t: int, *, l: int | None = None,
                  box_limit: int | None = None) -> CampaignPlan:
    """Balanced exponents, third coordinate dominant (t >= r + s - 3)."""
    return _pair_plan("P2", r, s, t, l, box_limit)


def build_p3_plan(r: int, s: int, t: int, *, l: int | None = None,
                  box_limit: int | None = None) -> CampaignPlan:
    """Balanced exponents, joint pair bound (t <= r + s - 4)."""
    return _pair_plan("P3", r, s, t, l, box_limit)


def explicit_box_task(task_id: str, xs, r: int, ys, s: int, t_set) -> Task:
    """A direct finite box over explicit candidate lists."""
    return Task(
        task_id=task_id,
        kind="pair",
        params={"a": {"values": sorted(xs)}, "r": r,
                "b": {"values": sorted(ys)}, "s": s, "t_set": sorted(set(t_set))},
    )
