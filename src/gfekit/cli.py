"""Batch front-end: configuration ingestion, command dispatch, report emission.

Exit codes: 0 success, 1 domain error (bad mathematical input, budget
exceeded), 2 usage or configuration error. With --json every output line is
a JSON object and identical invocations produce byte-identical output.

Each handler imports the layers it runs, so a command loads only those (`count`
never loads mpmath); the typed errors come from the import-free `errors`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, errors

CONFIG_ENV = "GFE_CONFIG"

# Command-line family name -> freycurves.FreyFamily member name.
_FAMILY_ALIASES = {
    "general": "GENERAL_ABC",
    "general-abc": "GENERAL_ABC",
    "two-three": "TWO_THREE",
    "twothree": "TWO_THREE",
    "three-rs": "THREE_RS",
    "threers": "THREE_RS",
    "two-rs": "TWO_RS",
    "twors": "TWO_RS",
}


class ConfigFileError(Exception):
    """The tool configuration is malformed: unreadable JSON, a top level that
    is not an object, an unsupported schema_version, an unknown key, a wrongly
    typed value, or a vol_tables entry without a required key. Exits 2."""


class _AtMostThree(argparse.Action):
    """A nargs="+" list of at most three values; more is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) > 3:
            parser.error(f"at most 3 {self.dest}, got {len(values)}")
        setattr(namespace, self.dest, values)


class _UsageError(Exception):
    """Arguments that parse but do not fit together. Exits 2."""


# Exponents each family takes, keyed by the `profile --family` names, which
# also begin the `bounds` scenario names.
_EXPONENT_COUNT = {"general": 3, "threers": 2, "twothree": 1}


def _check_exponent_count(family: str, exps: tuple[int, ...]) -> None:
    want = _EXPONENT_COUNT[family]
    if len(exps) != want:
        raise _UsageError(f"the {family} family takes {want} "
                          f"exponent{'s' if want > 1 else ''}, got {len(exps)}")


# Optional top-level config keys and their JSON types; null means absent.
_CONFIG_TYPES = {"vol_tables": (list, "an array"), "search_budget": (dict, "an object"),
                 "registry_path": (str, "a string"), "output_path": (str, "a string")}


def load_config(path: str | None) -> dict:
    """Tool configuration: vol tables, budgets, paths."""
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {"schema_version": 1}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigFileError(f"{path}: the top level must be a JSON object")
    if cfg.get("schema_version") != 1:
        raise ConfigFileError(f"unsupported config schema {cfg.get('schema_version')!r}")
    for key, value in cfg.items():
        if value is not None and key != "schema_version" and key not in _CONFIG_TYPES:
            raise ConfigFileError(f"unknown config key {key!r}")
    for key, (kind, name) in _CONFIG_TYPES.items():
        if cfg.get(key) is not None and not isinstance(cfg[key], kind):
            raise ConfigFileError(f"{key} must be {name}, got {cfg[key]!r}")
    max_tasks = (cfg.get("search_budget") or {}).get("max_tasks", 0)
    if type(max_tasks) is not int:
        raise ConfigFileError(
            f"search_budget.max_tasks must be an integer, got {max_tasks!r}")
    return cfg


def vol_table_from_config(cfg: dict):
    """The ramification.VolTable of the config's vol_tables entries."""
    from fractions import Fraction

    from .ramification import VolTable

    table = VolTable()
    for i, entry in enumerate(cfg.get("vol_tables") or []):
        try:
            key = (entry["family"], entry["kind"], entry["l"], entry.get("q"))
            value = Fraction(entry["value"])
        except KeyError as exc:
            raise ConfigFileError(f"vol_tables entry {i} has no key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigFileError(f"vol_tables entry {i} is malformed: {exc}") from exc
        table.set_raw(key, value, entry.get("provenance", "user-supplied"))
    return table


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text)


def _family(alias: str):
    from .freycurves import FreyFamily

    return FreyFamily[_FAMILY_ALIASES[alias.lower()]]


def _cmd_classify(args, cfg: dict) -> int:
    from .catalog import Signature, classify_chi, status

    sig = Signature(args.r, args.s, args.t)
    cls = classify_chi(sig)
    st = status(sig, cfg.get("registry_path") or None)
    _emit(args, {"signature": list(sig.canonical), "chi_class": cls.value,
                 "state": st.state.value, "provenance": st.provenance},
          f"{sig}: {cls.value.capitalize()} ({st.state.value}: {st.provenance})")
    return 0


def _cmd_curve(args, cfg: dict) -> int:
    from .freycurves import invariants

    family = _family(args.family)
    inv = invariants(family, args.a, args.b, args.c)
    payload = {
        "family": family.name, "triple": [args.a, args.b, args.c],
        "c4": inv.c4, "delta": str(inv.delta), "j": str(inv.j),
        "denominator": inv.denom_value(),
        "denominator_factors": dict(inv.denom_n.items()),
        "bad_primes": sorted(inv.bad_primes),
    }
    _emit(args, payload,
          f"{family.name} {args.a, args.b, args.c}: c4={inv.c4} delta={inv.delta} "
          f"j={inv.j} N={inv.denom_value()} bad primes={sorted(inv.bad_primes)}")
    return 0


def _cmd_dataset(args, cfg: dict) -> int:
    from .ramification import dataset

    family = _family(args.family)
    ds = dataset(family, args.kind, args.l, args.q)
    payload = {
        "family": family.name, "kind": ds.kind, "l0": ds.l0, "e0": ds.e0,
        "S0": sorted(ds.s0), "gen_mult": sorted(ds.gen_mult),
        "per_prime": {str(p): {"good": sorted(g), "mult": sorted(m)}
                      for p, (g, m) in sorted(ds.per_prime.items())},
    }
    lines = [f"dataset {family.name}/{ds.kind} at l={ds.l0}"
             + (f", q={ds.q}" if ds.q else "")
             + f": e0={ds.e0} S0={sorted(ds.s0)} gen_mult={sorted(ds.gen_mult)}"]
    for p, (g, m) in sorted(ds.per_prime.items()):
        lines.append(f"  p={p}: good={sorted(g)} mult={sorted(m)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_bounds(args, cfg: dict) -> int:
    from .bounds import certificate, derived_constants, forbidden_interval, scenario

    tables = vol_table_from_config(cfg)
    exps = tuple(args.exponents)
    _check_exponent_count(args.scenario.split("-")[0], exps)
    built = scenario(
        args.scenario, exps, args.situation,
        s_primes=args.set, k=args.k, tables=tables,
        u0=args.u0, q=args.q, variant=args.variant,
    )
    dc = derived_constants(built)
    result = forbidden_interval(built, mode=args.mode)
    cert = certificate(built, result)
    cert["constants"] = dc.as_floats()
    text = (f"{built.provenance}\n  constants: " +
            " ".join(f"{k}={v:.6g}" for k, v in dc.as_floats().items()) +
            f"\n  verdict: {cert['verdict']}" +
            (f" interval=({cert['interval'][0]:.4f}, {cert['interval'][1]:.4f})"
             if result.applicable else ""))
    _emit(args, cert, text)
    return 0


def _cmd_profile(args, cfg: dict) -> int:
    from .structure import structure_profile

    exps = tuple(args.exponents)
    case = args.family or {n: f for f, n in _EXPONENT_COUNT.items()}[len(exps)]
    _check_exponent_count(case, exps)
    prof = structure_profile(case, exps, args.l)
    payload = {
        "family": prof.family, "exponents": list(prof.exponents),
        "l": prof.aux_prime, "exponent_range": list(prof.exponent_range or ()),
        "variables": {
            name: {
                "exponent": v.exponent,
                "smooth_log_cap": None if v.smooth_log_cap is None
                else float(v.smooth_log_cap),
                "lpart_candidates": list(v.lpart_candidates),
                "cap_e2": v.cap_e2, "cap_e3": v.cap_e3, "cap_el": v.cap_el,
                "forced_power_of_two": v.forced_power_of_two,
                "notes": list(v.notes),
            } for name, v in prof.variables.items()
        },
        "pair_caps": {k: float(v) for k, v in prof.pair_caps.items()},
        "notes": list(prof.notes),
    }
    lines = [f"profile {prof.family} {prof.exponents} l={prof.aux_prime} "
             f"exponent range {prof.exponent_range}"]
    for name, v in prof.variables.items():
        cap = "none" if v.smooth_log_cap is None else f"{float(v.smooth_log_cap):.4f}"
        lines.append(
            f"  {name}: exp={v.exponent} log-smooth<={cap} "
            f"l-part in {list(v.lpart_candidates)} e2<={v.cap_e2} "
            f"e3<={v.cap_e3} el<={v.cap_el}"
            + (" [power of 2]" if v.forced_power_of_two else "")
        )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_search(args, cfg: dict) -> int:
    from .campaign import CampaignPlan, run_campaign

    plan = CampaignPlan.load(args.planfile)
    max_tasks = (cfg.get("search_budget") or {}).get("max_tasks")
    if max_tasks is not None and len(plan.tasks) > max_tasks:
        raise ValueError(
            f"plan has {len(plan.tasks)} tasks, over the configured budget "
            f"of {max_tasks}")
    report = run_campaign(plan, shards=args.shards, checkpoint_path=args.resume)
    out = args.out or cfg.get("output_path")
    if out:
        report.save(out)
    payload = report.as_dict()
    lines = [f"campaign {report.plan_name}: {report.verdict} "
             f"(hash {report.report_hash()[:16]})"]
    for rec in report.records():
        lines.append(f"  found: {rec.identity()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_scan(args, cfg: dict) -> int:
    from .search import small_z1_scan

    records = small_z1_scan(args.z1_bound, args.t_max, args.height)
    payload = {"records": [r.as_dict() for r in records],
               "identities": [r.identity() for r in records]}
    text = "\n".join(r.identity() for r in records) or "(no records)"
    _emit(args, payload, text)
    return 0


def _cmd_verify_known(args, cfg: dict) -> int:
    from .catalog import CatalanFamily, known_solutions

    lines, items = [], []
    for entry in known_solutions():
        if isinstance(entry, CatalanFamily):
            samples = all(entry.member(n).verify() for n in (2, 3, 5, 10, 97))
            lines.append(f"{entry.identity()}  [family, verified at sample n] "
                         f"{'ok' if samples else 'FAIL'}")
            items.append({"identity": entry.identity(), "family": True,
                          "verified": samples})
            ok = samples
        else:
            ok = entry.verify()
            lines.append(f"{entry.identity()}  {'ok' if ok else 'FAIL'}")
            items.append({"identity": entry.identity(), "family": False,
                          "verified": ok})
        if not ok:
            _emit(args, {"verified": False, "items": items}, "\n".join(lines))
            return 1
    _emit(args, {"verified": True, "items": items}, "\n".join(lines))
    return 0


def _indent1_json(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=1, sort_keys=True) for str-keyed dicts, built
    from C-encoded pieces: any indent sends json to its pure-Python encoder,
    which is about twice as slow on the count ledger."""
    inner = pad + " "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj:
        body = sep.join([json.encoder.encode_basestring_ascii(k) + ": "
                         + _indent1_json(obj[k], inner) for k in sorted(obj)])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if all(type(v) is int for v in obj):
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_indent1_json(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj)


def _cmd_count(args, cfg: dict) -> int:
    from .catalog import count_remaining

    result = count_remaining(args.mode, closure=args.closure,
                             registry_path=cfg.get("registry_path") or None)
    if args.ledger:
        with open(args.ledger, "w") as fh:
            fh.write(_indent1_json(result.as_dict()))
    payload = {
        "mode": result.mode, "count": result.count, "expected": result.expected,
        "matches_expected": result.matches_expected,
        "ledger_hash": result.ledger_hash, "closure": result.closure,
    }
    if not result.matches_expected:
        payload["discrepancy"] = result.discrepancy_report()
    text = f"{result.count}"
    if not result.matches_expected:
        d = result.discrepancy_report()
        text += (f"  [differs from published {result.expected}; "
                 f"published-rules closure gives {d['published_rules_count']}; "
                 f"{len(d['delta_signatures'])} delta signatures "
                 f"{'written to ledger' if args.ledger else 'in --ledger output'}]")
    _emit(args, payload, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gfekit",
        description="Toolkit for the generalized Fermat equation x^r + y^s = z^t.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    p.add_argument("--config", help=f"config file (or ${CONFIG_ENV})")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized internals (factor splitting)")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="chi classification and status of a signature")
    c.add_argument("r", type=int)
    c.add_argument("s", type=int)
    c.add_argument("t", type=int)
    c.set_defaults(fn=_cmd_classify)

    c = sub.add_parser("curve", help="Frey-curve invariants of a triple")
    c.add_argument("family", choices=sorted(_FAMILY_ALIASES))
    c.add_argument("a", type=int)
    c.add_argument("b", type=int)
    c.add_argument("c", type=int)
    c.set_defaults(fn=_cmd_curve)

    c = sub.add_parser("dataset", help="ramification dataset from the catalog")
    c.add_argument("family", choices=sorted(_FAMILY_ALIASES))
    c.add_argument("kind", type=int)
    c.add_argument("l", type=int)
    c.add_argument("q", type=int, nargs="?")
    c.set_defaults(fn=_cmd_dataset)

    c = sub.add_parser("bounds", help="derived constants and forbidden interval")
    c.add_argument("scenario", choices=["general", "general-2tor", "twothree-u0",
                                        "twothree-t", "twothree-q", "threers",
                                        "threers-2tor"])
    c.add_argument("exponents", type=int, nargs="+")
    c.add_argument("--set", type=int, nargs="+", required=True,
                   help="auxiliary prime set S")
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--situation", default="a", choices=["a", "b", "c"])
    c.add_argument("--u0", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--variant")
    c.add_argument("--mode", default="unprimed", choices=["unprimed", "primed"])
    c.set_defaults(fn=_cmd_bounds)

    c = sub.add_parser("profile", help="structure profile of a signature family")
    c.add_argument("exponents", type=int, nargs="+", action=_AtMostThree,
                   help="r s t (general), r s (cube family) or t")
    c.add_argument("l", type=int)
    c.add_argument("--family", choices=["general", "threers", "twothree"])
    c.set_defaults(fn=_cmd_profile)

    c = sub.add_parser("search", help="run a campaign plan")
    c.add_argument("planfile")
    c.add_argument("--resume", help="checkpoint file (created if absent)")
    c.add_argument("--shards", type=int, default=1)
    c.add_argument("--out", help="write the report JSON here")
    c.set_defaults(fn=_cmd_search)

    c = sub.add_parser("scan-small-z1", help="small-z brute force for x^2 +- y^3 = z^t")
    c.add_argument("--z1-bound", type=int, default=19)
    c.add_argument("--t-max", type=int, default=9)
    c.add_argument("--height", type=int, default=2 * 10**12)
    c.set_defaults(fn=_cmd_scan)

    c = sub.add_parser("verify-known", help="re-verify the known solutions")
    c.set_defaults(fn=_cmd_verify_known)

    c = sub.add_parser("count", help="count remaining signatures")
    c.add_argument("mode", choices=["ge4", "beal"])
    c.add_argument("--ledger", help="write the full ledger JSON here")
    c.add_argument("--closure", default="full", choices=["full", "published"])
    c.set_defaults(fn=_cmd_count)
    return p


def command_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        from .arith import set_default_seed

        set_default_seed(args.seed)
        cfg = load_config(args.config)
        if cfg.get("registry_path"):
            from .catalog import load_registry

            try:
                load_registry(cfg["registry_path"])
            except json.JSONDecodeError as exc:
                raise ConfigFileError(
                    f"registry {cfg['registry_path']} is not valid JSON: {exc}") from exc
        return args.fn(args, cfg)
    except (ValueError, errors.InvalidTriple, errors.VolNotConfigured,
            errors.ConfigError, errors.FactorizationBudgetExceeded,
            errors.PrecisionExhausted, errors.CheckpointMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ConfigFileError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"gfekit {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(command_dispatch())


if __name__ == "__main__":
    main()
