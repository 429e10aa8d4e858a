"""Command-line front end.

Every command reads a presentation (inline via -p or from a file), runs one
pipeline, prints a human summary to stdout, and can write a versioned JSON
report.  Exit codes: 0 all asserted checks pass; 1 a mathematical assertion
failed (witness in the report); 2 budget or guard exhausted; 3 usage error,
including a file that cannot be read, decoded or written, malformed JSON in
``--config`` or a ``--check`` certificate, and a config value of the wrong
type.
Reports embed the configuration and are byte-identical for identical runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields

from . import sidki, zqmodules
from .decision import (WPSetup, ball_sizes, growth_classifier,
                       oracle_for_presentation, xg_word_problem)
from .enumerator import enumerate_cosets
from .errors import (ArgumentError, CheckFailure, EnumerationOverflow,
                     ParseError, SizeGuardError, WeakcommError)
from .intlinalg import FinAbGroup
from .isoperimetry import (AreaCertificate, GRID_PRESENTATION,
                           check_certificate, grid_certificate,
                           minimal_area_search)
from .presentations import (AllElements, LengthBound, Presentation,
                            abelianization, format_presentation,
                            parse_presentation, sidki_double)
from .words import parse_word

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    max_cosets: int = 1_000_000
    guard: int = 100_000
    budget: int = 200_000
    radius: int = 6
    witness: str | None = None
    json_path: str | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is None:
                ok = value is None or isinstance(value, str)
            else:
                ok = isinstance(value, int) and not isinstance(value, bool)
            if not ok:
                raise ArgumentError(f"{f.name} has the wrong type: {value!r}")
        for name in ("max_cosets", "guard", "budget"):
            if getattr(self, name) <= 0:
                raise ArgumentError(f"--{name.replace('_', '-')} must be positive")
        if self.radius < 0:
            raise ArgumentError("--radius must be >= 0")


def _fin_ab(g: FinAbGroup) -> dict:
    return {"invariant_factors": list(g.invariant_factors),
            "free_rank": g.free_rank, "display": str(g)}


def _load_presentation(args) -> Presentation:
    if args.presentation and args.file:
        raise ArgumentError("give either -p or --file, not both")
    if args.presentation:
        return parse_presentation(args.presentation)
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    raise ArgumentError("a presentation is required (-p or --file)")


def _parse_witness(text: str | None):
    if text is None or text == "all":
        return AllElements()
    if text.startswith("len:"):
        try:
            return LengthBound(int(text[4:]))
        except ValueError:
            raise ArgumentError(f"bad witness policy {text!r}") from None
    raise ArgumentError(f"bad witness policy {text!r} (use 'all' or 'len:k')")


def _resolve_double(pres: Presentation, config: RunConfig) -> tuple[Presentation, dict]:
    """Double the presentation under the configured witness policy.

    Default policy: one witness per element when the base enumerates within
    budget; otherwise fall back to words of length <= 2, flagging that the
    result may present a proper pre-image of the double.
    """
    meta: dict = {}
    if config.witness is None:
        try:
            doubled = sidki_double(pres, AllElements(), max_cosets=config.max_cosets)
            meta["witness_policy"] = "all"
            meta["may_be_preimage"] = False
        except EnumerationOverflow:
            doubled = sidki_double(pres, LengthBound(2), max_cosets=config.max_cosets)
            meta["witness_policy"] = "len:2"
            meta["may_be_preimage"] = True
    else:
        policy = _parse_witness(config.witness)
        doubled = sidki_double(pres, policy, max_cosets=config.max_cosets)
        meta["witness_policy"] = policy.label()
        meta["may_be_preimage"] = isinstance(policy, LengthBound)
    return doubled, meta


def _emit(report: dict, config: RunConfig) -> None:
    doc = dict(report)
    doc["schema_version"] = SCHEMA_VERSION
    doc["config"] = {k: v for k, v in asdict(config).items() if k != "json_path"}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if config.json_path == "-":
        sys.stdout.write(text)
    elif config.json_path:
        with open(config.json_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- commands -------------------------------------------------------------------

def _cmd_parse(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    ab = abelianization(pres)
    print(f"presentation: {format_presentation(pres)}")
    print(f"abelianization: {ab}")
    _emit({"command": "parse", "presentation": format_presentation(pres),
           "abelianization": _fin_ab(ab)}, config)
    return 0


def _cmd_double(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    doubled, meta = _resolve_double(pres, config)
    print(f"double: {format_presentation(doubled)}")
    if meta["may_be_preimage"]:
        print("NOTE: bounded witness set; this may present a proper pre-image "
              "of the weak-commutativity double")
    from .presentations import presentation_to_json
    _emit({"command": "double", "base": format_presentation(pres),
           "double": format_presentation(doubled), "meta": meta,
           "document": json.loads(presentation_to_json(doubled, meta))}, config)
    return 0


def _cmd_realize(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    meta: dict = {}
    if args.double:
        pres, meta = _resolve_double(pres, config)
    table = enumerate_cosets(pres, [], max_cosets=config.max_cosets,
                             strategy=args.strategy)
    print(f"cosets: {table.n_cosets} (strategy {args.strategy})")
    _emit({"command": "realize", "presentation": format_presentation(pres),
           "n_cosets": table.n_cosets, "meta": meta,
           "table": json.loads(table.to_json())}, config)
    return 0


def _cmd_verify(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    x = sidki.build(pres, max_cosets=config.max_cosets, guard=config.guard,
                    raise_on_failure=False)
    report = sidki.verification_report(x)
    report["command"] = "verify"
    failed = x.failed_checks()
    for c in x.checks:
        print(f"  {'pass' if c['pass'] else 'FAIL'}  {c['name']}")
    print(f"orders: {x.orders()}")
    _emit(report, config)
    return 1 if failed else 0


def _cmd_engel(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    x = sidki.build(pres, max_cosets=config.max_cosets, guard=config.guard)
    cert = sidki.engel_certificate(x, guard=config.guard, raise_on_failure=False)
    print(f"n={cert['n']} d={cert['d']} s={cert['s']} m={cert['m']} "
          f"verdict={cert['verdict']}")
    _emit({"command": "engel", "presentation": format_presentation(pres),
           "engel": cert}, config)
    return 0 if cert["verdict"] else 1


def _cmd_modules(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    x = sidki.build(pres, max_cosets=config.max_cosets, guard=config.guard)
    consistency = zqmodules.ell_module_consistency(x, guard=config.guard)
    v = zqmodules.aug_mod_I2(x.G, guard=config.guard)
    nil = zqmodules.nil_equation_checks(v)
    wreport = zqmodules.w_structure_checks(x, guard=config.guard)
    ok = consistency["matched_generator_agreement"] and \
        consistency["aug_model_invariants"] == consistency["realization_invariants"] and \
        nil["two_v_aug2_zero"] and nil["v_aug_k3_zero"] and \
        wreport["N_order_divides_M_order"] and \
        wreport["N_exponent_divides_M_exponent"]
    print(f"L/L' invariants: {consistency['aug_model_invariants']} "
          f"(agreement: {consistency['matched_generator_agreement']})")
    print(f"nil equations: {nil}")
    print(f"W structure: s={wreport['s']} |N|={wreport['N_order']} "
          f"|M|={wreport['M_order']} ok={ok}")
    _emit({"command": "modules", "presentation": format_presentation(pres),
           "consistency": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in consistency.items()},
           "nil_equations": nil,
           "aug_action_matrices": [m.data for m in v.action_matrices],
           "w_structure": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in wreport.items()}}, config)
    return 0 if ok else 1


def _cmd_wp(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    doubled, meta = _resolve_double(pres, config)
    oracle, kind = oracle_for_presentation(pres, max_cosets=config.max_cosets)
    setup = WPSetup(pres, oracle, doubled)
    results = []
    had_unknown = False
    for text in args.word:
        w = parse_word(text, doubled.generators)
        verdict = xg_word_problem(setup, w, budget=config.budget)
        had_unknown = had_unknown or verdict.value == "unknown"
        print(f"{text}: {verdict.value} ({verdict.reason})")
        results.append({"word": text, "verdict": verdict.value,
                        "reason": verdict.reason,
                        "witness": str(verdict.witness) if verdict.witness else None})
    _emit({"command": "wp", "presentation": format_presentation(pres),
           "oracle": kind, "meta": meta, "results": results}, config)
    return 2 if had_unknown else 0


def _cmd_growth(args, config: RunConfig) -> int:
    pres = _load_presentation(args)
    meta: dict = {}
    if args.double:
        pres, meta = _resolve_double(pres, config)
    oracle, kind = oracle_for_presentation(pres, max_cosets=config.max_cosets)
    gens = [parse_word(g.name + ("~" if g.bar else ""), pres.generators)
            for g in pres.generators]
    sizes = ball_sizes(gens, oracle, config.radius)
    cls = growth_classifier(sizes)
    print(f"sizes: {sizes}")
    print(f"classification: {cls.label()} (finite-data heuristic)")
    _emit({"command": "growth", "presentation": format_presentation(pres),
           "oracle": kind, "meta": meta,
           "generators": [str(g) for g in gens],
           "radii": list(range(config.radius + 1)), "sizes": sizes,
           "classification": cls.label(), "heuristic_flag": True}, config)
    return 0


def _cmd_area(args, config: RunConfig) -> int:
    if args.grid is not None:
        cert = grid_certificate(args.grid)
        print(f"grid {args.grid}: area={cert.area} radius={cert.radius}")
        _emit({"command": "area", "mode": "grid", "n": args.grid,
               "certificate": json.loads(cert.to_json())}, config)
        return 0
    if args.check:
        pres = _load_presentation(args)
        with open(args.check, "r", encoding="utf-8") as fh:
            cert = AreaCertificate.from_json(fh.read(), pres)
        ok = check_certificate(pres, cert)
        print(f"certificate: {'valid' if ok else 'INVALID'} "
              f"(area={cert.area}, radius={cert.radius})")
        _emit({"command": "area", "mode": "check", "valid": ok,
               "area": cert.area, "radius": cert.radius}, config)
        return 0 if ok else 1
    if args.min_search:
        pres = _load_presentation(args) if (args.presentation or args.file) \
            else GRID_PRESENTATION
        w = parse_word(args.min_search, pres.generators)
        area = minimal_area_search(pres, w, args.max_area, args.max_radius)
        print(f"minimal area: {area if area is not None else 'unknown within bounds'}")
        _emit({"command": "area", "mode": "min-search", "word": args.min_search,
               "max_area": args.max_area, "max_radius": args.max_radius,
               "minimal_area": area}, config)
        return 0
    raise ArgumentError("area needs one of --grid N, --check FILE, --min-search WORD")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakcomm",
        description="weak-commutativity doubles: construction, realization, "
                    "verification, modules, word problem, growth, area")
    parser.add_argument("--config", help="flat JSON config file (keys = flag names)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, presentation=True):
        if presentation:
            p.add_argument("-p", "--presentation", help="inline presentation text")
            p.add_argument("--file", help="file containing a presentation")
        p.add_argument("--witness", help="witness policy: all | len:k")
        p.add_argument("--max-cosets", type=int, dest="max_cosets")
        p.add_argument("--guard", type=int)
        p.add_argument("--budget", type=int)
        p.add_argument("--radius", type=int)
        p.add_argument("--json", dest="json_path",
                       help="write the JSON report here ('-' for stdout)")

    common(sub.add_parser("parse", help="parse and canonicalize a presentation"))
    common(sub.add_parser("double", help="construct the doubled presentation"))
    p = sub.add_parser("realize", help="coset enumeration")
    common(p)
    p.add_argument("--double", action="store_true", help="realize the double")
    p.add_argument("--strategy", choices=["hlt", "felsch"], default="hlt")
    common(sub.add_parser("verify", help="build the double and run all checks"))
    common(sub.add_parser("engel", help="Engel data and the verified bound"))
    common(sub.add_parser("modules", help="module-theoretic reports"))
    p = sub.add_parser("wp", help="decide words in the double")
    common(p)
    p.add_argument("--word", action="append", required=True,
                   help="word over the doubled alphabet (repeatable)")
    p = sub.add_parser("growth", help="ball sizes and growth classification")
    common(p)
    p.add_argument("--double", action="store_true", help="measure the double")
    p = sub.add_parser("area", help="area certificates")
    common(p)
    p.add_argument("--grid", type=int, help="emit the n^2 grid certificate")
    p.add_argument("--check", help="check a certificate JSON file")
    p.add_argument("--min-search", help="exhaustive minimal-area search for a word")
    p.add_argument("--max-area", type=int, default=4)
    p.add_argument("--max-radius", type=int, default=4)
    return parser


_COMMANDS = {
    "parse": _cmd_parse, "double": _cmd_double, "realize": _cmd_realize,
    "verify": _cmd_verify, "engel": _cmd_engel, "modules": _cmd_modules,
    "wp": _cmd_wp, "growth": _cmd_growth, "area": _cmd_area,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = RunConfig()
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"--config is not valid JSON: {exc.msg}",
                                     exc.pos) from exc
                if not isinstance(doc, dict):
                    raise ArgumentError("--config must hold a JSON object")
                for key, value in doc.items():
                    attr = key.replace("-", "_")
                    if not hasattr(config, attr):
                        raise ArgumentError(f"unknown config key {key!r}")
                    setattr(config, attr, value)
        for attr in ("max_cosets", "guard", "budget", "radius", "witness",
                     "json_path"):
            value = getattr(args, attr, None)
            if value is not None:
                setattr(config, attr, value)
        config.validate()
        return _COMMANDS[args.command](args, config)
    except (ParseError, ArgumentError, OSError, UnicodeDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (EnumerationOverflow, SizeGuardError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
