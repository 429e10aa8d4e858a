"""The four benchmark workloads: their jobs, their set-up and their checks.

A job is the library work of one CLI command, called through the public
functions that command calls (never through argparse), with the CLI's
default limits.  Every job returns a small digest of its output, and its
check compares the digest with ``reference.json`` (taken at the seed commit)
and with closed forms where they exist.  A check returns None when the output
is correct and a short reason otherwise.

Jobs call the library through module attributes (``sidki.build``, not a
name bound at import), so the tracer can wrap those functions after the
jobs are built.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from weakcomm import (cli, decision, enumerator, isoperimetry, presentations,
                      sidki, words, zqmodules)

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"
CONFIG = cli.RunConfig()          # the limits every CLI command runs with

GROUPS = {
    "C2": "< a | a^2 >",
    "C3": "< a | a^3 >",
    "C2xC2": "< a, b | a^2, b^2, [a, b] >",
    "C4": "< a | a^4 >",
    "S3": "< a, b | a^2, b^2, (a*b)^3 >",
    "D4": "< r, s | r^4, s^2, (r*s)^2 >",
    "Q8": "< a, b | a^4, b^2*a^-2, b^-1*a*b*a >",
    "D5": "< r, s | r^5, s^2, (r*s)^2 >",
    "C2xC4": "< a, b | a^2, b^4, [a, b] >",
    "A4": "< a, b | a^2, b^3, (a*b)^3 >",
    "D8": "< r, s | r^8, s^2, (r*s)^2 >",
    "SL(2,3)": "< a, b | a^3*b^-3, a^3*(a*b)^-2 >",
    "A5": "< a, b | a^2, b^3, (a*b)^5 >",
    "Z": "< a | >",
    "F2": "< a, b | >",
}
SUITE = ["C2", "C3", "C2xC2", "C4", "S3", "D4", "Q8"]

# |X(G)| = |W| |G|^3 / |G_ab|; n^2 for cyclic G
X_ORDERS = {"C2": 4, "C3": 9, "C2xC2": 32, "C4": 16, "S3": 108, "D4": 256,
            "Q8": 128, "D5": 500, "C2xC4": 128, "A4": 1152, "D8": 2048,
            "SL(2,3)": 4608}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    jobs: Callable[[random.Random, dict], list[Job]]
    warmup: tuple[str, ...]        # cheap jobs run once in set-up, untimed
    min_passes: int                # fewest passes over the jobs in one run


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def normalized(digest):
    """The digest as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(digest, sort_keys=True))


def _check_against(expected, closed_form: Callable[[dict], str | None] | None,
                   digest) -> str | None:
    got = normalized(digest)
    if expected is None:
        return "no reference"
    if got != expected:
        return f"output differs from reference: {json.dumps(got)[:200]}"
    return closed_form(got) if closed_form else None


def _job(reference: dict, name: str, run: Callable[[], object],
         closed_form: Callable[[dict], str | None] | None = None) -> Job:
    return Job(name, run, partial(_check_against, reference.get(name), closed_form))


def _parse(group: str):
    return presentations.parse_presentation(GROUPS[group])


# -- structure: verify, engel, modules --------------------------------------------

def _verify(group: str, rng_seed: int) -> dict:
    x = sidki.build(_parse(group), max_cosets=CONFIG.max_cosets,
                    guard=CONFIG.guard, rng_seed=rng_seed, raise_on_failure=False)
    report = sidki.verification_report(x)
    return {"orders": report["orders"], "classes": report["classes"],
            "checks": [[c["name"], c["pass"]] for c in report["checks"]]}


def _verify_closed_form(group: str, d: dict) -> str | None:
    if not all(passed for _, passed in d["checks"]):
        return "a structural check failed"
    if d["orders"]["X"] != X_ORDERS[group]:
        return f"|X({group})| = {d['orders']['X']}, expected {X_ORDERS[group]}"
    return None


def _engel(group: str, rng_seed: int) -> dict:
    x = sidki.build(_parse(group), max_cosets=CONFIG.max_cosets,
                    guard=CONFIG.guard, rng_seed=rng_seed)
    cert = sidki.engel_certificate(x, guard=CONFIG.guard, raise_on_failure=False)
    return {k: cert[k] for k in ("n", "d", "s", "m", "verdict")}


def _engel_closed_form(d: dict) -> str | None:
    if not d["verdict"]:
        return "Engel bound not verified"
    if d["m"] != d["n"] + d["d"] + d["s"] + 3:
        return "m != n + d + s + 3"
    return None


def _modules(group: str, rng_seed: int) -> dict:
    x = sidki.build(_parse(group), max_cosets=CONFIG.max_cosets,
                    guard=CONFIG.guard, rng_seed=rng_seed)
    consistency = zqmodules.ell_module_consistency(x, guard=CONFIG.guard)
    v = zqmodules.aug_mod_I2(x.G, guard=CONFIG.guard)
    nil = zqmodules.nil_equation_checks(v)
    wreport = zqmodules.w_structure_checks(x, guard=CONFIG.guard)
    ok = (consistency["matched_generator_agreement"]
          and consistency["aug_model_invariants"] == consistency["realization_invariants"]
          and nil["two_v_aug2_zero"] and nil["v_aug_k3_zero"]
          and wreport["N_order_divides_M_order"]
          and wreport["N_exponent_divides_M_exponent"])
    return {"consistency": consistency, "nil_equations": nil,
            "aug_action_matrices": [m.data for m in v.action_matrices],
            "w_structure": wreport, "ok": ok}


def _modules_closed_form(d: dict) -> str | None:
    return None if d["ok"] else "module checks failed"


def structure_jobs(rng: random.Random, reference: dict) -> list[Job]:
    rng_seed = rng.randrange(1 << 30)      # build's own sampling seed
    jobs = []
    for g in SUITE + ["D5", "C2xC4", "A4", "D8"]:
        jobs.append(_job(reference, f"verify:{g}", partial(_verify, g, rng_seed),
                         partial(_verify_closed_form, g)))
    for g in ["C2xC2", "C4", "Q8", "C2xC4", "D4"]:
        jobs.append(_job(reference, f"engel:{g}", partial(_engel, g, rng_seed),
                         _engel_closed_form))
    for g in ["S3", "D4", "A4"]:
        jobs.append(_job(reference, f"modules:{g}", partial(_modules, g, rng_seed),
                         _modules_closed_form))
    return jobs


# -- enumerate: the perfect-base report and realize --double ---------------------

def _perfect(group: str) -> dict:
    return sidki.perfect_base_report(_parse(group))


def _perfect_closed_form(d: dict) -> str | None:
    want = {"X_order": 432000, "W_order": 2,
            "im_rho_is_full_triple_product": True, "W_central": True}
    bad = {k: d[k] for k, v in want.items() if d[k] != v}
    return f"A5 report differs from closed form: {bad}" if bad else None


def _realize(group: str, strategy: str) -> dict:
    double = presentations.sidki_double(_parse(group), presentations.AllElements(),
                                        max_cosets=CONFIG.max_cosets)
    table = enumerator.enumerate_cosets(double, [], max_cosets=CONFIG.max_cosets,
                                        strategy=strategy)
    group_order = enumerator.perm_realization(table, guard=CONFIG.guard).order()
    doc = table.to_json()
    return {"n_cosets": table.n_cosets, "order": group_order,
            "sha256": hashlib.sha256(doc.encode("utf-8")).hexdigest()}


def _realize_closed_form(group: str, d: dict) -> str | None:
    if d["n_cosets"] != X_ORDERS[group] or d["order"] != X_ORDERS[group]:
        return f"|X({group})| = {d['n_cosets']}, expected {X_ORDERS[group]}"
    return None


def enumerate_jobs(rng: random.Random, reference: dict) -> list[Job]:
    jobs = [_job(reference, "perfect:A5", partial(_perfect, "A5"), _perfect_closed_form)]
    for strategy in ("hlt", "felsch"):
        for g in ("SL(2,3)", "D8", "A4"):
            jobs.append(_job(reference, f"realize:{g}:{strategy}",
                             partial(_realize, g, strategy),
                             partial(_realize_closed_form, g)))
    return jobs


# -- wordproblem: xg_word_problem on random words --------------------------------

WP_BASES = ("C2", "S3", "D4")
WP_WORDS_PER_BASE = 10_000
WP_WARMUP_LIMIT = 100_000
WP_WARMUP_SEED = 0        # warm-up words are not inputs: the same for every seed


def _random_word(rng: random.Random, letters: list) -> words.Word:
    # the distribution of acceptance criterion 7: lengths 0..20, free reduction
    return words.Word(rng.choice(letters) for _ in range(rng.randrange(0, 21)))


def _decide(setup: decision.WPSetup, w: words.Word):
    return decision.xg_word_problem(setup, w, budget=CONFIG.budget)


def _grade(expected: str, verdict) -> str | None:
    if verdict.value == "unknown":
        return "unknown verdict"
    return None if verdict.value == expected else f"{verdict.value} != {expected}"


def word_problem_setup(base_name: str):
    """The solver state of one double, its regular table (the reference), and
    the alphabet; set-up decides warm-up words until the faithful table of the
    double is cached, as it is for every later word of a sweep."""
    base = _parse(base_name)
    double = presentations.sidki_double(base, presentations.AllElements(),
                                        max_cosets=CONFIG.max_cosets)
    oracle, _ = decision.oracle_for_presentation(base, max_cosets=CONFIG.max_cosets)
    setup = decision.WPSetup(base, oracle, double)
    table = enumerator.enumerate_cosets(double, [], max_cosets=CONFIG.max_cosets)
    letters = [words.GenSymbol(g.name, g.bar, s)
               for g in double.generators for s in (1, -1)]
    warm = random.Random(WP_WARMUP_SEED)
    for _ in range(WP_WARMUP_LIMIT):
        if setup.faithful is not None:
            break
        _decide(setup, _random_word(warm, letters))
    else:
        raise RuntimeError(f"faithful table of X({base_name}) never cached")
    return setup, table, letters


def wordproblem_jobs(rng: random.Random, reference: dict) -> list[Job]:
    jobs = []
    for base_name in WP_BASES:
        setup, table, letters = word_problem_setup(base_name)
        for _ in range(WP_WORDS_PER_BASE):
            w = _random_word(rng, letters)
            expected = "trivial" if table.is_trivial_word(w) else "nontrivial"
            jobs.append(Job(f"wp:{base_name}", partial(_decide, setup, w),
                            partial(_grade, expected)))
    return jobs


# -- area_growth: minimal-area search, grid certificates, ball growth ------------

MIN_SEARCHES = {"[a, b]": 1, "[a^2, b]": 2, "[a, b^2]": 2, "[a^2, b^2]": 4}
GRID_MAX = 30
GROWTH = {   # name: (base, witness policy of the double or None, radius)
    "F2": ("F2", None, 9),
    "X(Z)": ("Z", presentations.LengthBound(1), 20),
    "X(A4)": ("A4", presentations.AllElements(), 10),
    "X(D8)": ("D8", presentations.AllElements(), 10),
}


def _min_area(text: str) -> dict:
    pres = isoperimetry.GRID_PRESENTATION
    w = words.parse_word(text, pres.generators)
    return {"minimal_area": isoperimetry.minimal_area_search(pres, w, 4, 4)}


def _min_area_closed_form(text: str, d: dict) -> str | None:
    # [a^m, b^n] has area m*n in Z^2
    want = MIN_SEARCHES[text]
    return None if d["minimal_area"] == want else f"area {d['minimal_area']} != {want}"


def _grid(n: int) -> dict:
    pres = isoperimetry.GRID_PRESENTATION
    doc = isoperimetry.grid_certificate(n).to_json()
    cert = isoperimetry.AreaCertificate.from_json(doc, pres)
    return {"area": cert.area, "radius": cert.radius,
            "valid": isoperimetry.check_certificate(pres, cert)}


def _grid_closed_form(n: int, d: dict) -> str | None:
    want = {"area": n * n, "radius": 2 * (n - 1), "valid": True}
    return None if d == want else f"grid {n}: {d} != {want}"


def _growth(name: str) -> dict:
    base, policy, radius = GROWTH[name]
    pres = _parse(base)
    if policy is not None:
        pres = presentations.sidki_double(pres, policy, max_cosets=CONFIG.max_cosets)
    oracle, kind = decision.oracle_for_presentation(pres, max_cosets=CONFIG.max_cosets)
    gens = [words.parse_word(g.name + ("~" if g.bar else ""), pres.generators)
            for g in pres.generators]
    sizes = decision.ball_sizes(gens, oracle, radius)
    return {"oracle": kind, "sizes": sizes,
            "classification": decision.growth_classifier(sizes).label()}


def _growth_closed_form(name: str, d: dict) -> str | None:
    sizes = d["sizes"]
    if name == "F2":
        want = [2 * 3 ** n - 1 for n in range(len(sizes))]
    elif name == "X(Z)":
        want = [2 * n * n + 2 * n + 1 for n in range(len(sizes))]
    else:   # the ball has reached the whole finite double
        base = GROWTH[name][0]
        return None if sizes[-1] == X_ORDERS[base] else f"ball stops at {sizes[-1]}"
    return None if sizes == want else f"sizes {sizes} != {want}"


def area_growth_jobs(rng: random.Random, reference: dict) -> list[Job]:
    jobs = [_job(reference, f"minarea:{t}", partial(_min_area, t),
                 partial(_min_area_closed_form, t)) for t in MIN_SEARCHES]
    jobs += [_job(reference, f"grid:{n}", partial(_grid, n), partial(_grid_closed_form, n))
             for n in range(1, GRID_MAX + 1)]
    jobs += [_job(reference, f"growth:{g}", partial(_growth, g),
                  partial(_growth_closed_form, g)) for g in GROWTH]
    return jobs


# Why each workload was chosen is in BENCHMARK.json and NOTES.md.  A pass of
# structure or enumerate takes about 9 s, of area_growth 11 s: three passes
# give the median and the heaviest jobs (D8, A5, [a^2, b^2]) three samples
# each; more would make a run much longer than its --seconds.
WORKLOADS = {
    "structure": Workload(structure_jobs, ("verify:C2", "engel:C4", "modules:S3"), 3),
    "enumerate": Workload(enumerate_jobs, ("realize:A4:hlt",), 3),
    "wordproblem": Workload(wordproblem_jobs, (), 2),
    "area_growth": Workload(area_growth_jobs, ("minarea:[a, b]", "grid:1", "growth:X(Z)"), 3),
}
