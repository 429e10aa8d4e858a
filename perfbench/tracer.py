"""Per-layer tracing, applied from outside the library.

``Tracer.installed()`` wraps the public functions of each weakcomm module (the
layers) and restores them on exit.  Every wrapped call pushes a frame that
knows its layer; when it returns, its duration minus the time of the frames
nested in it is added to its layer's self time.  So the self times of all
layers sum to the time spent inside the library, never more than the wall
time.  Three kinds of wrapper:

* ``span``: a span (id, parent id, name, start, end) per call, plus calls and
  busy time.  For functions called at most some thousands of times per run.
* ``busy``: calls and busy time, no span.  For hot functions whose busy time
  is a metric.
* ``count``: calls only; the call is timed (for self time) only when it
  crosses from another layer, because a call within its own layer is already
  inside a timed frame of that layer.  For the hottest functions.

Busy time counts only the outermost call of a function, so recursion is not
counted twice.  The process is single-threaded, so there is no waiting.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

from weakcomm import (decision, enumerator, errors, intlinalg, isoperimetry,
                      permgroups, presentations, sidki, words, zqmodules)

_MODULES = {"words": words, "presentations": presentations,
            "enumerator": enumerator, "permgroups": permgroups, "sidki": sidki,
            "zqmodules": zqmodules, "intlinalg": intlinalg,
            "decision": decision, "isoperimetry": isoperimetry}
LAYERS = tuple(_MODULES)

# (layer, owner inside the layer's module, attribute, kind)
TARGETS = [
    ("words", "Word", "__init__", "count"),
    ("words", "Word", "__mul__", "count"),
    ("words", "Word", "inverse", "count"),
    ("words", "GenSymbol", "__init__", "count"),
    ("words", None, "rho_word", "busy"),
    ("words", None, "bar_word", "count"),
    ("words", None, "pi_word", "count"),
    ("words", None, "commutator", "count"),
    ("words", None, "parse_word", "count"),
    ("words", None, "format_word", "count"),
    ("presentations", None, "parse_presentation", "span"),
    ("presentations", None, "sidki_double", "span"),
    ("presentations", None, "abelianization", "span"),
    ("enumerator", None, "enumerate_cosets", "span"),
    ("enumerator", None, "perm_realization", "span"),
    ("enumerator", None, "signed_letters", "count"),
    ("enumerator", "CosetTable", "coset_words", "span"),
    ("enumerator", "CosetTable", "to_json", "span"),
    ("enumerator", "CosetTable", "trace_word", "count"),
    ("enumerator", "CosetTable", "is_trivial_word", "count"),
    ("enumerator", "CosetTable", "word_image", "count"),
    ("enumerator", "CosetTable", "word_image_unchecked", "count"),
    ("permgroups", "Perm", "__init__", "count"),
    ("permgroups", "Perm", "__mul__", "count"),
    ("permgroups", "Perm", "inverse", "count"),
    ("permgroups", "Perm", "conjugate", "count"),
    ("permgroups", None, "evaluate", "count"),
    ("permgroups", None, "block_perm", "count"),
    ("permgroups", "PermGroup", "elements", "busy"),
    ("permgroups", "PermGroup", "order", "busy"),
    ("permgroups", "PermGroup", "subgroup", "span"),
    ("permgroups", "PermGroup", "from_elements", "span"),
    ("permgroups", "PermGroup", "normal_closure", "span"),
    ("permgroups", "PermGroup", "intersection", "span"),
    ("permgroups", "PermGroup", "center", "span"),
    ("permgroups", "PermGroup", "derived_subgroup", "span"),
    ("permgroups", "PermGroup", "nilpotency_class", "span"),
    ("permgroups", "PermGroup", "is_n_engel", "span"),
    ("permgroups", "PermGroup", "minimal_engel_class", "span"),
    ("permgroups", "GroupHom", "kernel", "span"),
    ("permgroups", None, "quotient_realization", "span"),
    ("permgroups", None, "abelian_invariants", "span"),
    ("sidki", None, "build", "span"),
    ("sidki", None, "verification_report", "span"),
    ("sidki", None, "nilpotence_report", "span"),
    ("sidki", None, "engel_certificate", "span"),
    ("sidki", None, "perfect_base_report", "span"),
    ("zqmodules", None, "aug_mod_I2", "span"),
    ("zqmodules", None, "ell_module_consistency", "span"),
    ("zqmodules", None, "nil_equation_checks", "span"),
    ("zqmodules", None, "w_structure_checks", "span"),
    ("zqmodules", None, "module_M", "span"),
    ("intlinalg", None, "smith_normal_form", "span"),
    ("intlinalg", None, "cokernel", "span"),
    ("decision", None, "xg_word_problem", "busy"),
    ("decision", None, "oracle_for_presentation", "span"),
    ("decision", None, "ball_sizes", "span"),
    ("decision", None, "growth_classifier", "span"),
    ("decision", "FiniteRealizationOracle", "is_trivial", "count"),
    ("decision", "FiniteRealizationOracle", "normal_form", "count"),
    ("isoperimetry", None, "minimal_area_search", "span"),
    ("isoperimetry", None, "check_certificate", "span"),
    ("isoperimetry", None, "grid_certificate", "span"),
    ("isoperimetry", "AreaCertificate", "to_json", "span"),
    ("isoperimetry", "AreaCertificate", "product_word", "busy"),
]

# the two public Engel entry points share one metric
_ALIASES = {"permgroups.PermGroup.is_n_engel": "permgroups.engel_scan",
            "permgroups.PermGroup.minimal_engel_class": "permgroups.engel_scan"}

STAGE1_REASON = "rho coordinate nontrivial"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []      # frames: [layer, span id, child time]
        self._active: defaultdict[str, int] = defaultdict(int)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, key: str, kind: str, fn):
        stack, calls, self_time = self._stack, self.calls, self.self_time
        busy, active, spans = self.busy, self._active, self.spans
        clock = time.perf_counter

        if kind == "count":
            def counted(*args, **kwargs):
                calls[key] += 1
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = [layer, stack[-1][1] if stack else None, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    self_time[layer] += dur - frame[2]
                    if stack:
                        stack[-1][2] += dur
            return counted

        record_span = kind == "span"

        def timed(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if record_span else parent
            if record_span:
                spans.append(None)            # reserve the id; filled on exit
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            active[key] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                active[key] -= 1
                self_time[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if not active[key]:
                    busy[key] += dur
                if record_span:
                    spans[span_id] = (span_id, parent, key, t0, t1)
        return timed

    def _observed(self, key: str, fn):
        """Counters read from arguments and results, around the raw function."""
        counts, busy, clock = self.counts, self.busy, time.perf_counter
        if key == "enumerator.enumerate_cosets":
            def enumerate_cosets(pres, subgens=(), max_cosets=10 ** 6, strategy="hlt"):
                t0 = clock()
                try:
                    table = fn(pres, subgens, max_cosets=max_cosets, strategy=strategy)
                except errors.EnumerationOverflow:
                    counts["enumerator.overflows"] += 1
                    raise
                finally:
                    busy[f"enumerator.{strategy}"] += clock() - t0
                counts["enumerator.cosets_published"] += table.n_cosets
                return table
            return enumerate_cosets
        if key == "permgroups.PermGroup.elements":
            def elements(group, *args, **kwargs):
                fresh = group._elements is None   # read-only peek at the cache
                found = fn(group, *args, **kwargs)
                if fresh:
                    counts["permgroups.elements_materialized"] += len(found)
                return found
            return elements
        if key == "decision.xg_word_problem":
            def xg_word_problem(*args, **kwargs):
                verdict = fn(*args, **kwargs)
                counts["decision.stage1"] += verdict.reason == STAGE1_REASON
                counts["decision.unknown_verdicts"] += verdict.value == "unknown"
                return verdict
            return xg_word_problem
        return fn

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        try:
            for layer, owner_name, attr, kind in TARGETS:
                module = _MODULES[layer]
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[attr]
                key = ".".join(p for p in (layer, owner_name, attr) if p)
                wrapper = self._wrap(layer, _ALIASES.get(key, key), kind,
                                     self._observed(key, raw))
                if owner_name:
                    restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
                    continue
                # a function is also bound by name in every module importing it
                for mod in _weakcomm_modules():
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            restore.append((mod, name, raw))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of BENCHMARK.json, zero where a layer did
        no work on this workload."""
        c, b, n = self.calls, self.busy, self.counts
        xg_calls = c["decision.xg_word_problem"]
        enum_busy = b["enumerator.enumerate_cosets"]
        m = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS
             if layer != "presentations"}
        m.update({
            "words.word_constructions": c["words.Word.__init__"],
            "words.symbol_constructions": c["words.GenSymbol.__init__"],
            "words.rho_word.calls": c["words.rho_word"],
            "words.rho_word.busy_s": b["words.rho_word"],
            "words.format_word.calls": c["words.format_word"],
            "presentations.sidki_double.calls": c["presentations.sidki_double"],
            "presentations.sidki_double.busy_s": b["presentations.sidki_double"],
            "enumerator.enumerate_cosets.calls": c["enumerator.enumerate_cosets"],
            "enumerator.enumerate_cosets.busy_s": enum_busy,
            "enumerator.hlt.busy_s": b["enumerator.hlt"],
            "enumerator.felsch.busy_s": b["enumerator.felsch"],
            "enumerator.cosets_published": n["enumerator.cosets_published"],
            "enumerator.cosets_per_s": (n["enumerator.cosets_published"] / enum_busy
                                        if enum_busy else 0.0),
            "enumerator.overflows": n["enumerator.overflows"],
            "enumerator.coset_words.busy_s": b["enumerator.CosetTable.coset_words"],
            "enumerator.trace_word.calls": c["enumerator.CosetTable.trace_word"],
            "enumerator.perm_realization.busy_s": b["enumerator.perm_realization"],
            "permgroups.perm_products": c["permgroups.Perm.__mul__"],
            "permgroups.perm_constructions": c["permgroups.Perm.__init__"],
            "permgroups.elements.calls": c["permgroups.PermGroup.elements"],
            "permgroups.elements_materialized": n["permgroups.elements_materialized"],
            "permgroups.elements.busy_s": b["permgroups.PermGroup.elements"],
            "permgroups.normal_closure.busy_s": b["permgroups.PermGroup.normal_closure"],
            "permgroups.intersection.busy_s": b["permgroups.PermGroup.intersection"],
            "permgroups.kernel.busy_s": b["permgroups.GroupHom.kernel"],
            "permgroups.order.busy_s": b["permgroups.PermGroup.order"],
            "permgroups.engel_scan.busy_s": b["permgroups.engel_scan"],
            "sidki.build.calls": c["sidki.build"],
            "sidki.build.busy_s": b["sidki.build"],
            "sidki.perfect_base_report.busy_s": b["sidki.perfect_base_report"],
            "sidki.engel_certificate.busy_s": b["sidki.engel_certificate"],
            "zqmodules.aug_mod_I2.busy_s": b["zqmodules.aug_mod_I2"],
            "intlinalg.smith_normal_form.calls": c["intlinalg.smith_normal_form"],
            "intlinalg.smith_normal_form.busy_s": b["intlinalg.smith_normal_form"],
            "decision.xg_word_problem.calls": xg_calls,
            "decision.stage1_share": (n["decision.stage1"] / xg_calls
                                      if xg_calls else 0.0),
            "decision.unknown_verdicts": n["decision.unknown_verdicts"],
            "decision.ball_sizes.busy_s": b["decision.ball_sizes"],
            "isoperimetry.minimal_area_search.busy_s":
                b["isoperimetry.minimal_area_search"],
            "isoperimetry.check_certificate.busy_s": b["isoperimetry.check_certificate"],
            "trace.overhead_s": overhead_s,
        })
        return m

    def shares(self) -> dict[str, float]:
        total = sum(self.self_time.values())
        return {layer: (t / total if total else 0.0)
                for layer, t in self.self_time.items()}


def _weakcomm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "weakcomm" or name.startswith("weakcomm."))]
