"""Outside-in layer tracing for the benchmark.

The benchmark attributes host time to the repository's layers without
touching ``src/``: :func:`install` replaces each layer's public entry
point with a timing wrapper (at every module binding that refers to it,
so ``from x import f`` call sites are covered too), and
:meth:`Tracer.uninstall` puts every original object back.

Each wrapper records a span.  A layer's *self* time is the span's
duration minus the time covered by spans opened inside it on the same
thread, so self times never double-count and, on one thread, they sum
to at most the traced wall time; the remainder is reported as
``other``.  Counts (tokens, IR instructions, guest instructions, IFP
cache lookups, ...) are taken at the same boundaries from the entry
points' arguments and results.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: layers whose self time the trace reports, in report order
LAYERS = (
    "lang.lex", "lang.parse", "lang.sema", "compiler.codegen",
    "vm.setup", "vm.translate", "vm.exec", "runtime.builtin",
    "fuzz.generate", "par.pool", "par.checkpoint_write", "par.merge",
)

#: IFP-unit host caches reported as hit ratios (hits / (hits + misses))
IFP_CACHES = ("promote", "layout", "mac")


def _repro_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


class Tracer:
    """Per-layer self time and counts, accumulated across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter()
        self.sources = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> original, for bindings made after install
        self._originals: Dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` timed as a span of ``layer``; ``count(args,
        result)`` runs after a successful call to record counts."""
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with tracer._lock:
                    tracer.self_s[layer] += duration - children
                    tracer.counts[layer + ".calls"] += 1
            if count is not None:
                with tracer._lock:
                    count(args, result)
            return result

        traced.__wrapped__ = fn
        self._originals[id(traced)] = fn
        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, module, name: str, layer: str,
                       count: Optional[Callable] = None) -> None:
        """Wrap module-level function ``module.name`` at every loaded
        ``repro`` module attribute bound to it (if it exists)."""
        original = getattr(module, name, None)
        if original is None:
            return
        traced = self.wrap(layer, original, count)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, traced)

    def patch_method(self, cls, name: str, layer: str,
                     count: Optional[Callable] = None) -> None:
        if name in cls.__dict__:
            self._set(cls, name, self.wrap(layer, cls.__dict__[name], count))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, then any
        binding a module imported while tracing copied from one."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(mod, attr, original)

    # -- counts --------------------------------------------------------------

    def add_run_stats(self, stats) -> None:
        """Fold one guest run's ``RunStats`` into the counts."""
        counts = self.counts
        counts["guest_instrs"] += stats.total_instructions
        counts["cycles"] += stats.cycles
        counts["l1d_accesses"] += stats.l1d_accesses
        counts["l1d_misses"] += stats.l1d_misses
        ifp = stats.ifp
        if ifp is None:
            return
        counts["ifp_promotes"] += ifp.promotes_total
        # host-cache counters (0 once they move out of RunStats)
        counts["ifp_promote_elisions"] += getattr(ifp, "promote_elisions", 0)
        for cache in IFP_CACHES:
            counts[f"ifp_{cache}_hits"] += getattr(
                ifp, f"{cache}_cache_hits", 0)
            counts[f"ifp_{cache}_misses"] += getattr(
                ifp, f"{cache}_cache_misses", 0)

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                    "unique_sources": len(self.sources)}


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Import the traced layers and wrap their entry points.  An entry
    point missing at this commit is skipped: its time then shows in the
    layer that calls it."""
    import repro.compiler.compile as compile_mod
    import repro.fuzz.generator as generator
    import repro.hostio as hostio
    import repro.lang.lexer as lexer
    import repro.lang.parser as parser
    import repro.lang.sema as sema
    import repro.par.merge as merge
    import repro.par.pool as pool
    from repro.vm.fastpath import FastInterpreter
    from repro.vm.interp import Interpreter
    from repro.vm.machine import Machine

    tracer = tracer or Tracer()
    counts = tracer.counts

    def on_tokens(args, tokens):
        counts["tokens"] += len(tokens)

    def on_parse(args, unit):
        counts["parses"] += 1
        tracer.sources.add(hashlib.sha256(args[0].encode()).digest())

    def on_codegen(args, program):
        counts["ir_instrs"] += sum(len(func.instrs)
                                   for func in program.functions.values())

    def on_translate(kind):
        def count(args, result):
            counts["translations"] += 1
            counts["translated_ir_instrs"] += len(args[1].instrs)
            if kind == "super":
                counts["translations_super"] += 1
        return count

    def on_run(args, result):
        tracer.add_run_stats(result.stats)

    def on_plan(args, result):
        counts["shards"] += len(args[0].shards)

    tracer.patch_function(lexer, "tokenize", "lang.lex", on_tokens)
    tracer.patch_function(parser, "parse", "lang.parse", on_parse)
    tracer.patch_function(sema, "analyze", "lang.sema")
    tracer.patch_function(compile_mod, "compile_program",
                          "compiler.codegen", on_codegen)
    tracer.patch_function(generator, "generate_program", "fuzz.generate")
    tracer.patch_function(hostio, "atomic_write_json",
                          "par.checkpoint_write")
    tracer.patch_function(pool, "run_plan", "par.pool", on_plan)
    for name in ("merge_fuzz_stats", "merge_campaign", "merge_juliet",
                 "merge_bench"):
        tracer.patch_function(merge, name, "par.merge")
    tracer.patch_method(Machine, "__init__", "vm.setup")
    tracer.patch_method(Machine, "run", "vm.exec", on_run)
    for kind in ("fused", "singles", "super"):
        tracer.patch_method(FastInterpreter, f"_translate_{kind}",
                            "vm.translate", on_translate(kind))
    tracer.patch_method(Interpreter, "_call_builtin", "runtime.builtin")
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: dict, base_s: float) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.snapshot`.

    ``base_s`` is the time the shares are taken of (the traced wall
    time of a single-threaded campaign); ``trace.other_s`` is whatever
    of it no layer's self time covers, so the self times plus ``other``
    add up to ``base_s`` exactly.
    """
    self_s, counts = snapshot["self_s"], snapshot["counts"]
    get = counts.get
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[layer + "_s"] = self_s[layer]
    other = base_s - sum(self_s.values())
    out["trace.base_s"] = base_s
    out["trace.other_s"] = other
    for layer in LAYERS:
        out["share." + layer] = _ratio(self_s[layer], base_s)
    out["share.other"] = _ratio(other, base_s)

    parses = get("parses", 0)
    out["lang.parses"] = parses
    out["lang.tokens"] = get("tokens", 0)
    out["lang.unique_sources"] = snapshot["unique_sources"]
    out["lang.unique_source_ratio"] = _ratio(snapshot["unique_sources"],
                                             parses)
    out["compiler.ir_instrs"] = get("ir_instrs", 0)
    out["vm.machines"] = get("vm.setup.calls", 0)
    out["vm.translations"] = get("translations", 0)
    out["vm.translations_super"] = get("translations_super", 0)
    out["vm.translated_ir_instrs"] = get("translated_ir_instrs", 0)
    guest = get("guest_instrs", 0)
    out["vm.guest_instrs"] = guest
    out["vm.exec_per_translated_instr"] = _ratio(
        guest, get("translated_ir_instrs", 0))
    out["vm.guest_mips"] = _ratio(guest, self_s["vm.exec"]) / 1e6
    out["runtime.builtin_calls"] = get("runtime.builtin.calls", 0)
    out["ifp.promotes"] = get("ifp_promotes", 0)
    out["ifp.promote_elisions"] = get("ifp_promote_elisions", 0)
    for cache in IFP_CACHES:
        hits = get(f"ifp_{cache}_hits", 0)
        lookups = hits + get(f"ifp_{cache}_misses", 0)
        out[f"ifp.{cache}_cache_lookups"] = lookups
        out[f"ifp.{cache}_cache_hit_ratio"] = _ratio(hits, lookups)
    out["mem.l1d_accesses"] = get("l1d_accesses", 0)
    out["mem.l1d_miss_ratio"] = _ratio(get("l1d_misses", 0),
                                       get("l1d_accesses", 0))
    out["sim.cycles"] = get("cycles", 0)
    out["par.shards"] = get("shards", 0)
    out["par.checkpoint_writes"] = get("par.checkpoint_write.calls", 0)
    return out
