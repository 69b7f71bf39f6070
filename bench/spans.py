"""Spans around finalg's public functions, recorded from outside the package.

`Tracer.install()` wraps every public function of every finalg module and
rebinds each name that refers to it, in its own module and in the modules
that imported it (`witnesses.is_subuniverse`, `maltsev.build_free_algebra`,
...).  Spans stay in memory until `dump`; `layer_metrics` turns them into the
per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

BUILDERS = {"sharpness_certificate", "induction_certificate", "identity_certificate",
            "level_certificate", "search_certificate", "toolkit_certificate"}


def _dag_nodes(term) -> int:
    seen = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(getattr(t, "args", ()))
    return len(seen)


def _counters(func: str, args, kwargs, out) -> dict:
    """Counts taken at the span's boundary from its arguments and result."""
    if func == "is_subuniverse":
        return {"elems": len(args[1]) if len(args) > 1 else len(kwargs["subset"])}
    if func == "check_identity":
        size = args[1].size
        return {"mode": "pair" if kwargs.get("pair") is not None else "full", "size": size}
    if func == "generate_subpower":
        return {"engine": out.engine, "size": out.size, "work": out.stats.get("work", 0)}
    if func == "build_free_algebra":
        return {"key": [[a.label for a in args[0]], args[1]]}
    if func == "chain_level" and out.terms:
        return {"term_nodes": sum(_dag_nodes(t) for t in out.terms)}
    if func == "absorption_search" and out.term is not None:
        return {"term_nodes": _dag_nodes(out.term)}
    return {}


class Tracer:
    """Records (layer, function, start, end, parent, counters) per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                rec[5] = _counters(name, args, kwargs, out)
                return out
            finally:
                rec[3] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, package) -> int:
        """Wrap the package's public functions; returns how many."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)
                   if info.name != "cli"]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(fn)] = self._wrap(layer, name, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrapped[id(value)])
        return len(wrapped)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, name, value in self._saved:
            setattr(mod, name, value)
        self._saved.clear()

    def dump(self, path: str) -> None:
        keys = ("layer", "function", "start", "end", "parent", "counters")
        with open(path, "w") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)


def layer_metrics(spans: list) -> dict:
    """Per-layer figures for one or more rounds of spans.

    Times are sums of span durations, counted once when a layer calls
    itself.  A self time is the span minus its children; `*_self_s` figures
    add the self times of the named function and of the same-layer calls
    below it.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    own = [dur[i] - child[i] for i in range(n)]

    def outermost(i, pred):
        p = spans[i][4]
        while p >= 0:
            if pred(p):
                return False
            p = spans[p][4]
        return True

    def calls(func):
        return [i for i, s in enumerate(spans)
                if s[1] == func and outermost(i, lambda p: spans[p][1] == func)]

    def self_time(funcs):
        """Own time of funcs' spans and of same-layer spans beneath them."""
        total = 0.0
        for i, s in enumerate(spans):
            j = i
            while j >= 0 and spans[j][0] == s[0]:
                if spans[j][1] in funcs:
                    total += own[i]
                    break
                j = spans[j][4]
        return total

    def total(idx):
        return sum(dur[i] for i in idx)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    sub = calls("is_subuniverse")
    out["algebras.is_subuniverse_s"] = total(sub)
    out["algebras.is_subuniverse_calls"] = len(sub)
    out["algebras.subuniverse_elems_per_s"] = rate(
        sum(spans[i][5].get("elems", 0) for i in sub), total(sub))
    out["witnesses.build_self_s"] = self_time({"build_sharpness_witness"})
    out["congruences.s"] = total([i for i, s in enumerate(spans) if s[0] == "congruences"
                                  and outermost(i, lambda p: spans[p][0] == "congruences")])
    ident = calls("check_identity")
    full = [i for i in ident if spans[i][5].get("mode") == "full"]
    pair = [i for i in ident if spans[i][5].get("mode") == "pair"]
    out["identities.full_s"] = total(full)
    out["identities.full_calls"] = len(full)
    out["identities.full_pairs_per_s"] = rate(
        sum(spans[i][5]["size"] ** 2 for i in full), total(full))
    out["identities.pair_s"] = total(pair)
    out["identities.pair_calls"] = len(pair)
    out["relations.chain_search_s"] = total(calls("shortest_alternating_chain"))
    out["induction.self_s"] = self_time({"run_level_induction"})
    gen = calls("generate_subpower")
    closure = [i for i in gen if spans[i][5].get("engine") in ("closure", "partial")]
    work = sum(spans[i][5].get("work", 0) for i in closure)
    out["freealg.generate_subpower_s"] = total(gen)
    out["freealg.generate_subpower_calls"] = len(gen)
    out["freealg.subpower_elements"] = sum(spans[i][5].get("size", 0) for i in gen)
    out["freealg.closure_work"] = work
    out["freealg.closure_tuples_per_s"] = rate(work, total(closure))
    engines = defaultdict(int)
    for i in gen:
        engines[spans[i][5].get("engine")] += 1
    for engine in ("closure", "partial", "local", "membership"):
        out[f"freealg.engine_{engine}"] = engines[engine]
    builds = calls("build_free_algebra")
    out["freealg.free_algebra_builds"] = len(builds)
    out["freealg.free_algebra_distinct"] = len({json.dumps(spans[i][5].get("key"))
                                                for i in builds})
    out["maltsev.chain_level_self_s"] = self_time({"chain_level"})
    out["maltsev.absorption_search_self_s"] = self_time({"absorption_search"})
    verify = calls("verify_equations")
    out["terms.verify_equations_s"] = total(verify)
    out["terms.verify_equations_calls"] = len(verify)
    out["terms.witness_term_nodes"] = sum(
        s[5].get("term_nodes", 0) for s in spans if s[1] in ("chain_level", "absorption_search"))
    rechecks = calls("recheck")
    out["certificates.recheck_s"] = total(rechecks)
    out["certificates.recheck_calls"] = len(rechecks)
    out["certificates.builder_self_s"] = sum(own[i] for i, s in enumerate(spans)
                                             if s[1] in BUILDERS)
    out["io.json_s"] = total(calls("dumps_canonical") + calls("load_certificate"))
    return out
