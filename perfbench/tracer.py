"""Per-layer tracing of the nanowords package, installed from outside it.

Each layer is one package module.  While a ``Tracer`` is active, every
public function of every layer, plus a few named methods, is replaced by a
wrapper that records calls and time.  ``from .matrices import nabla`` copies
the function into the importing module, so every module-level binding of a
traced function is patched, not only the defining one; methods are patched on
their class.  Leaving the ``with`` block restores every original binding.

Two kinds of wrapper:

* span -- keeps a stack, so it reports ``calls``, ``total_s`` (outermost
  calls only, so recursion is not counted twice) and ``self_s`` (total minus
  time in nested spans);
* counter -- for leaves called more than 10^4 times per op; it reports
  ``calls`` and ``total_s`` and stays off the span stack, so its time counts
  in the enclosing span's ``self_s``.

Private helpers are never wrapped: they are the hottest code (``_match_triple``
runs millions of times per search) and wrapping them distorts the split.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("words", "groups", "intlinalg", "interlacement", "selflinking",
          "pairings", "matrices", "lambdainv", "keis", "moves", "fingerprint",
          "classify", "records", "cli")

# (layer, class, method) traced besides the layers' public functions
METHODS = (
    ("words", "Nanoword", "__init__"),
    ("words", "Nanoword", "canonical"),
    ("words", "Nanoword", "key"),
    ("groups", "GroupRingElement", "__mul__"),
    ("fingerprint", "Fingerprint", "first_difference"),
)

# leaves called more than 10^4 times in one op of some workload
COUNTERS = frozenset({
    "words.Nanoword.__init__", "words.Nanoword.canonical", "words.Nanoword.key",
    "groups.GroupRingElement.__mul__", "groups.psi_abelianize", "moves.apply_move",
})

SEARCHES = ("moves.search_contractible", "moves.search_homotopic")


def layer_modules() -> dict:
    """The layer modules by short name (``nanowords.classify`` is also a function
    name on the package, so modules are looked up by full dotted name)."""
    return {name: importlib.import_module(f"nanowords.{name}") for name in LAYERS}


def _targets(mods: dict):
    """Yield (metric prefix, layer, owner, attribute, original)."""
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                yield f"{layer}.{attr}", layer, mod, attr, obj
    for layer, cls_name, attr in METHODS:
        cls = getattr(mods[layer], cls_name)
        yield f"{layer}.{cls_name}.{attr}", layer, cls, attr, vars(cls)[attr]


class Tracer:
    """Context manager that traces the package's layers while active."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.layer_total = {layer: 0.0 for layer in LAYERS}
        self.successors = 0
        self.distinct_successors = 0
        self.cert_moves = 0
        self.classify_searches = 0
        self._seen_successors: set = set()
        self._saved: list = []

    def new_op(self):
        """Start a fresh scope for the per-op distinct-successor count."""
        self._seen_successors = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, layer, fn, stack, active, layer_depth):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer_total = self.layer_total
        after = self._after_hook(name)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            ldepth = layer_depth[layer]
            layer_depth[layer] = ldepth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                active[name] = depth
                layer_depth[layer] = ldepth
                st[0] += 1
                st[2] += elapsed - frame[0]
                if depth == 0:
                    st[1] += elapsed
                if ldepth == 0:
                    layer_total[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result, active)
            return result

        return span

    def _counter(self, name, layer, fn, layer_depth):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer_total = self.layer_total

        def counter(*args, **kwargs):
            ldepth = layer_depth[layer]
            layer_depth[layer] = ldepth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                layer_depth[layer] = ldepth
                st[0] += 1
                st[1] += elapsed
                if ldepth == 0:
                    layer_total[layer] += elapsed

        return counter

    def _after_hook(self, name):
        if name == "moves.enumerate_moves":
            def after(result, active):
                self.successors += len(result)
                seen = self._seen_successors
                before = len(seen)
                for _, nxt in result:
                    seen.add((nxt.word, tuple(sorted(nxt.proj.items()))))
                self.distinct_successors += len(seen) - before
            return after
        if name in SEARCHES:
            def after(result, active):
                if result is not None:
                    self.cert_moves += len(result.moves)
                if active.get("classify.classify"):
                    self.classify_searches += 1
            return after
        return None

    # -- install / restore --------------------------------------------------

    def __enter__(self):
        mods = layer_modules()
        stack: list = []
        active: dict = {}
        layer_depth = {layer: 0 for layer in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n == "nanowords" or n.startswith("nanowords.")]
        for name, layer, owner, attr, original in list(_targets(mods)):
            if name in COUNTERS:
                wrapper = self._counter(name, layer, original, layer_depth)
            else:
                wrapper = self._span(name, layer, original, stack, active, layer_depth)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in package:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, bound, original))
                        setattr(mod, bound, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every recorded figure, named ``<layer>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            if name not in COUNTERS:
                out[f"{name}.self_s"] = self_s
        for layer, total in self.layer_total.items():
            out[f"{layer}.total_s"] = total
        out["moves.successors"] = self.successors
        out["moves.successor_distinct_ratio"] = (
            self.distinct_successors / self.successors if self.successors else 0.0)
        out["moves.cert_moves"] = self.cert_moves
        out["classify.searches"] = self.classify_searches
        return out
