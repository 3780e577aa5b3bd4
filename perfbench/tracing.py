"""Span tracing of symdet's layers from outside the package.

The pipeline calls its layers through module attributes (``cli`` calls
``identity_test`` as ``symdet.cli.identity_test``, ``identity_test`` calls
``symdet.verify.det_eval``, ``measure`` imports ``minimize`` from
``symdet.minimize`` at call time, ...).  :meth:`Tracer.install` replaces
every such binding of a traced function, in every loaded ``symdet``
module, with a wrapper that records a span; :meth:`Tracer.uninstall` puts
the originals back.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent span index, op id), kept in memory and
written out at the end.  A span's self time is its duration minus the time
its child spans cover (children of one synchronous call never overlap, so
that is the sum of their durations).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

#: (module, function) pairs traced with spans, grouped by pipeline layer
LAYERS = {
    "cli": [("cli", "main")],
    "parse": [("circuits", "parse_circuit"), ("graphs", "parse_matrix")],
    "classify": [("circuits", "classify"), ("circuits", "measure")],
    "minimize": [("minimize", "minimize")],
    "gadget": [
        ("formulas", "build_sym_graph"),
        ("formulas", "build_valiant_digraph"),
        ("weakly_skew", "build_ws_graph"),
        ("weakly_skew", "build_ws_abp"),
        ("determinant", "det_sym_matrix"),
        ("char2", "double_matrix"),
    ],
    "closure": [
        ("formulas", "sym_matrix"),
        ("formulas", "valiant_matrix"),
        ("weakly_skew", "ws_sym_matrix"),
        ("weakly_skew", "ws_nonsym_matrix"),
        ("char2", "square_matrix_char2"),
        ("graphs", "adjacency"),
        ("graphs", "render_matrix"),
    ],
    "verify": [
        ("verify", "identity_test"),
        ("verify", "det_eval"),
        ("circuits", "evaluate"),
        ("oracles", "symbolic_det"),
        ("polynomials", "expand_circuit"),
        ("char2", "partial_perm_identity"),
    ],
}
SPANNED = [f"{m}.{f}" for funcs in LAYERS.values() for m, f in funcs]
LAYER_OF = {f"{m}.{f}": layer for layer, funcs in LAYERS.items() for m, f in funcs}
#: called far too often for spans: counted only
COUNTED = ["fields.embed"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self.recording = False
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "symdet" or name.startswith("symdet."))]
        for qualname in SPANNED + COUNTED:
            mod, func = qualname.split(".")
            original = getattr(sys.modules[f"symdet.{mod}"], func)
            wrapper = (self._counting if qualname in COUNTED else self._spanning)(
                qualname, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def _counting(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.recording:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanning(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        on_result = self._verdict_counters if name == "verify.identity_test" else None

        def spanned(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            calls[name] += 1
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return spanned

    def _verdict_counters(self, verdict) -> None:
        if verdict.status == "verified-exact":
            self.counters["verify.exact"] += 1
        self.counters["verify.trials"] += verdict.trials

    # -- results --------------------------------------------------------------

    def self_times(self, ops=None) -> dict[str, float]:
        """Self seconds per traced function, over the spans of ``ops`` (op
        ids; all ops when None)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name in SPANNED}
        for (name, start, end, _parent, op), covered in zip(self.spans, child):
            if ops is None or op in ops:
                out[name] += end - start - covered
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
