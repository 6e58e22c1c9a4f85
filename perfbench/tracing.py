"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper everywhere
the program holds a reference to it: every ``urbanav`` module attribute that
is the function (so ``from .executor import step`` and
``compute as compute_world`` are caught too), or the class attribute for
methods. ``uninstall`` puts the originals back. Each call becomes a span with
a name, start, end and parent span; spans that share a top-level ancestor
share its id as the request id. A span's self time is its duration minus the
time covered by its child spans.

Totals per span name and per (parent, child) edge are kept for every call,
split by phase (``setup`` or ``measure``). Raw spans are kept in memory up
to ``MAX_SPANS`` and written out with the totals at the end of the run.
``Tensor`` constructions are counted by wrapping ``Tensor.__init__``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MAX_SPANS = 100_000

# (module, attribute path, span name). Methods are looked up on their class.
TRACED = (
    ("urbanav.synth", "generate", "synth.generate"),
    ("urbanav.abstraction", "match_entities", "abstraction.match_entities"),
    ("urbanav.executor", "route_to_actions", "executor.route_to_actions"),
    ("urbanav.executor", "step", "executor.step"),
    ("urbanav.worldstate", "compute", "worldstate.compute"),
    ("urbanav.training", "train", "training.train"),
    ("urbanav.training", "build_example", "training.build_example"),
    ("urbanav.training", "Adam.step", "training.Adam.step"),
    ("urbanav.autodiff", "backward", "autodiff.backward"),
    ("urbanav.model", "NavigationModel.encode", "model.encode"),
    ("urbanav.model", "NavigationModel.attend", "model.attend"),
    ("urbanav.model", "NavigationModel.sentence_loss", "model.sentence_loss"),
    ("urbanav.model", "NavigationModel.beam_search", "model.beam_search"),
    ("urbanav.baselines", "jump", "baselines.jump"),
    ("urbanav.evaluator", "sentence_success", "evaluator.sentence_success"),
    ("urbanav.evaluator", "run_protocol", "evaluator.run_protocol"),
)

ROOT = "<root>"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats: dict[tuple[str, str], list] = {}  # (phase, name) -> [calls, errors, total_s, self_s]
        self.edges: dict[tuple[str, str, str], list] = {}  # (phase, parent, child) -> [calls, total_s]
        self.spans: list[tuple] = []  # (id, parent id, request id, phase, name, start, end)
        self.dropped_spans = 0
        self.tensors = 0
        # phase -> [Tensor constructions inside loss calls that build a graph, such calls]
        self.graph: dict[str, list[int]] = {}
        self._stack: list[list] = []  # [name, span id, request id, child_s]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in TRACED:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            fn = original
            if name == "model.sentence_loss":
                fn = self._count_graph(fn)
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "urbanav" or mod_name.startswith("urbanav."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        tensor_cls = importlib.import_module("urbanav.autodiff").Tensor
        self._patch(tensor_cls, "__init__", self._count_tensors(tensor_cls.__init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, parent[2] if parent else span_id, 0.0]
            stack.append(frame)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[3] += duration
                self._record(frame, parent, start, end, duration, failed)

        return traced

    def _count_graph(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = self.tensors
            loss = fn(*args, **kwargs)
            if loss.requires_grad:
                row = self.graph.setdefault(self.phase, [0, 0])
                row[0] += self.tensors - before
                row[1] += 1
            return loss

        return counted

    def _count_tensors(self, init):
        @functools.wraps(init)
        def counted_init(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)

        return counted_init

    def _record(self, frame, parent, start, end, duration, failed) -> None:
        name, span_id, request_id, child_s = frame
        parent_name = parent[0] if parent else ROOT
        row = self.stats.setdefault((self.phase, name), [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += failed
        row[2] += duration
        row[3] += duration - child_s
        edge = self.edges.setdefault((self.phase, parent_name, name), [0, 0.0])
        edge[0] += 1
        edge[1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[1] if parent else None, request_id,
                               self.phase, name, start - self.t0, end - self.t0))
        else:
            self.dropped_spans += 1

    # -- queries -------------------------------------------------------------------

    def calls(self, phase: str, name: str) -> int:
        return self.stats.get((phase, name), [0])[0]

    def errors(self, phase: str, name: str) -> int:
        return self.stats.get((phase, name), [0, 0])[1]

    def mean_self_s(self, phase: str, name: str) -> float:
        row = self.stats.get((phase, name))
        return row[3] / row[0] if row else 0.0

    def total_s(self, phase: str, name: str) -> float:
        row = self.stats.get((phase, name))
        return row[2] if row else 0.0

    def edge_calls(self, phase: str, parent: str, child: str) -> int:
        return self.edges.get((phase, parent, child), [0])[0]

    def edge_total_s(self, phase: str, parent: str, child: str) -> float:
        return self.edges.get((phase, parent, child), [0, 0.0])[1]

    def tensors_per_graph_loss(self, phase: str) -> float:
        tensors, losses = self.graph.get(phase, (0, 0))
        return tensors / losses if losses else 0.0

    def split(self, phase: str, wall_s: float) -> dict[str, float]:
        """Share of a phase's wall time spent in each span's self time."""
        shares = {name: row[3] / wall_s for (ph, name), row in self.stats.items() if ph == phase}
        shares["(outside traced spans)"] = 1.0 - sum(shares.values())
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

    def write(self, path, extra: dict) -> None:
        payload = {
            **extra,
            "stats": [
                {"phase": ph, "name": name, "calls": c, "errors": e,
                 "total_s": tot, "self_s": own}
                for (ph, name), (c, e, tot, own) in sorted(self.stats.items())
            ],
            "edges": [
                {"phase": ph, "parent": parent, "child": child, "calls": c, "total_s": tot}
                for (ph, parent, child), (c, tot) in sorted(self.edges.items())
            ],
            "tensors_constructed": self.tensors,
            "spans_fields": ["id", "parent", "request", "phase", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.dropped_spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
