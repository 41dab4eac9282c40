"""Span tracer that times ctorsim's layers from outside the package.

ctorsim modules import their collaborators by name (`from .onion import
run_transfer`), so a layer is timed by replacing the binding each caller
looks up at call time, e.g. `ctorsim.censor.run_transfer`. Nothing inside
`src/` changes, and `Tracer.installed` restores every binding on exit.

Spans live in flat arrays (name, parent, operation, start, end, self time)
and are written out once, when the run ends. A span's self time is its
duration minus the time of the spans (and gf256 calls) nested in it. The
gf256 byte primitives fire thousands of times per transfer, so they are not
stored one by one: each call is timed, counted with the bytes it computed,
and charged to the enclosing span as child time.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (module holding the binding, attribute, layer span it records)
SPAN_BINDINGS = (
    ("cli", "sweep", "analytics.sweep"),
    ("cli", "run_campaign", "censor.run_campaign"),
    ("cli", "run_transfer", "onion.run_transfer"),
    ("cli", "build_circuits", "onion.build_circuits"),
    ("cli", "select_bridges", "censor.select_bridges"),
    ("censor", "run_trial", "censor.run_trial"),
    ("censor", "run_transfer", "onion.run_transfer"),
    ("censor", "build_circuits", "onion.build_circuits"),
    ("censor", "select_bridges", "censor.select_bridges"),
    ("onion", "build_generator", "codec.build_generator"),
    ("onion", "encode_generation", "codec.encode_generation"),
    ("onion", "decode_generation", "codec.decode_generation"),
    ("onion", "split_message", "codec.split_message"),
    ("onion", "reassemble_message", "codec.reassemble_message"),
    ("onion", "wrap_layers", "onion.wrap_layers"),
    ("onion", "peel_layer", "onion.peel_layer"),
    ("onion", "transmit", "onion.transmit"),
)

# byte primitives: codec reaches them through the gf256 module, onion
# through its own by-name import
LEAF_BINDINGS = (
    ("onion", "xor_bytes", "gf256.xor_bytes"),
    ("gf256", "xor_bytes", "gf256.xor_bytes"),
    ("gf256", "scale_bytes", "gf256.scale_bytes"),
)

ROOT_SPAN = "cli"


def _is_systematic(received, params) -> bool:
    """The rule decode_generation uses to skip elimination: all k unit rows arrived."""
    k = params.k
    unit_rows = {
        cell.subflow_index
        for cell in received
        if cell.subflow_index < k
        and cell.coefficients == bytes(cell.subflow_index) + b"\x01" + bytes(k - cell.subflow_index - 1)
    }
    return len(unit_rows) == k


class Tracer:
    """Records spans and counters for every call through an installed binding."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.ops: list[str] = []
        self.fired = {f"{m}.{a}": 0 for m, a, _ in SPAN_BINDINGS + LEAF_BINDINGS}
        # per leaf binding: [calls, ns, computed bytes]
        self.leaf = {f"{m}.{a}": [0, 0, 0] for m, a, _ in LEAF_BINDINGS}
        self.counters = {
            "campaign_trials": 0,
            "message_bytes": 0,
            "cells_offered": 0,
            "cells_delivered": 0,
            "unrecoverable": 0,
        }
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> list[int]:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self.self_ns.append(0)
        frame = [idx, 0]
        self._stack.append(frame)
        return frame

    def _finish(self, frame: list[int], t0: int, t1: int) -> None:
        self._stack.pop()
        idx, child = frame
        self.start[idx] = t0
        self.end[idx] = t1
        self.self_ns[idx] = t1 - t0 - child
        if self._stack:
            self._stack[-1][1] += t1 - t0

    def _new_op(self, label: str) -> int:
        previous = self._op
        self._op = len(self.ops)
        self.ops.append(label)
        return previous

    def call_root(self, fn, argv, label: str):
        """Run one CLI call as a root span that opens a new operation."""
        previous = self._new_op(label)
        frame = self._begin(self._name_id(ROOT_SPAN))
        t0 = perf_counter_ns()
        try:
            return fn(argv)
        finally:
            self._finish(frame, t0, perf_counter_ns())
            self._op = previous

    def _span(self, binding: str, name: str, fn):
        name_id = self._name_id(name)
        fired = self.fired
        counters = self.counters

        if name == "censor.run_campaign":
            # each campaign is one grid point, so it opens its own operation
            def wrapper(scenario, trials, *args, **kwargs):
                fired[binding] += 1
                counters["campaign_trials"] += trials
                pool = scenario.pool
                previous = self._new_op(
                    f"point:{len(pool.known)}:{scenario.variant.value}:{scenario.params.n}:{scenario.params.r}"
                )
                frame = self._begin(name_id)
                t0 = perf_counter_ns()
                try:
                    return fn(scenario, trials, *args, **kwargs)
                finally:
                    self._finish(frame, t0, perf_counter_ns())
                    self._op = previous

            return wrapper

        if name == "codec.decode_generation":
            systematic_id = self._name_id("codec.decode_systematic")
            elimination_id = self._name_id("codec.decode_elimination")
            from ctorsim.codec import UnrecoverableGeneration

            def wrapper(received, params, *args, **kwargs):
                fired[binding] += 1
                frame = self._begin(systematic_id if _is_systematic(received, params) else elimination_id)
                t0 = perf_counter_ns()
                try:
                    return fn(received, params, *args, **kwargs)
                except UnrecoverableGeneration:
                    counters["unrecoverable"] += 1
                    raise
                finally:
                    self._finish(frame, t0, perf_counter_ns())

            return wrapper

        if name == "onion.transmit":
            def wrapper(circuits, coded_generations, *args, **kwargs):
                fired[binding] += 1
                counters["cells_offered"] += sum(len(g) for g in coded_generations)
                frame = self._begin(name_id)
                t0 = perf_counter_ns()
                try:
                    delivered = fn(circuits, coded_generations, *args, **kwargs)
                finally:
                    self._finish(frame, t0, perf_counter_ns())
                counters["cells_delivered"] += len(delivered)
                return delivered

            return wrapper

        if name == "onion.run_transfer":
            def wrapper(variant, params, message, *args, **kwargs):
                fired[binding] += 1
                counters["message_bytes"] += len(message)
                frame = self._begin(name_id)
                t0 = perf_counter_ns()
                try:
                    return fn(variant, params, message, *args, **kwargs)
                finally:
                    self._finish(frame, t0, perf_counter_ns())

            return wrapper

        def wrapper(*args, **kwargs):
            fired[binding] += 1
            frame = self._begin(name_id)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(frame, t0, perf_counter_ns())

        return wrapper

    def _leaf(self, binding: str, fn):
        stats = self.leaf[binding]
        fired = self.fired
        stack = self._stack

        def wrapper(data, other):
            t0 = perf_counter_ns()
            result = fn(data, other)
            elapsed = perf_counter_ns() - t0
            fired[binding] += 1
            stats[0] += 1
            stats[1] += elapsed
            stats[2] += len(data)
            if stack:
                stack[-1][1] += elapsed
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every listed binding with a recording wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, name in SPAN_BINDINGS:
                module = importlib.import_module(f"ctorsim.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._span(f"{module_name}.{attr}", name, original))
            for module_name, attr, _ in LEAF_BINDINGS:
                module = importlib.import_module(f"ctorsim.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._leaf(f"{module_name}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, inclusive seconds and self seconds."""
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for name_id, t0, t1, own in zip(self.name, self.start, self.end, self.self_ns):
            entry = totals[self.names[name_id]]
            entry["calls"] += 1
            entry["s"] += (t1 - t0) / 1e9
            entry["self_s"] += own / 1e9
        for module_name, attr, name in LEAF_BINDINGS:
            calls, ns, _ = self.leaf[f"{module_name}.{attr}"]
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["s"] += ns / 1e9
            entry["self_s"] += ns / 1e9
        return totals

    def leaf_bytes(self, name: str) -> int:
        return sum(
            self.leaf[f"{m}.{a}"][2] for m, a, leaf_name in LEAF_BINDINGS if leaf_name == name
        )

    def unfired(self) -> list[str]:
        return sorted(binding for binding, count in self.fired.items() if count == 0)

    def write(self, path) -> None:
        """Write every span as CSV: id, parent, op, name, start_ns, end_ns, self_ns."""
        with open(path, "w") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns,self_ns\n")
            names, ops = self.names, self.ops
            for idx, (name_id, parent, op, t0, t1, own) in enumerate(
                zip(self.name, self.parent, self.op, self.start, self.end, self.self_ns)
            ):
                fh.write(f"{idx},{parent},{ops[op] if op >= 0 else ''},{names[name_id]},{t0},{t1},{own}\n")
