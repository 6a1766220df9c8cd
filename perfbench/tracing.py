"""Spans and counts around the package's layer functions, for the traced run.

The wrappers are installed on every module attribute through which the
package calls a layer function (``cli.parse`` as well as ``textio.parse``),
and on the ``__init__`` of the two hot model classes.  They record nothing
outside an operation, so set-up and the benchmark's own checks do not
count.  ``installed`` puts every original attribute back on exit.

A hook that looks at a call's data (bytes parsed, bit lengths of the Smith
transforms) runs when the operation has ended, from the saved arguments and
result, so that its cost is in no span's self time.  What runs inside the
operation is the span bookkeeping and, on an exception, one O(1) count.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
operation id) and written out at the end of the run.  A span's self time is
its duration minus the time covered by the spans whose parent it is.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from pathlib import Path

#: Every per-layer metric the traced run reports, with its unit.  Counts
#: and self times are per pass over the workload's fixed op set.
LAYER_METRICS = (
    ("textio.parse.calls", "count"),
    ("textio.parse.self_s", "s"),
    ("textio.parse.bytes", "bytes"),
    ("textio.parse.errors", "count"),
    ("textio.print.calls", "count"),
    ("textio.print.self_s", "s"),
    ("textio.print.bytes", "bytes"),
    ("model.round_built", "count"),
    ("model.lk_built", "count"),
    ("model.build.self_s", "s"),
    ("model.validate.calls", "count"),
    ("model.validate.self_s", "s"),
    ("bridge.to_dehn.calls", "count"),
    ("bridge.to_dehn.self_s", "s"),
    ("bridge.to_round.calls", "count"),
    ("bridge.to_round.self_s", "s"),
    ("bridge.kirby.calls", "count"),
    ("bridge.kirby.self_s", "s"),
    ("bridge.errors", "count"),
    ("moves.search.calls", "count"),
    ("moves.search.self_s", "s"),
    ("moves.apply.calls", "count"),
    ("moves.apply.rejected", "count"),
    ("moves.apply.useful_ratio", "ratio"),
    ("moves.apply.self_s", "s"),
    ("moves.apply_per_query", "count"),
    ("homology.first_homology.calls", "count"),
    ("homology.first_homology.self_s", "s"),
    ("homology.snf.calls", "count"),
    ("homology.snf.self_s", "s"),
    ("homology.snf.max_dim", "count"),
    ("homology.snf.peak_bits", "bits"),
    ("homology.det.calls", "count"),
    ("homology.det.self_s", "s"),
    ("analysis.calls", "count"),
    ("analysis.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.nonzero_exit", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: Span names whose calls and self time are reported.
SPANS = (
    "textio.parse", "textio.print", "model.validate", "bridge.to_dehn", "bridge.to_round",
    "bridge.kirby", "moves.search", "moves.apply", "homology.first_homology", "homology.snf",
    "homology.det", "analysis", "cli.main",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.missing: list[str] = []
        self.op_id = -1  # -1 outside an operation: nothing is recorded
        self._stack: list[int] = []
        self._pending: list[tuple] = []  # (hook, *arguments), run at end_op
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _open(self, nid: int) -> int:
        ix = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(ix)
        self.start.append(time.perf_counter())
        return ix

    def _close(self, ix: int) -> None:
        self.end[ix] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._open(self.name_id("op"))

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.op_id = -1
        for hook, *arguments in self._pending:
            hook(*arguments)
        self._pending.clear()

    def wrap(self, fn, name: str, on_call=None, on_return=None, on_raise=None):
        """A function that calls fn inside a span named name.  on_call(args)
        and on_return(args, result) run at end_op; on_raise(exc) runs at
        once and must be O(1), because its time falls in the parent span."""
        nid = self.name_id(name)
        pending = self._pending

        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            if on_call is not None:
                pending.append((on_call, args))
            ix = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(ix)
                if on_raise is not None:
                    on_raise(exc)
                raise
            self._close(ix)
            if on_return is not None:
                pending.append((on_return, args, result))
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    @contextlib.contextmanager
    def installed(self, pkg):
        """Wrap every target while the block runs; restore on exit."""
        self.missing = []
        try:
            for owner, attr, name, hooks in _targets(self, pkg):
                if isinstance(owner, type):
                    if attr not in vars(owner):
                        self.missing.append(f"{owner.__name__}.{attr}")
                        continue
                    self._replace(owner, attr, self.wrap(vars(owner)[attr], name, **hooks))
                    continue
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                wrapped = self.wrap(fn, name, **hooks)
                for module in pkg.modules():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._replace(module, key, wrapped)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        covered = [0.0] * len(self.name)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(covered)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, nid in enumerate(self.name):
            key = self.names[nid]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + (end[i] - start[i]) - covered[i]
        return calls, self_s

    def layer_metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = calls.get(span, 0) / passes
            out[f"{span}.self_s"] = self_s.get(span, 0.0) / passes
        out["model.round_built"] = calls.get("model.round_build", 0) / passes
        out["model.lk_built"] = calls.get("model.lk_build", 0) / passes
        out["model.build.self_s"] = (self_s.get("model.round_build", 0.0) + self_s.get("model.lk_build", 0.0)) / passes
        for key in ("textio.parse.bytes", "textio.parse.errors", "textio.print.bytes", "bridge.errors",
                    "moves.apply.rejected", "cli.main.nonzero_exit"):
            out[key] = self.counts.get(key, 0) / passes
        applied = calls.get("moves.apply", 0)
        accepted = applied - self.counts.get("moves.apply.rejected", 0)
        out["moves.apply.useful_ratio"] = accepted / applied if applied else 0.0
        searches = calls.get("moves.search", 0)
        out["moves.apply_per_query"] = applied / searches if searches else 0.0
        out["homology.snf.max_dim"] = self.maxima.get("homology.snf.max_dim", 0)
        out["homology.snf.peak_bits"] = self.maxima.get("homology.snf.peak_bits", 0)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name, _unit in LAYER_METRICS}

    def write(self, path: Path) -> None:
        """Spans as raw arrays (name, start, end, parent, op, in that order)
        next to a JSON header that names them."""
        with open(path.with_suffix(".spans"), "wb") as f:
            for arr in (self.name, self.start, self.end, self.parent, self.op):
                arr.tofile(f)
        header = {
            "spans": len(self.name),
            "names": self.names,
            "arrays": [["name", self.name.typecode], ["start", "d"], ["end", "d"],
                       ["parent", self.parent.typecode], ["op", self.op.typecode]],
            "byteorder": sys.byteorder,
            "counts": self.counts,
            "maxima": self.maxima,
            "missing_targets": self.missing,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def _targets(t: Tracer, pkg):
    """(owner, attribute, span name, hooks) for every wrapped function."""
    parse_error = pkg.textio.ParseError
    move_error = pkg.moves.MoveError
    bridge_error = pkg.bridge.BridgeError

    def on_bridge_error(exc):
        if isinstance(exc, bridge_error):
            t.count("bridge.errors")

    def snf_sizes(args, result):
        m, (_d, u, v) = args[0], result
        t.peak("homology.snf.max_dim", max(len(m), len(m[0]) if m else 0))
        t.peak("homology.snf.peak_bits", max((x.bit_length() for w in (u, v) for row in w for x in row), default=0))

    bridge = {"on_raise": on_bridge_error}
    return [
        (pkg.textio, "parse", "textio.parse", {
            "on_call": lambda a: t.count("textio.parse.bytes", len(a[0].encode())),
            "on_raise": lambda e: isinstance(e, parse_error) and t.count("textio.parse.errors"),
        }),
        (pkg.textio, "print_diagram", "textio.print", {
            "on_return": lambda a, r: t.count("textio.print.bytes", len(r.encode())),
        }),
        (pkg.model.RoundDiagram, "__init__", "model.round_build", {}),
        (pkg.model.LinkingMatrix, "__init__", "model.lk_build", {}),
        (pkg.model, "validate_diagram", "model.validate", {}),
        (pkg.bridge, "validate_kirby", "model.validate", {}),
        (pkg.bridge, "joint_pair_to_dehn", "bridge.to_dehn", bridge),
        (pkg.bridge, "dehn_to_joint_pairs", "bridge.to_round", bridge),
        (pkg.bridge, "round1_to_kirby", "bridge.kirby", bridge),
        (pkg.bridge, "kirby_to_round1", "bridge.kirby", bridge),
        (pkg.moves, "bounded_equivalence_search", "moves.search", {}),
        (pkg.moves, "apply_move", "moves.apply", {
            "on_raise": lambda e: isinstance(e, move_error) and t.count("moves.apply.rejected"),
        }),
        (pkg.homology, "first_homology", "homology.first_homology", {}),
        (pkg.homology, "smith_normal_form", "homology.snf", {"on_return": snf_sizes}),
        (pkg.homology, "determinant", "homology.det", {}),
        (pkg.analysis, "is_trivial", "analysis", {}),
        (pkg.analysis, "split_connected_sum", "analysis", {}),
        (pkg.analysis, "suture_slope", "analysis", {}),
        (pkg.analysis, "taut_foliation_family", "analysis", {}),
        (pkg.analysis, "tight_contact_exists", "analysis", {}),
        (pkg.cli, "main", "cli.main", {"on_return": lambda a, r: r != 0 and t.count("cli.main.nonzero_exit")}),
    ]
