"""Outside-in tracer for the shiftcp layers.

The tracer wraps public functions of the package from outside: nothing under
``src/`` knows it exists. Plain functions are replaced in every ``shiftcp.*``
module namespace that holds them, because the CLI binds them with
``from .x import y``; ``logit_matrix`` and the ``RngStream`` methods are
wrapped on their classes. Each call becomes one span (name, start, end,
parent, root, thread), kept in memory under a lock and written out when the
benchmark ends.

Spans started on a thread with no open span (the sweep's worker threads) take
as parent the innermost open span of the thread that installed the tracer,
which is the call that handed them the work. A span's self time is its
duration minus the part of it covered by its child spans, on any thread.

A listed function that the package no longer has is recorded in
``Tracer.missing`` and its metrics read zero.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
from dataclasses import dataclass
from functools import wraps
from time import perf_counter

# (layer, module under shiftcp, function or Class.method). The layer is the
# module that owns the work; LogitTableMap lives in synthetic but computes
# logits, so its logit_matrix belongs to scores.
TRACED = (
    ("rng", "rng", "RngStream.substream"),
    ("rng", "rng", "RngStream.generator"),
    ("synthetic", "synthetic", "generate_source"),
    ("synthetic", "synthetic", "apply_shift"),
    ("synthetic", "synthetic", "train_classifier"),
    ("synthetic", "synthetic", "load_logit_table"),
    ("scores", "scores", "LinearLogitMap.logit_matrix"),
    ("scores", "synthetic", "LogitTableMap.logit_matrix"),
    ("scores", "scores", "score"),
    ("scores", "scores", "predict"),
    ("scores", "scores", "predictive_entropy"),
    ("scores", "scores", "population_ramp_loss"),
    ("scores", "scores", "population_hinge_loss"),
    ("conformal", "conformal", "calibrate"),
    ("conformal", "conformal", "coverage"),
    ("conformal", "conformal", "expected_set_size"),
    ("conformal", "conformal", "integrated_coverage_gap"),
    ("pseudo", "pseudo", "pseudo_calibrate"),
    ("pseudo", "pseudo", "source_tuned_calibrate"),
    ("pseudo", "pseudo", "select_u_star"),
    ("shift_bounds", "shift_bounds", "w1_1d"),
    ("shift_bounds", "shift_bounds", "w1_assignment_subsampled"),
    ("shift_bounds", "shift_bounds", "sup_density_estimate"),
    ("shift_bounds", "shift_bounds", "undercoverage_gap_estimate"),
    ("shift_bounds", "shift_bounds", "tau_correction"),
    ("cli", "cli", "run_sweep"),
    ("cli", "cli", "run_trial"),
    ("cli", "cli", "make_trial_data"),
    ("cli", "cli", "replay_audit"),
    ("cli", "cli", "run_bounds_report"),
    ("cli", "cli", "run_sweep_from_table"),
    ("cli", "cli", "write_records_csv"),
    ("cli", "cli", "write_aggregate_csv"),
    ("cli", "cli", "_write_json"),
    ("cli", "cli", "read_records_csv"),
)

CLI_IO = ("cli._write_json", "cli.read_records_csv", "cli.write_aggregate_csv", "cli.write_records_csv")


def _rows(value) -> int:
    return int(getattr(value, "shape", (len(value),))[0])


def _grid_points(result) -> int:
    return len(result[0].coverage_curve)


def _is_fallback(curve, alpha) -> int:
    return int(not any(c >= 1.0 - alpha for _, c in curve))


# What a span records besides its timing: the parameters it reads (None for
# the return value) and the reducer applied to them. Parameters are found by
# name in the function's signature, so keyword and positional calls both work.
MEASURES = {
    "scores.LinearLogitMap.logit_matrix": (None, _rows),
    "scores.LogitTableMap.logit_matrix": (None, _rows),
    "synthetic.generate_source": (("n",), int),
    "synthetic.train_classifier": (("x",), _rows),
    "synthetic.load_logit_table": (None, lambda table: _rows(table.logits)),
    "conformal.coverage": (("x",), _rows),
    "conformal.expected_set_size": (("x",), _rows),
    "pseudo.source_tuned_calibrate": (None, _grid_points),
    "pseudo.select_u_star": (("curve", "alpha"), _is_fallback),
    "shift_bounds.w1_assignment_subsampled": (("a", "max_points"), lambda a, m: (_rows(a), min(_rows(a), m))),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    root: int
    thread: int
    error: str | None
    extra: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _argument_reader(fn, names):
    """Function returning the call's values of ``names`` (defaults applied).

    ``names`` of None reads the return value instead; a name the signature
    lacks yields None, so the span records no measure.
    """
    if names is None:
        return lambda args, kwargs, result: [result]
    params = inspect.signature(fn).parameters
    if not set(names) <= set(params):
        return None
    order = list(params)
    slots = [(order.index(name), name, params[name].default) for name in names]

    def read(args, kwargs, result):
        return [args[i] if i < len(args) else kwargs.get(name, default) for i, name, default in slots]

    return read


class Tracer:
    """Span recorder; :meth:`install` wraps the listed functions, :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op_id = 0
        self._op_start = 0.0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        owner = self._owner_stack
        try:
            return owner[-1]
        except IndexError:
            return self.op_id

    def begin_op(self) -> int:
        """Open the root span of one traced CLI call on the calling thread."""
        self._owner_stack = self._stack()
        self.op_id = self._new_id()
        self._owner_stack.append(self.op_id)
        self._op_start = perf_counter()
        return self.op_id

    def end_op(self) -> None:
        end = perf_counter()
        self._owner_stack.pop()
        self._record(Span(self.op_id, "op", self._op_start, end, 0, self.op_id, threading.get_ident(), None, None))

    def _wrap(self, name: str, fn):
        tracer = self
        names, reduce = MEASURES.get(name, (None, None))
        read = _argument_reader(fn, names) if reduce is not None else None

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = tracer._new_id()
            stack.append(sid)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                extra = None
                if read is not None and error is None:
                    try:
                        extra = reduce(*read(args, kwargs, result))
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        pass  # the program changed shape; the span keeps its timing
                tracer._record(Span(sid, name, start, end, parent, tracer.op_id, threading.get_ident(), error, extra))

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for layer, module_name, qualname in TRACED:
            name = f"{layer}.{qualname}"
            try:
                module = importlib.import_module(f"shiftcp.{module_name}")
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(cls, attr, self._wrap(name, original))
                self._restore.append((cls, attr, original))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "shiftcp" or mod_name.startswith("shiftcp.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        threads = {}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                row = {**vars(s), "thread": threads.setdefault(s.thread, len(threads))}
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Analysis


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    total = 0.0
    cursor = lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered((s.start, s.end), children.get(s.id, [])) for s in spans}


def thread_self_sums(spans: list[Span]) -> dict[int, float]:
    """Per-thread sum of span self times, spans of the program and op roots alike."""
    own = self_times(spans)
    sums: dict[int, float] = {}
    for s in spans:
        sums[s.thread] = sums.get(s.thread, 0.0) + own[s.id]
    return sums


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], ops: int, items_per_op: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics of ``ops`` traced CLI calls, each ``(value, unit, base)``.

    Times and counts are per traced call. ``spans`` must hold every span of
    those calls, op roots included.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    program = [s for s in spans if s.name != "op"]
    by_name: dict[str, list[Span]] = {}
    for s in program:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total(values):
        return float(sum(values))

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def extras(name):
        return [s.extra for s in calls(name) if s.extra is not None]

    def self_s(layer):
        return per_op(total(own[s.id] for s in program if s.layer == layer))

    def inclusive_s(*names):
        return per_op(total(s.duration for name in names for s in calls(name)))

    def busy_s(layer):
        # Spans of the layer with no ancestor of the same layer: their union
        # on each thread is the time the layer was busy there.
        top = []
        for s in program:
            if s.layer != layer:
                continue
            parent = by_id.get(s.parent)
            while parent is not None and parent.layer != layer:
                parent = by_id.get(parent.parent)
            if parent is None:
                top.append(s)
        return per_op(total(s.duration for s in top))

    logit_names = ("scores.LinearLogitMap.logit_matrix", "scores.LogitTableMap.logit_matrix")
    logit_calls = sum(len(calls(n)) for n in logit_names)
    logit_rows = sum(sum(extras(n)) for n in logit_names)
    generated = sum(extras("synthetic.generate_source"))
    trained = sum(extras("synthetic.train_classifier"))
    ingested = sum(extras("synthetic.load_logit_table"))
    input_rows = generated - trained + ingested
    coverage_rows = sum(extras("conformal.coverage"))
    eval_rows = coverage_rows + sum(extras("conformal.expected_set_size"))
    tune_ms = [1e3 * s.duration for s in calls("pseudo.source_tuned_calibrate")]
    tunings = len(tune_ms)
    fallbacks = sum(extras("pseudo.select_u_star"))
    assignment = extras("shift_bounds.w1_assignment_subsampled")
    points_given = sum(g for g, _ in assignment)
    points_used = sum(u for _, u in assignment)
    tau_calls = calls("shift_bounds.tau_correction")
    tau_failures = sum(1 for s in tau_calls if s.error is not None)
    items = ops * items_per_op

    return {
        "rng.generator_calls": (per_op(len(calls("rng.RngStream.generator"))), "count", "per CLI call"),
        "rng.substream_calls": (per_op(len(calls("rng.RngStream.substream"))), "count", "per CLI call"),
        "rng.self_s": (self_s("rng"), "s", "per CLI call"),
        "synthetic.self_s": (self_s("synthetic"), "s", "per CLI call"),
        "synthetic.apply_shift_s": (inclusive_s("synthetic.apply_shift"), "s", "per CLI call"),
        "synthetic.rows_generated": (per_op(generated), "count", "generate_source rows per CLI call"),
        "synthetic.rows_per_eval_row": (
            ratio(generated, coverage_rows),
            "ratio",
            f"{generated} rows generated / {coverage_rows} rows evaluated by coverage",
        ),
        "synthetic.train_s": (inclusive_s("synthetic.train_classifier"), "s", "per CLI call"),
        "cli.make_trial_data_per_item": (
            ratio(len(calls("cli.make_trial_data")), items),
            "ratio",
            f"{len(calls('cli.make_trial_data'))} calls / {items} items",
        ),
        "scores.logit_calls_per_item": (ratio(logit_calls, items), "ratio", f"{logit_calls} calls / {items} items"),
        "scores.logit_rows_per_input_row": (
            ratio(logit_rows, input_rows),
            "ratio",
            f"{logit_rows} logit rows / {input_rows} input rows (generated - trained + ingested)",
        ),
        "scores.self_s": (self_s("scores"), "s", "per CLI call"),
        "conformal.calibrate_calls": (per_op(len(calls("conformal.calibrate"))), "count", "per CLI call"),
        "conformal.eval_rows": (per_op(eval_rows), "count", "coverage + expected_set_size rows per CLI call"),
        "conformal.eval_s": (inclusive_s("conformal.coverage", "conformal.expected_set_size"), "s", "per CLI call"),
        "conformal.self_s": (self_s("conformal"), "s", "per CLI call"),
        "pseudo.busy_s": (busy_s("pseudo"), "s", "per CLI call"),
        "pseudo.self_s": (self_s("pseudo"), "s", "per CLI call"),
        "pseudo.tune_ms_p50": (percentile(tune_ms, 50), "ms", f"{tunings} source_tuned_calibrate calls"),
        "pseudo.tune_ms_p99": (percentile(tune_ms, 99), "ms", f"{tunings} source_tuned_calibrate calls"),
        "pseudo.grid_points": (per_op(sum(extras("pseudo.source_tuned_calibrate"))), "count", "per CLI call"),
        "pseudo.fallback_ratio": (ratio(fallbacks, tunings), "ratio", f"{fallbacks} fallbacks / {tunings} tuning calls"),
        "shift_bounds.self_s": (self_s("shift_bounds"), "s", "per CLI call"),
        "shift_bounds.assignment_calls": (per_op(len(calls("shift_bounds.w1_assignment_subsampled"))), "count", "per CLI call"),
        "shift_bounds.assignment_s": (inclusive_s("shift_bounds.w1_assignment_subsampled"), "s", "per CLI call"),
        "shift_bounds.assignment_points_used_ratio": (
            ratio(points_used, points_given),
            "ratio",
            f"{points_used} points solved / {points_given} points given",
        ),
        "shift_bounds.tau_rule_failures": (
            per_op(tau_failures),
            "count",
            f"per CLI call; {tau_failures} failed / {len(tau_calls)} tau_correction calls",
        ),
        "cli.self_s": (self_s("cli"), "s", "per CLI call"),
        "cli.io_s": (inclusive_s(*CLI_IO), "s", "per CLI call"),
    }
