"""In-memory span tracing of the stgf layers, from outside the package.

``instrument`` replaces every public function of each layer module with a
wrapper, at every module attribute that names it: the defining module, each
module that imported it with ``from .x import f``, and the ``stgf`` package
namespace. Callers look a function up by module attribute at call time, so
every call made through the package is seen and ``src/stgf`` is not edited.
Two methods that callers reach through the ``Tape`` class are wrapped on the
class.

A span is ``[name, start, end, parent, nodes]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``nodes`` the number of tape nodes
the call appended when its first argument is a ``Tape`` (else -1). Spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("autodiff", "model", "graphs", "training", "checkpoint", "data", "synth", "cli")

# as_tensor runs once per tape leaf; a span there would cost more than it times
UNTRACED = frozenset({"autodiff.as_tensor"})

# (layer, class, method) reached through the class by every caller
METHODS = (
    ("autodiff", "Tape", "backward"),
    ("autodiff", "Tape", "accumulate_param_grads"),
)


class Tracer:
    """Records one span per wrapped call; single-threaded, like the tape."""

    def __init__(self, tape_type: type) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._tape_type = tape_type

    def wrap(self, name: str, fn):
        spans, stack, tape_type = self.spans, self._stack, self._tape_type
        # a function with a ``view`` argument gets one span name per view
        params = list(inspect.signature(fn).parameters)
        view_at = params.index("view") if "view" in params else -1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if view_at >= 0:
                view = args[view_at] if len(args) > view_at else kwargs.get("view")
                label = f"{name}[{view}]"
            tape = args[0] if args and type(args[0]) is tape_type else None
            before = len(tape.nodes) if tape is not None else 0
            index = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if tape is not None:
                    span[4] = len(tape.nodes) - before

        return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced stgf call through ``tracer`` until the block exits."""
    package = importlib.import_module("stgf")
    modules = {f"stgf.{layer}": importlib.import_module(f"stgf.{layer}") for layer in LAYERS}
    wrappers: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []
    try:
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in modules:
                    continue
                name = f"{obj.__module__.removeprefix('stgf.')}.{obj.__name__}"
                if name in UNTRACED:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = tracer.wrap(name, obj)
                undo.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[f"stgf.{layer}"], cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ------------------------------------------------------------------ analysis


class SpanIndex:
    """Durations, self times and parent links of a finished span list, in ms."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.ms = [(s[2] - s[1]) * 1e3 for s in spans]
        child_ms = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[0]].append(i)
            if span[3] >= 0:
                child_ms[span[3]] += self.ms[i]
        self.self_ms = [total - child for total, child in zip(self.ms, child_ms)]

    def ids(self, name: str, parent: str | None = None) -> list[int]:
        found = self.by_name.get(name, [])
        if parent is None:
            return found
        spans = self.spans
        return [i for i in found if spans[i][3] >= 0 and spans[spans[i][3]][0] == parent]

    def count(self, name: str, parent: str | None = None) -> int:
        return len(self.ids(name, parent))

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.ms[i] for i in self.ids(name, parent))

    def median(self, name: str, parent: str | None = None, own: bool = False) -> float:
        times = self.self_ms if own else self.ms
        values = [times[i] for i in self.ids(name, parent)]
        return statistics.median(values) if values else 0.0

    def nodes(self, name: str) -> int:
        return sum(self.spans[i][4] for i in self.ids(name) if self.spans[i][4] > 0)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in ms."""
        return {
            name: {
                "count": len(ids),
                "total_ms": sum(self.ms[i] for i in ids),
                "self_ms": sum(self.self_ms[i] for i in ids),
            }
            for name, ids in sorted(self.by_name.items())
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _step_gaps_ms(index: SpanIndex) -> list[float]:
    """Gaps between successive ``adam_step`` returns inside one ``train`` call."""
    ends: dict[int, list[float]] = defaultdict(list)
    for i in index.ids("training.adam_step"):
        ends[index.spans[i][3]].append(index.spans[i][2])
    gaps = []
    for times in ends.values():
        gaps += [(b - a) * 1e3 for a, b in zip(times, times[1:])]
    return gaps


def _train_coverage(index: SpanIndex) -> float:
    """Share of ``train`` wall time covered by its direct child spans."""
    trains = set(index.ids("training.train"))
    covered = sum(index.ms[i] for i, s in enumerate(index.spans) if s[3] in trains)
    return _ratio(covered, sum(index.ms[i] for i in trains))


# model_forward's child blocks, by the span each one records
MODEL_BLOCKS = {
    "cgcn_local": "model.cgcn_forward[local]",
    "cgcn_global": "model.cgcn_forward[global]",
    "external": "model.external_encode",
    "lstm": "model.lstm_cell",
    "adaptive_adj": "graphs.adaptive_adjacency",
}


def timing_metrics(index: SpanIndex) -> dict[str, float]:
    """Per-layer times from a traced run, in ms unless the name says otherwise."""
    forwards = index.count("model.model_forward")
    steps = index.count("training.adam_step")
    forward_ms = _ratio(index.total("model.model_forward"), forwards)
    out = {
        "autodiff.backward_ms_per_sample": _ratio(
            index.total("autodiff.Tape.backward"), index.count("autodiff.Tape.backward")
        ),
        "autodiff.accumulate_ms_per_sample": _ratio(
            index.total("autodiff.Tape.accumulate_param_grads"),
            index.count("autodiff.Tape.backward"),
        ),
        "model.forward_ms_per_sample": forward_ms,
    }
    blocks_ms = 0.0
    for block, span in MODEL_BLOCKS.items():
        ms = _ratio(index.total(span, "model.model_forward"), forwards)
        out[f"model.{block}_ms_per_sample"] = ms
        blocks_ms += ms
    out["model.self_ms_per_sample"] = forward_ms - blocks_ms

    gaps = _step_gaps_ms(index)
    epochs = index.count("training.mean_sample_mse", "training.train")
    evaluated = index.count("model.model_forward", "training.evaluate")
    build = index.count("graphs.build_local_adjacency")
    out.update(
        {
            "training.step_ms_p50": _percentile(gaps, 50),
            "training.step_ms_p90": _percentile(gaps, 90),
            "training.clip_ms_per_step": _ratio(index.total("training.clip_gradients"), steps),
            "training.adam_ms_per_step": _ratio(index.total("training.adam_step"), steps),
            "training.val_ms_per_epoch": _ratio(
                index.total("training.mean_sample_mse", "training.train"), epochs
            ),
            "training.evaluate_self_ms_per_sample": _ratio(
                sum(index.self_ms[i] for i in index.ids("training.evaluate")), evaluated
            ),
            "training.ha_baseline_ms": index.median("training.ha_baseline"),
            "checkpoint.save_ms": index.median("checkpoint.save_checkpoint", "training.train"),
            "checkpoint.saves_per_epoch": _ratio(
                index.count("checkpoint.save_checkpoint", "training.train"), epochs
            ),
            "checkpoint.load_ms": index.median("checkpoint.load_checkpoint"),
            "data.load_dataset_ms": index.median("data.load_dataset"),
            "data.make_windows_ms": index.median("data.make_windows"),
            "data.prepare_samples_ms": index.median("data.prepare_samples"),
            "graphs.local_adjacency_ms": _ratio(
                index.total("graphs.build_local_adjacency")
                + index.total("graphs.normalize_adjacency"),
                build,
            ),
            "synth.generate_ms": index.median("synth.generate_synthetic"),
            "cli.predict_self_ms": index.median("cli.cmd_predict", own=True),
            "cli.eval_self_ms": index.median("cli.cmd_eval", own=True),
            "trace.train_coverage": _train_coverage(index),
        }
    )
    return out


def tape_counts(tape, params, probe: SpanIndex) -> dict[str, float]:
    """Counts from one finished sample tape, read through ``Tape.nodes``.

    ``probe`` holds the spans recorded while that tape was built; their node
    deltas attribute the tape's nodes to model blocks. A node attribute that
    no longer exists counts as 0.
    """
    nodes = list(tape.nodes)
    param_arrays = [p.value for p in params]
    grad_bytes = sum(getattr(getattr(n, "grad", None), "nbytes", 0) for n in nodes)
    leaf_bytes = 0
    flops = 0
    for n in nodes:
        # a leaf that aliases no parameter is a per-sample copy
        if not n.input_ids and not any(np.may_share_memory(n.value, p) for p in param_arrays):
            leaf_bytes += n.value.nbytes
        if "matmul" in n.op:
            flops += 2 * n.value.size * nodes[n.input_ids[0]].value.shape[-1]
    out = {
        "autodiff.nodes_per_sample": float(len(nodes)),
        "autodiff.grad_bytes_per_sample": float(grad_bytes),
        "autodiff.leaf_copy_bytes_per_sample": float(leaf_bytes),
        "autodiff.matmul_mflop_per_sample": flops / 1e6,
    }
    block_nodes = {block: probe.nodes(span) for block, span in MODEL_BLOCKS.items()}
    block_nodes["cgcn"] = block_nodes.pop("cgcn_local") + block_nodes.pop("cgcn_global")
    block_nodes["self"] = probe.nodes("model.model_forward") - sum(block_nodes.values())
    out.update({f"model.{b}_nodes_per_sample": float(n) for b, n in block_nodes.items()})
    return out
