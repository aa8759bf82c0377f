"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of every ``sumparts`` module (the
names in each module's ``__all__``, plus ``cli.main`` and the ``linprog`` that
``certificates`` imports) and records one span per call: name, start, end,
parent span, inside one run id.  The wrappers are installed by rebinding the
names in every ``sumparts`` module namespace that holds them, and in every
module-level dict that holds them (``ops._ROW_MODES`` maps mode names to
``softmax`` and ``sparsemax``), so calls between modules cannot escape the
trace.  :meth:`Tracer.restore` puts every original back.

Each public faithfulness function that receives a model callable gets that
callable wrapped as well, so every probe of the model is a ``probe`` span and
its input is counted towards the distinct-probe ratio.

No file of the program changes; spans are kept in memory, one compact buffer
per thread, and written out by the caller at the end.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("ops", "model", "training", "faithfulness", "certificates", "structures",
          "serialize", "cli")
# names bound in a layer that its __all__ does not list
EXTRA_NAMES = {"cli": ("main",), "certificates": ("linprog",)}
PROBE = "probe"

# per-layer metrics, name -> unit; every traced run reports all of them
# (0 on a layer the workload does not reach)
PER_LAYER_UNITS = {
    "certificates.lp_build_s": "s",
    "certificates.lp_solve_s": "s",
    "certificates.lp_rows": "count",
    "certificates.lp_nonzeros": "count",
    "certificates.lp_iterations": "count",
    "certificates.scan_s": "s",
    "certificates.verify_s": "s",
    "certificates.fit_s": "s",
    "faithfulness.probes": "count",
    "faithfulness.probe_s": "s",
    "faithfulness.self_s": "s",
    "faithfulness.distinct_probe_ratio": "ratio",
    "faithfulness.curve_ms_per_pair": "ms",
    "model.forward_calls": "count",
    "model.forward_s": "s",
    "model.forward_ms_per_call": "ms",
    "model.pool_s": "s",
    "model.generate_s": "s",
    "model.embed_s": "s",
    "model.embed_rows": "count",
    "model.select_s": "s",
    "ops.sparsemax_calls": "count",
    "ops.sparsemax_s": "s",
    "ops.sparsemax_vjp_calls": "count",
    "ops.sparsemax_vjp_s": "s",
    "ops.softmax_calls": "count",
    "training.grad_calls": "count",
    "training.grad_s": "s",
    "training.grad_self_s": "s",
    "training.grad_ms_per_example": "ms",
    "training.accuracy_s": "s",
    "structures.load_s": "s",
    "structures.label_calls": "count",
    "structures.label_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes_written": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _public_functions(module, layer):
    names = list(getattr(module, "__all__", ())) + list(EXTRA_NAMES.get(layer, ()))
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn):
            yield name, fn


class _Buffer:
    """Spans recorded by one thread, as parallel typed arrays."""

    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._probe_keys: set[tuple[int, int]] = set()
        self._probe_index = self._name_index(PROBE)

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = self._local.buffer = _Buffer()
            self._buffers.append(buf)  # list.append is atomic
        return buf

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _call(self, name_index, fn, args, kwargs):
        buf = self._buffer()
        # a worker thread of the CLI's pool starts with an empty stack; its
        # spans belong to the command that the main thread is running
        if buf.stack:
            parent = buf.stack[-1]
        else:
            parent = self._main.stack[0] if self._main.stack else 0
        span = next(self._ids)
        buf.stack.append(span)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            buf.stack.pop()
            buf.ids.append(span)
            buf.parents.append(parent)
            buf.names.append(name_index)
            buf.starts.append(start)
            buf.ends.append(end)

    def _count(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def _wrap(self, layer: str, name: str, fn):
        index = self._name_index(f"{layer}.{name}")
        after = _AFTER.get(f"{layer}.{name}")
        signature = inspect.signature(fn)
        # the program passes the model to every faithfulness function as the
        # first positional argument, followed by the input being explained
        wraps_model = layer == "faithfulness" and \
            list(signature.parameters)[:1] in (["f"], ["model"])

        def wrapper(*args, **kwargs):
            if wraps_model and not hasattr(args[0], "__bench_probe__"):
                args = (self._probe(args[0], args[1]),) + args[1:]
            result = self._call(index, fn, args, kwargs)
            if after is not None:
                after(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        wrapper.__bench_wrapper__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _probe(self, model, x):
        example = hash(np.asarray(x, dtype=np.float64).tobytes())

        def probe(v, *args, **kwargs):
            self._probe_keys.add(
                (example, hash(np.asarray(v, dtype=np.float64).tobytes())))
            return self._call(self._probe_index, model, (v,) + args, kwargs)

        probe.__bench_probe__ = True
        return probe

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        """Wrap every public function and rebind every name that holds it."""
        import sumparts.cli  # noqa: F401  (loads every layer)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"sumparts.{layer}"]
            for name, fn in _public_functions(module, layer):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for module in _program_modules():
            for key, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, key, value, False))
                    setattr(module, key, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            self._patches.append((value, k, v, True))
                            value[k] = wrappers[id(v)][1]

    def restore(self) -> None:
        for target, key, original, is_item in reversed(self._patches):
            if is_item:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns: id, parent, name index, start, end."""
        columns = {}
        for key, attr, dtype in (("id", "ids", np.int64), ("parent", "parents", np.int64),
                                 ("name", "names", np.int32), ("start", "starts", float),
                                 ("end", "ends", float)):
            columns[key] = np.concatenate(
                [np.frombuffer(getattr(b, attr), dtype=dtype) for b in self._buffers])
        return columns

    def to_json(self) -> dict:
        cols = self.spans()
        return {"run_id": self.run_id, "names": self.names,
                "spans": {k: v.tolist() for k, v in cols.items()}}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of :data:`PER_LAYER_UNITS` from the recorded spans
        (all but ``trace.overhead_s``, which needs an untraced pass)."""
        cols = self.spans()
        names = np.array(self.names, dtype=object)[cols["name"]]
        duration = cols["end"] - cols["start"]
        self_time = duration - _child_coverage(cols)

        dur, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for name, dt, st in zip(names.tolist(), duration.tolist(), self_time.tolist()):
            dur[name] += dt
            self_s[name] += st
            calls[name] += 1

        def layer_self(layer, exclude=()):
            return sum(v for k, v in self_s.items()
                       if k.split(".")[0] == layer and k not in exclude)

        c = self.counters

        def per(total, count):
            return total / count if count else 0.0

        loads = ("structures.load_map_csv", "structures.load_map_binary",
                 "structures.load_segmentation_csv")
        curves = dur["faithfulness.insertion_curve"] + dur["faithfulness.deletion_curve"]
        m = {
            "certificates.lp_build_s": self_s["certificates.build_program"]
            + self_s["certificates.solve_l1"],
            "certificates.lp_solve_s": dur["certificates.linprog"],
            "certificates.lp_rows": c["lp_rows"],
            "certificates.lp_nonzeros": c["lp_nonzeros"],
            "certificates.lp_iterations": c["lp_iterations"],
            "certificates.scan_s": dur["certificates.monomial_scan_minimum"],
            "certificates.verify_s": dur["certificates.verify_lemma_monomial_insertion"]
            + dur["certificates.verify_corollary_grouped"],
            "certificates.fit_s": dur["certificates.fit_exponential"],
            "faithfulness.probes": calls[PROBE],
            "faithfulness.probe_s": dur[PROBE],
            "faithfulness.self_s": layer_self("faithfulness"),
            "faithfulness.distinct_probe_ratio": per(len(self._probe_keys), calls[PROBE]),
            "faithfulness.curve_ms_per_pair":
                per(1e3 * curves, calls["faithfulness.insertion_curve"]),
            "model.forward_calls": calls["model.sop_forward"],
            "model.forward_s": dur["model.sop_forward"],
            "model.forward_ms_per_call":
                per(1e3 * dur["model.sop_forward"], calls["model.sop_forward"]),
            "model.pool_s": dur["model.segment_pool"],
            "model.generate_s": dur["model.generate_groups"],
            "model.embed_s": dur["model.embed_groups"],
            "model.embed_rows": c["embed_rows"],
            "model.select_s": dur["model.select_groups"],
            "ops.sparsemax_calls": calls["ops.sparsemax"],
            "ops.sparsemax_s": dur["ops.sparsemax"],
            "ops.sparsemax_vjp_calls": calls["ops.sparsemax_vjp"],
            "ops.sparsemax_vjp_s": dur["ops.sparsemax_vjp"],
            "ops.softmax_calls": calls["ops.softmax"],
            "training.grad_calls": calls["training.loss_and_gradients"],
            "training.grad_s": dur["training.loss_and_gradients"],
            "training.grad_self_s": self_s["training.loss_and_gradients"],
            "training.grad_ms_per_example":
                per(1e3 * dur["training.loss_and_gradients"], c["grad_examples"]),
            "training.accuracy_s": dur["training.training_accuracy"],
            "structures.load_s": sum(dur[k] for k in loads),
            "structures.label_calls": calls["structures.label_group"],
            "structures.label_s": layer_self("structures", exclude=loads),
            "serialize.write_s": layer_self("serialize"),
            "serialize.bytes_written": c["bytes_written"],
            "cli.self_s": layer_self("cli"),
            "trace.spans": len(duration),
        }
        return {k: float(v) for k, v in m.items()}

    def leftover_wrappers(self) -> list[str]:
        """Names in program namespaces that still hold a wrapper."""
        found = []
        for module in _program_modules():
            for key, value in vars(module).items():
                if hasattr(value, "__bench_wrapper__"):
                    found.append(f"{module.__name__}.{key}")
                elif isinstance(value, dict):
                    found += [f"{module.__name__}.{key}[{k!r}]"
                              for k, v in value.items() if hasattr(v, "__bench_wrapper__")]
        return found


def _program_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sumparts" or name.startswith("sumparts."))]


def _child_coverage(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Per span, the length of the union of its children's intervals, clipped
    to the span.  Children of one thread never overlap; children from the
    CLI's worker threads can."""
    n = cols["id"].size
    coverage = np.zeros(n)
    position = {int(s): i for i, s in enumerate(cols["id"].tolist())}
    order = np.lexsort((cols["start"], cols["parent"]))
    parents, starts, ends = (cols[k][order].tolist() for k in ("parent", "start", "end"))
    i = 0
    while i < n:
        parent = parents[i]
        j = i
        while j < n and parents[j] == parent:
            j += 1
        p = position.get(parent)
        if p is not None:
            lo, hi = cols["start"][p], cols["end"][p]
            total, cur_s, cur_e = 0.0, None, None
            for s, e in zip(starts[i:j], ends[i:j]):
                s, e = max(s, lo), min(e, hi)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        total += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                total += cur_e - cur_s
            coverage[p] = total
        i = j
    return coverage


def _after_linprog(tracer, arguments, result):
    tracer._count("lp_iterations", result.nit)
    tracer._count("lp_rows", arguments["A_ub"].shape[0])
    tracer._count("lp_nonzeros", arguments["A_ub"].nnz)


def _after_embed(tracer, arguments, result):
    tracer._count("embed_rows", result.shape[0])


def _after_grad(tracer, arguments, result):
    tracer._count("grad_examples", np.atleast_2d(arguments["inputs"]).shape[0])


def _after_write(tracer, arguments, result):
    tracer._count("bytes_written", len(arguments["text"].encode()))


# counters taken at layer boundaries, from the bound arguments and the result
_AFTER = {
    "certificates.linprog": _after_linprog,
    "model.embed_groups": _after_embed,
    "training.loss_and_gradients": _after_grad,
    "serialize.write_text_atomic": _after_write,
}
