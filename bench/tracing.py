"""Layer spans for the traced benchmark run, installed from outside the package.

``install`` wraps the public functions and ``Matrix`` methods of
``rankmetric`` wherever the package's modules hold them, so that a call
made through any module opens a span. Spans stay in memory as four flat
arrays (name, parent, start, end) and are written out when the run ends.
Untraced runs never call ``install``.

A layer's self time is its span's duration minus the durations of its
direct child spans; spans nest because everything runs on one thread.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (defining module, attribute path, layer name, how to find the field of the call)
# The field picks the ".gf2" or ".generic" half of a matrix layer's time; the
# packed kernel _b_rref runs only over GF(2), and None stands for that.
_SPEC_ARG0 = lambda args: args[0].spec          # noqa: E731
_SPEC_ARG1 = lambda args: args[1]               # noqa: E731
_GF2 = lambda args: None                        # noqa: E731
_TARGETS = [
    ("rankmetric.gf", "FieldSpec._build_tables", "gf.tables", None),
    ("rankmetric.matrix", "Matrix.__init__", "matrix.init", _SPEC_ARG1),
    ("rankmetric.matrix", "Matrix.__mul__", "matrix.mul", _SPEC_ARG0),
    ("rankmetric.matrix", "_b_pack", "matrix.pack", None),
    ("rankmetric.matrix", "_b_unpack", "matrix.pack", None),
    ("rankmetric.matrix", "_b_rref", "matrix.rref", _GF2),
    ("rankmetric.matrix", "_g_rref", "matrix.rref", lambda args: args[2]),
    ("rankmetric.matrix", "rank", "matrix.rank", _SPEC_ARG0),
    ("rankmetric.matrix", "invert", "matrix.invert", _SPEC_ARG0),
    ("rankmetric.matrix", "kernel_basis", "matrix.kernel", _SPEC_ARG0),
    ("rankmetric.matrix", "Subspace.__init__", "matrix.subspace", _SPEC_ARG1),
    ("rankmetric.matrix", "matrix_units", "matrix.units", _SPEC_ARG0),
    ("rankmetric.embeddings", "DeltaEmbedding.__init__", "embeddings.delta", None),
    ("rankmetric.embeddings", "DeltaEmbedding.apply", "embeddings.delta_apply", None),
    ("rankmetric.embeddings", "compose", "embeddings.compose", None),
    ("rankmetric.embeddings", "Homomorphism.__init__", "embeddings.hom", None),
    ("rankmetric.embeddings", "skolem_noether_conjugator", "embeddings.conjugator", None),
    ("rankmetric.embeddings", "amalgamate", "embeddings.amalgamate", None),
    ("rankmetric.stability", "relation_defect", "stability.defect", None),
    ("rankmetric.stability", "w_chain", "stability.w_chain", None),
    ("rankmetric.stability", "v_space", "stability.v_space", None),
    ("rankmetric.stability", "repair", "stability.repair", None),
    ("rankmetric.stability", "_SpanTracker.try_add", "stability.span_add", None),
    ("rankmetric.fraisse", "approximate_extension", "fraisse.extension", None),
    ("rankmetric.fraisse", "back_and_forth", "fraisse.back_and_forth", None),
    ("rankmetric.fraisse", "verify_certificate", "fraisse.verify", None),
    ("rankmetric.ramsey", "span_fingerprint", "ramsey.fingerprint", None),
    ("rankmetric.ramsey", "copy_distance", "ramsey.copy_distance", None),
    ("rankmetric.ramsey", "Coloring.value", "ramsey.coloring", None),
]

# Layers split by field, and layers that are counted over set-up as well as
# the measured cycle (field tables are cached per process, so they are built
# during set-up).
SPLIT_LAYERS = ("matrix.init", "matrix.mul", "matrix.rref", "matrix.rank",
                "matrix.invert", "matrix.kernel", "matrix.subspace", "matrix.units")
SETUP_LAYERS = ("gf.tables",)


class Tracer:
    """Spans of one process, kept in flat arrays until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"matrix.mul.macs": 0, "ramsey.units_walked": 0}
        self.mark_index = 0
        self.mark_counters = dict(self.counters)
        self.stop_index = None
        self.stop_counters = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def mark(self):
        """Start of the measured cycle: earlier spans count as set-up."""
        self.mark_index = len(self.start)
        self.mark_counters = dict(self.counters)

    def stop(self):
        """End of the measured cycle: later spans (the checks) do not count."""
        self.stop_index = len(self.start)
        self.stop_counters = dict(self.counters)

    def save(self, path: str, **meta):
        if self.stop_index is None:
            self.stop()
        header = dict(meta, names=self.names, spans=len(self.start),
                      mark=self.mark_index, stop=self.stop_index,
                      mark_counters=self.mark_counters, stop_counters=self.stop_counters)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path: str):
    """Read a span file back: (header, name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header, *arrays)


def summarize(header, name, parent, start, end, setup_only: bool = False):
    """Per-layer {span name: [count, self seconds]} and counters of one span file.

    Spans between the header's mark and stop are the measured cycle. The
    layers in SETUP_LAYERS also count the spans before the mark. With
    ``setup_only`` the whole file is set-up and only those layers count.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    names = header["names"]
    mark = n if setup_only else header["mark"]
    stop = header["stop"]
    setup_ids = {i for i, nm in enumerate(names) if nm.split("@")[0] in SETUP_LAYERS}
    out: dict[str, list] = {}
    for i in range(stop):
        nid = name[i]
        if i < mark and nid not in setup_ids:
            continue
        slot = out.setdefault(names[nid], [0, 0.0])
        slot[0] += 1
        slot[1] += end[i] - start[i] - child[i]
    counters = {} if setup_only else {
        k: v - header["mark_counters"][k] for k, v in header["stop_counters"].items()}
    return out, counters


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(tracer: Tracer, fn, layer: str, field_of):
    name_a, parent_a, start_a, end_a = tracer.name, tracer.parent, tracer.start, tracer.end
    stack = tracer.stack
    perf = time.perf_counter
    if field_of is None:
        fixed = tracer.name_id(layer)
        pick = None
    else:
        id_gf2 = tracer.name_id(layer + "@gf2")
        id_gen = tracer.name_id(layer + "@generic")
        pick = field_of
    counters = tracer.counters
    count_macs = layer == "matrix.mul"

    def wrapper(*args, **kwargs):
        if pick is None:
            nid = fixed
        else:
            spec = pick(args)
            nid = id_gf2 if spec is None or spec.q == 2 else id_gen
        if count_macs and hasattr(args[1], "cols"):
            counters["matrix.mul.macs"] += args[0].rows * args[0].cols * args[1].cols
        idx = len(start_a)
        name_a.append(nid)
        parent_a.append(stack[-1])
        start_a.append(0.0)
        end_a.append(0.0)
        stack.append(idx)
        start_a[idx] = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end_a[idx] = perf()
            stack.pop()

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", layer)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _count_units(tracer: Tracer, gen_fn):
    counters = tracer.counters

    def wrapper(*args, **kwargs):
        for unit in gen_fn(*args, **kwargs):
            counters["ramsey.units_walked"] += 1
            yield unit

    wrapper.__wrapped__ = gen_fn
    return wrapper


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "rankmetric" or name.startswith("rankmetric."))]


def _replace_everywhere(orig, wrapped):
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer):
    """Wrap every traced layer of the imported ``rankmetric`` package."""
    for modname, path, layer, field_of in _TARGETS:
        owner, attr = _resolve(modname, path)
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = _wrap(tracer, orig, layer, field_of)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(orig, wrapped)
    ramsey = sys.modules["rankmetric.ramsey"]
    _replace_everywhere(ramsey.iterate_units, _count_units(tracer, ramsey.iterate_units))


def installed() -> bool:
    """Whether any wrapper sits on the imported package."""
    matrix = sys.modules.get("rankmetric.matrix")
    return matrix is not None and hasattr(matrix.Matrix.__init__, "__wrapped__")


def layer_metrics(parts, cycles: int, extra: dict) -> dict:
    """Fold summaries of span files into the named per-layer metrics, per cycle."""
    spans: dict[str, list] = {}
    counters: dict[str, int] = {}
    for summary, ctrs in parts:
        for nm, (cnt, self_s) in summary.items():
            slot = spans.setdefault(nm, [0, 0.0])
            slot[0] += cnt
            slot[1] += self_s
        for k, v in ctrs.items():
            counters[k] = counters.get(k, 0) + v

    def total(layer, field=None):
        cnt, sec = 0, 0.0
        for nm, (c, s) in spans.items():
            base, _, fld = nm.partition("@")
            if base == layer and (field is None or fld == field):
                cnt += c
                sec += s
        return cnt, sec

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / cycles, "unit": unit}

    for layer in ("gf.tables", "matrix.init", "matrix.mul", "matrix.pack", "matrix.rref",
                  "matrix.rank", "matrix.invert", "matrix.kernel", "matrix.subspace",
                  "matrix.units", "embeddings.delta", "embeddings.delta_apply",
                  "embeddings.compose", "embeddings.hom", "embeddings.conjugator",
                  "stability.span_add", "fraisse.extension", "ramsey.fingerprint",
                  "ramsey.copy_distance"):
        cnt, sec = total(layer)
        put(layer + ".count", cnt, "count")
        put(layer + ".s", sec, "s")
        if layer in SPLIT_LAYERS:
            put(layer + ".s.gf2", total(layer, "gf2")[1], "s")
            put(layer + ".s.generic", total(layer, "generic")[1], "s")
    for layer in ("embeddings.amalgamate", "stability.defect", "stability.w_chain",
                  "stability.v_space", "stability.repair", "fraisse.back_and_forth",
                  "fraisse.verify"):
        put(layer + ".s", total(layer)[1], "s")
    put("matrix.mul.macs", counters.get("matrix.mul.macs", 0), "count")
    put("ramsey.units_walked", counters.get("ramsey.units_walked", 0), "count")
    put("ramsey.coloring.count", total("ramsey.coloring")[0], "count")
    put("cli.start_s", extra.get("cli.start_s", 0.0), "s")
    put("cli.run_s", extra.get("cli.run_s", 0.0), "s")
    out["trace.overhead"] = {"value": extra["trace.overhead"], "unit": "share"}
    return out
