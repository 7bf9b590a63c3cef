"""Per-layer tracing of g2abc from outside the package.

The layers are the package's modules.  ``Tracer.installed()`` wraps every
public function of each layer, under every module name it is looked up by
(``ce_diff`` is bound in ``liealg``, ``g2core`` and ``gabc``), records one
span per call in memory, and puts the original objects back on exit.
Self time of a span is its duration minus the durations of its direct
child spans.
"""

import array
import contextlib
import functools
import gzip
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("exterior", "liealg", "g2core", "riemann", "gabc", "cli")

#: Private functions looked up by name that belong to a public layer metric:
#: the tabulated torsion tables of closed_form_torsion (cross_validate calls
#: the general one directly as gabc._torsion_general).
ALIASES = {
    ("gabc", "_torsion_general"): "gabc.closed_form_torsion",
    ("gabc", "_torsion_skew"): "gabc.closed_form_torsion",
    ("gabc", "_torsion_diagonal"): "gabc.closed_form_torsion",
    ("gabc", "_torsion_antidiagonal"): "gabc.closed_form_torsion",
}
#: Classes whose constructor is a span of its own.
CONSTRUCTORS = {("liealg", "LieAlgebra7"): "liealg.LieAlgebra7"}

#: Reported per triple; "calls" and "self_ms" read the spans of that label,
#: FORM_CREATED counts Form constructions.
FORM_CREATED = "exterior.Form.created"
SPAN_METRICS = (
    ("exterior.wedge", ("calls", "self_ms")),
    ("exterior.contract", ("calls", "self_ms")),
    ("exterior.hodge", ("calls", "self_ms")),
    ("exterior.matrix_coaction", ("calls", "self_ms")),
    ("liealg.LieAlgebra7", ("self_ms",)),
    ("liealg.ce_diff", ("calls", "self_ms")),
    ("g2core.torsion_forms", ("self_ms",)),
    ("g2core.tau27_tensor", ("self_ms",)),
    ("g2core.full_torsion_from_forms", ("self_ms",)),
    ("g2core.full_torsion_from_nabla", ("self_ms",)),
    ("g2core.reconstruction_residuals", ("self_ms",)),
    ("riemann.levi_civita", ("self_ms",)),
    ("riemann.ricci", ("self_ms",)),
    ("riemann.div_torsion", ("self_ms",)),
    ("gabc.generate", ("self_ms",)),
    ("gabc.build", ("self_ms",)),
    ("gabc.closed_form_derivatives", ("self_ms",)),
    ("gabc.theta", ("calls",)),
    ("gabc.theta_omega_tabulated", ("calls",)),
    ("gabc.closed_form_torsion", ("self_ms",)),
    ("gabc.closed_form_connection", ("self_ms",)),
    ("gabc.closed_form_ricci", ("self_ms",)),
    ("gabc.closed_form_divergence", ("self_ms",)),
    ("gabc.cross_validate", ("self_ms",)),
    ("cli.load_triple", ("self_ms",)),
    ("cli.build_report", ("self_ms",)),
    ("cli.cmd_verify", ("self_ms",)),
    ("cli.cmd_analyze", ("self_ms",)),
)
#: Reported by the worker beside the span metrics.
TABLES_BUILD = "tables.build_ms"
OVERHEAD = "trace.overhead"


def per_layer_units():
    """{metric name: unit} of every per-layer metric, in report order."""
    units = {FORM_CREATED: "count"}
    for label, kinds in SPAN_METRICS:
        units.update((f"{label}.{kind}", "count" if kind == "calls" else "ms") for kind in kinds)
    units[TABLES_BUILD] = "ms"
    units[OVERHEAD] = "ratio"
    return units


class Tracer:
    """Spans of one traced run, kept in memory until written out."""

    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self._label = array.array("q")
        self._parent = array.array("q")
        self._start = array.array("q")
        self._end = array.array("q")
        self._stack = []
        self._patched = []
        self.forms_created = 0

    # -- wrappers -------------------------------------------------------------

    def _label_id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _span(self, fn, label):
        lid = self._label_id(label)
        labels, parents, starts, ends = self._label, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_forms(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            tracer.forms_created += 1
            init(obj, *args, **kwargs)

        return counted

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        layers = {name: importlib.import_module(f"g2abc.{name}") for name in LAYERS}
        targets = {}  # id(original) -> (original, label)
        for name, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, f"{name}.{attr}")
        for (name, attr), label in ALIASES.items():
            obj = getattr(layers[name], attr)
            targets[id(obj)] = (obj, label)
        wrappers = {key: self._span(obj, label) for key, (obj, label) in targets.items()}
        package_modules = [mod for key, mod in sorted(sys.modules.items())
                           if key == "g2abc" or key.startswith("g2abc.")]
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    self._patch(mod, attr, wrappers[id(obj)])
        for (name, cls_name), label in CONSTRUCTORS.items():
            cls = getattr(layers[name], cls_name)
            self._patch(cls, "__init__", self._span(cls.__init__, label))
        form = layers["exterior"].Form
        self._patch(form, "__init__", self._count_forms(form.__init__))

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- results --------------------------------------------------------------

    def _arrays(self):
        return tuple(np.array(a, dtype=np.int64)
                     for a in (self._label, self._parent, self._start, self._end))

    def totals(self):
        """{label: (calls, self time in ns)} over every recorded span."""
        label, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n = len(self.labels)
        calls = np.bincount(label, minlength=n)
        self_ns = np.bincount(label, weights=dur - child, minlength=n)
        return {lab: (int(calls[i]), float(self_ns[i])) for i, lab in enumerate(self.labels)}

    def metrics(self, triples):
        """Every span metric and the Form count, per triple."""
        totals = self.totals()
        out = {FORM_CREATED: self.forms_created / triples}
        for label, kinds in SPAN_METRICS:
            calls, self_ns = totals.get(label, (0, 0.0))
            for kind in kinds:
                out[f"{label}.{kind}"] = calls / triples if kind == "calls" else self_ns / 1e6 / triples
        return out

    def write_spans(self, path):
        """Spans as gzipped TSV: id, parent id, label, start ns, end ns."""
        label, parent, start, end = self._arrays()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tlabel\tstart_ns\tend_ns\n")
            for i in range(len(label)):
                fh.write(f"{i}\t{parent[i]}\t{self.labels[label[i]]}\t{start[i]}\t{end[i]}\n")
