"""Outside-in layer tracing: timing wrappers swapped into the hdffm modules.

A span is recorded around each call into a public function of a layer.  The
wrappers replace the module attributes the callers resolve at call time
(``hdffm.cli.gen_dgp``, ``hdffm.forecast.fit_ar_bic``,
``numpy.linalg.eigvalsh``, ...), so no file of the program changes.  Spans
(name, start, end, parent, op id) are kept in compact arrays in memory and
written out when the pass ends.  A layer's self time is its span duration
minus the time covered by its child spans.

Kernel counts are *computed* from argument shapes, not measured: textbook
operation counts (Golub & Van Loan, symmetric QR: 4n^3/3 for eigenvalues
only, 9n^3 with eigenvectors) and the bytes of the arrays read and written.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (metric prefix, module, attribute path) of every traced function.
SPANS = [
    ("select.abc_select_r", "hdffm.select", "abc_select_r"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.lstsq", "numpy.linalg", "lstsq"),
    ("kernel.eigvals", "numpy.linalg", "eigvals"),
    ("forecast.tnh_forecast", "hdffm.forecast", "tnh_forecast"),
    ("forecast.cf_forecast", "hdffm.forecast", "cf_forecast"),
    ("forecast.fit_ar_bic", "hdffm.forecast", "fit_ar_bic"),
    ("forecast.ar_forecast", "hdffm.forecast", "ar_forecast"),
    ("fbasis.load_mortality_csv", "hdffm.fbasis", "load_mortality_csv"),
    ("fbasis.ingest_mortality", "hdffm.fbasis", "ingest_mortality"),
    ("fbasis.project_curve", "hdffm.fbasis", "project_curve"),
    ("estimate.fit_factors", "hdffm.estimate", "fit_factors"),
    ("estimate.idiosyncratic_residual", "hdffm.estimate", "idiosyncratic_residual"),
    ("estimate.common_component", "hdffm.estimate", "common_component"),
    ("panel.center", "hdffm.panel", "center"),
    ("panel.Panel.stacked_white", "hdffm.panel", "Panel.stacked_white"),
    ("panel.gram_matrix", "hdffm.panel", "gram_matrix"),
    ("metrics.delta_nt", "hdffm.metrics", "delta_nt"),
    ("metrics.epsilon_nt", "hdffm.metrics", "epsilon_nt"),
    ("metrics.phi_nt", "hdffm.metrics", "phi_nt"),
    ("simulate.gen_dgp", "hdffm.simulate", "gen_dgp"),
]


def _eig_counts(with_vectors):
    def counts(args, kwargs):
        a = args[0] if args else kwargs["a"]
        n = a.shape[-1]
        batch = a.size // (n * n)
        flop = (9.0 if with_vectors else 4.0 / 3.0) * n**3
        byte = 8.0 * (n * n + n + (n * n if with_vectors else 0))
        return batch * flop, batch * byte
    return counts


def _gram_counts(args, kwargs):
    panel = args[0]
    D, T = panel.total_dim, panel.T
    return 2.0 * D * T * T, 8.0 * (D * T + T * T)


def _selection_gram_counts(args, kwargs):
    # every permutation accumulates the full (T, T) Gram over all N series
    panel, cfg = args[0], args[1]
    flop, byte = _gram_counts((panel,), {})
    return cfg.P * flop, cfg.P * byte


# span name -> (metric suffix for flops, for bytes, count function)
COMPUTED = {
    "kernel.eigvalsh": ("gflop_computed", "gbyte_computed", _eig_counts(False)),
    "kernel.eigh": ("gflop_computed", "gbyte_computed", _eig_counts(True)),
    "panel.gram_matrix": ("gflop_computed", "gbyte_computed", _gram_counts),
    "select.abc_select_r": ("gram_gflop_computed", "gram_gbyte_computed", _selection_gram_counts),
}

EXTRA = {
    "cli.pool.speedup": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.ops": ("count", "higher"),
}


def per_layer_spec() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for name, _, _ in SPANS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        if name in COMPUTED:
            flop_key, byte_key, _ = COMPUTED[name]
            out[f"{name}.{flop_key}"] = ("GFLOP", "lower")
            out[f"{name}.{byte_key}"] = ("GB", "lower")
    out.update(EXTRA)
    return out


class Tracer:
    """In-memory span recorder; spans of one op share its op id."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS] + ["op"]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1  # -1 outside every op
        self.ops = 0
        self.flop = {name: 0.0 for name in COMPUTED}
        self.byte = {name: 0.0 for name in COMPUTED}
        self._stack = []
        self._patches = []

    def wrap(self, name: str, fn, new_op: bool = False):
        nid = self.names.index(name)
        counts = COMPUTED.get(name, (None, None, None))[2]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_op:
                self.op_id = self.ops
                self.ops += 1
            if counts is not None:
                flop, byte = counts(args, kwargs)
                self.flop[name] += flop
                self.byte[name] += byte
            me = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(me)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[me] = time.perf_counter()
                self._stack.pop()
                if new_op:
                    self.op_id = -1

        return wrapper

    def _swap(self, module_name: str, path: str, make_wrapper):
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        targets = [(owner, attr)]
        # callers that imported the function by name resolve it in their own module
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "hdffm" and mod is not owner:
                targets += [(mod, a) for a, v in vars(mod).items() if v is original]
        for obj, a in targets:
            setattr(obj, a, wrapper)
            self._patches.append((obj, a, original))

    def install(self, op_boundary=None) -> None:
        for name, module_name, path in SPANS:
            self._swap(module_name, path, functools.partial(self.wrap, name))
        if op_boundary is not None:
            self._swap(*op_boundary, functools.partial(self.wrap, "op", new_op=True))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def metrics(self) -> dict:
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for nid, own in zip(self.name_id, self.self_times()):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += own
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if name in COMPUTED:
                flop_key, byte_key, _ = COMPUTED[name]
                out[f"{name}.{flop_key}"] = self.flop[name] / 1e9
                out[f"{name}.{byte_key}"] = self.byte[name] / 1e9
        return out

    def calls_per_op(self, name: str) -> list:
        """Number of spans called ``name`` in each op, in op order."""
        nid = self.names.index(name)
        out = [0] * self.ops
        for n, op in zip(self.name_id, self.op):
            if n == nid and op >= 0:
                out[op] += 1
        return out

    def calls_under(self, name: str, ancestor: str) -> list:
        """For every span called ``ancestor``, the number of ``name`` spans below it."""
        nid, aid = self.names.index(name), self.names.index(ancestor)
        counts = {i: 0 for i, n in enumerate(self.name_id) if n == aid}
        for i, n in enumerate(self.name_id):
            if n != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            if p >= 0:
                counts[p] += 1
        return list(counts.values())

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            t0 = self.start[0] if self.start else 0.0
            for nid, s, e, p, op in zip(self.name_id, self.start, self.end, self.parent, self.op):
                fh.write(f"{self.names[nid]},{s - t0:.9f},{e - t0:.9f},{p},{op}\n")
