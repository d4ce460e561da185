"""Span tracing from outside the program.

The tracer replaces public functions at the module attribute each caller
looks up (``diskmap.cli.assemble_laplacian``, ``diskmap.laplacian.
triangle_metrics``, ``scipy.sparse.linalg.splu`` ...) with wrappers that
record a span: name, start, end and parent.  Spans stay in flat arrays in
memory and are only summarized or written out after the run.  A span's
self time is its duration minus its children's, so the self times of one
command's spans add up to that command's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  Each entry is the lookup a caller
# makes, so a function imported into several modules appears once per
# importing module.  Span names are "<layer>.<what>"; the per-layer
# metric "<name>_s" is the self time summed over that name's spans.
SPANS = [
    ("diskmap.cli", "gen_hemisphere", "hemisphere.gen"),
    ("diskmap.experiments", "gen_hemisphere", "hemisphere.gen"),
    ("diskmap.mesh", "TriMesh.__init__", "mesh.build"),
    ("diskmap.cli", "load_mesh", "mesh.load"),
    ("diskmap.laplacian", "triangle_metrics", "mesh.triangle_metrics"),
    ("diskmap.bounds", "triangle_metrics", "mesh.triangle_metrics"),
    ("diskmap.harmonic", "triangle_metrics", "mesh.triangle_metrics"),
    ("diskmap.laplacian", "patch_area_quadrature", "surface.quadrature"),
    ("diskmap.laplacian", "face_area_ratios", "laplacian.ratios"),
    ("diskmap.cli", "assemble_laplacian", "laplacian.assemble"),
    ("diskmap.experiments", "assemble_laplacian", "laplacian.assemble"),
    ("diskmap.cli", "disk_initial_guess", "harmonic.init"),
    ("diskmap.experiments", "disk_initial_guess", "harmonic.init"),
    ("scipy.sparse.linalg", "splu", "splu"),
    ("diskmap.cli", "minimize", "minimizer.minimize"),
    ("diskmap.experiments", "minimize", "minimizer.minimize"),
    ("diskmap.cli", "quality_report", "bounds.quality"),
    ("diskmap.bounds", "quality_report", "bounds.quality"),
    ("diskmap.experiments", "quality_report", "bounds.quality"),
    ("diskmap.cli", "scan_degraded_faces", "bounds.degraded"),
    ("diskmap.cli", "build_bound_report", "bounds.report"),
    ("diskmap.bounds", "BoundReport.write_csv", "bounds.csv"),
    ("diskmap.cli", "quality_csv", "bounds.csv"),
    ("diskmap.cli", "read_mu_csv", "beltrami.read"),
    ("diskmap.cli", "read_boundary_csv", "beltrami.read"),
    ("diskmap.beltrami", "assemble_beltrami", "beltrami.assemble"),
    ("diskmap.cli", "solve_beltrami", "beltrami.solve"),
    ("diskmap.experiments", "solve_hemisphere_case", "experiments.case"),
    ("diskmap.cli", "fit_exponent", "experiments.fit"),
    ("diskmap.cli", "emit_report", "experiments.emit"),
]

# Calls counted without a span: too frequent and too short to time.
COUNTERS = [
    ("diskmap.surface", "ParamSurface.area_element", "surface.area_element_calls"),
]

# Spans whose return value the summary reads (matrix sizes, iteration
# counts, factor fill).  The values are kept until the run ends.
KEEP_RESULT = {"laplacian.assemble", "minimizer.minimize", "splu"}

# A factorization is attributed to the nearest enclosing span of these.
SPLU_PARENTS = {
    "harmonic.init": "harmonic",
    "minimizer.minimize": "minimizer",
    "beltrami.solve": "beltrami",
}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; install() patches, restore() undoes."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.results: dict[int, object] = {}
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A root (or nested) span around code the benchmark runs itself."""
        idx = self._open(self._intern(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _span_wrapper(self, func, name):
        nid = self._intern(name)
        keep = name in KEEP_RESULT

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.results[idx] = result
            return result

        return wrapper

    def _count_wrapper(self, func, name):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.counts[self._stack[0]][name] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self):
        for table, make in ((SPANS, self._span_wrapper), (COUNTERS, self._count_wrapper)):
            for module_name, path, name in table:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, make(original, name))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ summary

    def arrays(self):
        """(name, duration, self time, root span) per span, as numpy arrays."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(int)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(parent)
        )
        root = np.arange(len(parent))
        for i in np.nonzero(has_parent)[0]:  # parents precede children
            root[i] = root[parent[i]]
        names = np.array(self.names, dtype=object)[np.frombuffer(self.name_id, dtype=np.int32)]
        return names, duration, duration - child_time, root

    def enclosing(self, idx, names):
        """Nearest ancestor of span `idx` whose name is in `names`, or None."""
        p = self.parent[idx]
        while p >= 0:
            if self.names[self.name_id[p]] in names:
                return self.names[self.name_id[p]]
            p = self.parent[p]
        return None

    def write(self, path):
        """All spans as gzip CSV: index, name, parent, start, end (seconds)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )
