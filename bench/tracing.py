"""Span tracing of the qtorus layers from outside the package.

``Tracer.install`` wraps every public function of each layer module, in every
``qtorus`` module that holds a reference to it, plus a few methods that carry
a layer's work (``IntMatrix.__matmul__``, ``SymmetricForm.evaluate``, the
``LatticeLocalSystem`` constructor and the ``JobSpec`` accessors).
``Frac1`` construction is only counted: it runs millions of times per job.

A span is (id, name, start, end, parent, job). Ids are handed out when a call
starts, so a parent's id is always smaller than its children's. Spans stay in
a flat integer array until the run ends; ``write_jsonl`` dumps them and
``Summary`` indexes them for the per-layer metrics. A layer's self time is the
duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "gerbe", "surface", "lattice", "forms", "cochain", "selfcheck", "braided")

# Methods traced besides module-level public functions.
METHODS = (
    ("lattice", "IntMatrix", "__matmul__"),
    ("forms", "SymmetricForm", "evaluate"),
    ("surface", "LatticeLocalSystem", "__init__"),
    ("cli", "JobSpec", "__init__"),
    ("cli", "JobSpec", "local_system"),
    ("cli", "JobSpec", "level"),
    ("cli", "JobSpec", "components"),
)

SNF = "lattice.smith_normal_form"
MATMUL = "lattice.IntMatrix.__matmul__"
PRESENTATIONS = "surface.cohomology_presentations"
JOB_SPAN = "cli.main"  # the whole CLI call
PARSE = (
    "cli.JobSpec.__init__",
    "cli.JobSpec.local_system",
    "cli.JobSpec.level",
    "cli.JobSpec.components",
)
BOOKKEEPING = "trace.bookkeeping"  # tracer's own work inside a job, kept out of self times

_FIELDS = 6  # id, name index, start ns, end ns, parent id, job


def _max_bits(snf) -> int:
    return max(
        (abs(x).bit_length() for m in (snf.u, snf.d, snf.v) for x in m.entries), default=0
    )


class Tracer:
    """Collects spans and counters for the jobs run while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans = array("q")
        self.stack: list[int] = []
        self.next_id = 0
        self.job = -1
        self.jobs: list[dict] = []  # per-job counters, indexed by job number
        self._frac1 = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, after=None, inline=None):
        """``after`` runs in a bookkeeping span; ``inline`` is cheap and runs bare."""
        name_id = self._name_id(name)
        stack, spans, clock = self.stack, self.spans, perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, name_id, start, end, parent, tracer.job))
            if inline is not None:
                inline(tracer.jobs[tracer.job], args)
            elif after is not None:
                tracer._bookkeep(after, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bookkeep(self, fn, args, result) -> None:
        sid = self.next_id
        self.next_id = sid + 1
        parent = self.stack[-1] if self.stack else -1
        start = perf_counter_ns()
        fn(self.jobs[self.job], args, result)
        self.spans.extend((sid, self._name_id(BOOKKEEPING), start, perf_counter_ns(), parent, self.job))

    @staticmethod
    def _after_snf(counts, args, result) -> None:
        a = args[0]
        counts["snf_cells"] += a.rows * a.cols
        counts["snf_max_bits"] = max(counts["snf_max_bits"], _max_bits(result))

    @staticmethod
    def _count_matmul(counts, args) -> None:
        a, b = args
        counts["matmul_mults"] += a.rows * a.cols * b.cols

    @staticmethod
    def _after_presentations(counts, args, result) -> None:
        rho = args[0]
        counts["systems"].add((rho.rank, rho.genus, tuple(m.entries for m in rho.mon)))

    def begin_job(self) -> None:
        self.job = len(self.jobs)
        self.jobs.append({"snf_cells": 0, "snf_max_bits": 0, "matmul_mults": 0, "systems": set()})
        self._frac1[0] = 0

    def end_job(self, **extra) -> None:
        counts = self.jobs[self.job]
        counts["frac1_created"] = self._frac1[0]
        counts["distinct_systems"] = len(counts.pop("systems"))
        counts.update(extra)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Patch the layers; ``uninstall`` restores every patched attribute."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {SNF: self._after_snf, PRESENTATIONS: self._after_presentations}
        wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"qtorus.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(obj, name, after.get(name))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qtorus" and not module_name.startswith("qtorus."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is obj:
                    self._patch(module, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"qtorus.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            inline = self._count_matmul if name == MATMUL else None
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name, inline=inline))
        frac1 = sys.modules["qtorus.forms"].Frac1
        original_init, created = frac1.__init__, self._frac1

        def counted_init(obj, num, den=1):
            created[0] += 1
            original_init(obj, num, den)

        self._patch(frac1, "__init__", counted_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Gzipped JSON lines, one span each, times in ns from the earliest start."""
        s = self.spans
        origin = min(s[2::_FIELDS], default=0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for k in range(0, len(s), _FIELDS):
                fh.write(
                    json.dumps(
                        {
                            "id": s[k],
                            "name": self.names[s[k + 1]],
                            "start": s[k + 2] - origin,
                            "end": s[k + 3] - origin,
                            "parent": s[k + 4],
                            "job": s[k + 5],
                        }
                    )
                    + "\n"
                )
        return len(s) // _FIELDS


class Summary:
    """Per-span durations, self times and nesting, indexed by span id."""

    def __init__(self, tracer: Tracer):
        n = tracer.next_id
        s = tracer.spans
        self.names = tracer.names
        self.name = array("q", [-1]) * n
        self.dur = array("q", [0]) * n
        self.parent = array("q", [-1]) * n
        self.self_ns = array("q", [0]) * n
        for k in range(0, len(s), _FIELDS):
            sid = s[k]
            self.name[sid] = s[k + 1]
            self.dur[sid] = s[k + 3] - s[k + 2]
            self.parent[sid] = s[k + 4]
        self.self_ns[:] = self.dur
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                self.self_ns[p] -= self.dur[sid]

    def _ids(self, names) -> set[int]:
        return {i for i, nm in enumerate(self.names) if nm in names}

    def calls(self, *names: str) -> int:
        ids = self._ids(names)
        return sum(1 for x in self.name if x in ids)

    def covered_s(self, *names: str) -> float:
        """Wall time inside any span of ``names``, nested spans counted once."""
        ids = self._ids(names)
        inside = bytearray(len(self.name))  # some ancestor is one of ``names``
        total = 0
        for sid, nm in enumerate(self.name):
            p = self.parent[sid]
            if p >= 0:
                inside[sid] = inside[p] or self.name[p] in ids
            if nm in ids and not inside[sid]:
                total += self.dur[sid]
        return total / 1e9

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for nm, st in zip(self.name, self.self_ns):
            if nm >= 0:
                out[self.names[nm].split(".", 1)[0]] += st / 1e9
        return out
