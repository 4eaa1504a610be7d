"""In-memory span recorder wrapped around the program's public calls.

Nothing here edits the program: :meth:`Tracer.install` replaces public
functions and methods with timing wrappers from outside (every module
attribute bound to the same function object is swapped, so
``from x import f`` call sites are covered too), and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, job)``.  The parent is the span
open on the same thread when the call began; ``job`` is the benchmark
job in progress.  A layer's self time is its spans' duration minus the
part covered by their direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_time")

    def __init__(self, name: str, start: float, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans and counters while enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.enabled = False
        self.job: str | None = None
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # id(program) -> weak reference; programs are unhashable.
        self._seen_programs: dict[int, weakref.ref] = {}

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        """Add to a counter; counters are kept inside jobs only."""
        if self.job is None:
            return
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), parent, self.job)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)

    def _first_run(self, program) -> bool:
        """Whether ``program`` is run here for the first time."""
        key = id(program)
        seen = self._seen_programs.get(key)
        if seen is not None and seen() is program:
            return False
        self._seen_programs[key] = weakref.ref(
            program, lambda _, key=key: self._seen_programs.pop(key, None))
        return True

    # -- installation --------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every ``repro`` module attribute that is ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _replace_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return timed

    def install(self) -> None:
        """Wrap the public calls of every layer the benchmark reports."""
        import repro.asm.assembler as assembler
        import repro.cpu.engine.fast as engine_fast
        import repro.cpu.ir as ir
        import repro.experiments.runner as runner
        import repro.synth.corpus as corpus
        import repro.transform.hwlp_rewrite as hwlp
        import repro.transform.zolc_rewrite as zolc
        from repro.cpu.simulator import Simulator
        from repro.eval.machines import MachineSpec
        from repro.experiments.store import ResultStore
        from repro.workloads.api import KernelRegistry

        for name, fn in (("asm", assembler.assemble),
                         ("asm", assembler.assemble_module),
                         ("transform", zolc.rewrite_for_zolc),
                         ("transform", hwlp.rewrite_for_hwlp),
                         ("ir.build", ir.build_ir),
                         ("engine.predecode", engine_fast.predecode),
                         ("experiments.plan", runner.plan_cell_keys),
                         ("experiments.runner", runner.run_experiment),
                         ("synth.generate", corpus.generate_kernel)):
            self._replace_everywhere(fn, self._timed(name, fn))

        tracer = self
        run = Simulator.run

        @functools.wraps(run)
        def traced_run(sim, *args, **kwargs):
            if not tracer.enabled:
                return run(sim, *args, **kwargs)
            cold = tracer._first_run(sim.program)
            kind = "engine.cold_run" if cold else "engine.warm_run"
            before = (sim.stats.instructions, sim.chain_resident_steps,
                      sim.trace_resident_steps)
            with tracer.span(kind):
                result = run(sim, *args, **kwargs)
            tracer.count(kind + ".steps", sim.stats.instructions - before[0])
            tracer.count("engine.chain_resident_steps",
                         sim.chain_resident_steps - before[1])
            tracer.count("engine.trace_resident_steps",
                         sim.trace_resident_steps - before[2])
            if sim.last_engine == "step":
                tracer.count("engine.step_fallbacks")
            return result

        self._replace_attr(Simulator, "run", traced_run)

        save = ResultStore.save
        self._replace_attr(ResultStore, "save", self._timed("store.save",
                                                            save))
        load = ResultStore.load

        @functools.wraps(load)
        def traced_load(store, key):
            if not tracer.enabled:
                return load(store, key)
            with tracer.span("store.load"):
                record = load(store, key)
            if record is not None:
                tracer.count("store.hits")
            return record

        self._replace_attr(ResultStore, "load", traced_load)

        prepare = MachineSpec.prepare

        @functools.wraps(prepare)
        def counted_prepare(machine, source):
            tracer.count("experiments.prepares")
            return prepare(machine, source)

        self._replace_attr(MachineSpec, "prepare", counted_prepare)

        # Golden checks are per-kernel closures held on the Kernel
        # instance; wrap each kernel's check as the registry hands it
        # out (registry members and synthesized members alike).
        get = KernelRegistry.get

        @functools.wraps(get)
        def traced_get(registry, name):
            kernel = get(registry, name)
            check = kernel.check
            if getattr(check, "__perfbench_original__", None) is None:
                timed = self._timed("check", check)
                timed.__perfbench_original__ = check
                self._patches.append((kernel, "check", check))
                kernel.check = timed
            return kernel

        self._replace_attr(KernelRegistry, "get", traced_get)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reporting -----------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump every span as JSON (ids are list positions)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        rows = [{"id": index, "name": span.name,
                 "start_ms": round(1000.0 * (span.start - origin), 4),
                 "end_ms": round(1000.0 * (span.end - origin), 4),
                 "parent": None if span.parent is None
                 else ids.get(id(span.parent)),
                 "job": span.job}
                for index, span in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}))
