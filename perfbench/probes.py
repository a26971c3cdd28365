"""Measurement from outside the program: spans, sampling, call counts.

Nothing here edits the program's source.  Spans come from wrapping the
public functions ``run_experiment`` calls; per-layer self time comes
from a ``signal.setitimer`` sampling profiler that charges each sample
to the innermost frame of a ``repro.<layer>`` module; call counts come
from a separate ``cProfile`` pass (whose self times are not used: its
per-call cost inflates Python-heavy layers and shifts the shares).  An
untraced pass carries a speed meter that converts its host seconds into
seconds at a fixed reference host speed.
"""

from __future__ import annotations

import contextlib
import cProfile
import heapq
import pstats
import signal
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# The program is imported inside the functions that patch it, so the
# benchmark's parent process can read LAYERS and PHASES without it.

__all__ = [
    "LAYERS", "PHASES", "Recorder", "Sampler", "SpeedMeter", "install",
    "call_counts", "inject_send_delay",
]

#: The program's packages, one layer each (``repro.<layer>``).
LAYERS = ("sim", "net", "compile", "mutex", "core", "workload", "metrics",
          "verify", "grid", "cache", "experiments")
#: Phases of one run, in order.
PHASES = ("platform", "system", "deploy", "promote", "run", "summarize")

perf_counter = time.perf_counter


class Recorder:
    """Timings and counters of one workload pass.

    ``setup_s`` sums, over the pass's runs, the host time from the start
    of a run to its first simulated event (the first ``Simulator.run``
    call), plus any explicit :meth:`setup` block such as opening the
    cache.  ``setup_spans`` keeps each of those intervals.  The other
    fields are filled only when ``detailed``.
    """

    def __init__(self, detailed: bool = False) -> None:
        self.detailed = detailed
        self.setup_s = 0.0
        self.setup_spans: List[Tuple[float, float]] = []
        self.phases: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.counters: Dict[str, float] = {
            "sim.events": 0, "cache.puts": 0, "cache.bytes": 0,
            "cache.hits": 0, "cache.get_s": 0.0,
        }
        self._run_start: Optional[float] = None
        self._sim_started = False
        self._sim_end: Optional[float] = None
        self._platform_end: Optional[float] = None

    @contextlib.contextmanager
    def run(self) -> Iterator[None]:
        """Bracket one simulation run (build, simulate, summarise)."""
        self._run_start = perf_counter()
        self._sim_started = False
        self._sim_end = None
        self._platform_end = None
        try:
            yield
        finally:
            end = perf_counter()
            if self.detailed and self._sim_end is not None:
                self.phases["summarize"] += end - self._sim_end
            self._run_start = None

    @contextlib.contextmanager
    def setup(self) -> Iterator[None]:
        """Count a block outside any run (e.g. opening the cache) as set-up."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self._add_setup(t0, perf_counter())

    def _add_setup(self, start: float, end: float) -> None:
        self.setup_s += end - start
        self.setup_spans.append((start, end))

    @contextlib.contextmanager
    def span(self, phase: str) -> Iterator[None]:
        """Time one phase of the current run."""
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            if self.detailed:
                if phase == "system" and self._platform_end is not None:
                    # The system phase runs from the platform's end, so
                    # network construction before build_system counts.
                    t0 = self._platform_end
                self.phases[phase] += t1 - t0
                if phase == "platform":
                    self._platform_end = t1

    def sim_started(self) -> None:
        """Called on entry to ``Simulator.run``: closes the run's set-up."""
        if self._run_start is not None and not self._sim_started:
            self._sim_started = True
            self._add_setup(self._run_start, perf_counter())

    def sim_ended(self, at: float) -> None:
        """Called on return from ``Simulator.run``: opens summarising."""
        self._sim_end = at


def _patch(stack: contextlib.ExitStack, owner, name: str,
           make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


def install(rec: Recorder) -> contextlib.ExitStack:
    """Wrap the program's public functions to feed ``rec``.

    Returns an exit stack that restores every original on close.
    """
    import repro.compile
    import repro.experiments.parallel
    import repro.experiments.runner
    from repro.cache import ExperimentCache
    from repro.sim import Simulator

    stack = contextlib.ExitStack()
    detailed = rec.detailed

    def wrap_sim_run(run):
        def timed_run(sim, *args, **kwargs):
            rec.sim_started()
            before = sim.events_fired
            t0 = perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                t1 = perf_counter()
                rec.sim_ended(t1)
                if detailed:
                    rec.phases["run"] += t1 - t0
                    rec.counters["sim.events"] += sim.events_fired - before
        return timed_run

    def wrap_run(run_experiment):
        def timed_run_experiment(*args, **kwargs):
            with rec.run():
                return run_experiment(*args, **kwargs)
        return timed_run_experiment

    _patch(stack, Simulator, "run", wrap_sim_run)
    # The serial sweep path looks run_experiment up in this module.
    _patch(stack, repro.experiments.parallel, "run_experiment", wrap_run)
    if not detailed:
        return stack

    def spanned(phase):
        def make(fn):
            def in_span(*args, **kwargs):
                with rec.span(phase):
                    return fn(*args, **kwargs)
            return in_span
        return make

    runner = repro.experiments.runner
    _patch(stack, runner, "build_platform", spanned("platform"))
    _patch(stack, runner, "build_system", spanned("system"))
    _patch(stack, runner, "deploy_workload", spanned("deploy"))
    _patch(stack, repro.compile, "compile_system", spanned("promote"))

    counters = rec.counters

    def wrap_get(get):
        def timed_get(cache, config):
            t0 = perf_counter()
            result = get(cache, config)
            counters["cache.get_s"] += perf_counter() - t0
            if result is not None:
                counters["cache.hits"] += 1
            return result
        return timed_get

    def wrap_put_blob(put_blob):
        def counted_put_blob(cache, fingerprint, key, blob, *args, **kwargs):
            counters["cache.puts"] += 1
            counters["cache.bytes"] += len(blob)
            return put_blob(cache, fingerprint, key, blob, *args, **kwargs)
        return counted_put_blob

    _patch(stack, ExperimentCache, "get", wrap_get)
    _patch(stack, ExperimentCache, "put_blob", wrap_put_blob)
    return stack


# --------------------------------------------------------------------- #
def _layer_of_module(module: str) -> Optional[str]:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class Sampler:
    """Wall-clock sampling profiler (``ITIMER_REAL`` + frame walk).

    Each ``SIGALRM`` charges one sample to the innermost frame whose
    module is ``repro.<layer>``, or to ``None`` when the stack holds no
    such frame (benchmark code, interpreter start-up of a call, ...).
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.samples: Dict[Optional[str], int] = {}
        self._layer_of_code: Dict[object, Optional[str]] = {}
        self._previous = None

    def _on_signal(self, _signum, frame) -> None:
        codes = self._layer_of_code
        layer = None
        while frame is not None:
            code = frame.f_code
            try:
                layer = codes[code]
            except KeyError:
                layer = codes[code] = _layer_of_module(
                    frame.f_globals.get("__name__", "")
                )
            if layer is not None:
                break
            frame = frame.f_back
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def self_seconds(self, wall_s: float) -> Dict[Optional[str], float]:
        """Samples scaled so that all shares sum to ``wall_s``."""
        total = sum(self.samples.values())
        if not total:
            return {}
        return {k: wall_s * n / total for k, n in self.samples.items()}


# --------------------------------------------------------------------- #
# Fixed interpreter work timed by the speed meter: dict lookups, list
# indexing, integer arithmetic and a small heap, on a working set small
# enough to stay in the core's own caches once warmed.
_METER_KEYS = list(range(0, 256 * 7, 7))
_METER_TABLE = {k: [k, 2 * k] for k in _METER_KEYS}


def _meter_work() -> int:
    table, keys, heap, acc = _METER_TABLE, _METER_KEYS, [], 0
    n = len(keys)
    for i in range(0, 5600, 37):
        v = table[keys[(i * 131) % n]]
        acc += v[1] - v[0]
        heapq.heappush(heap, (acc & 1023, i))
        if len(heap) > 8:
            heapq.heappop(heap)
    return acc


#: Seconds the timed meter work takes at the reference host speed.  On
#: the 2-vCPU Xeon host (2.1 GHz) the benchmark was defined on, its
#: median over a pass ranged from 6e-5 s (fast state) to 1.2e-4 s.
METER_REF_S = 9.0e-5
#: How a pass's time follows the meter's: when the timed work takes k
#: times longer, the program takes about k ** METER_ELASTICITY times
#: longer.  The meter's tight loop loses more to a busy co-tenant than
#: the program does; fits over passes on that host gave 0.69
#: (fig4-sweep) and 0.86-0.92 (crash-failover).
METER_ELASTICITY = 0.8


class SpeedMeter:
    """Host speed sampled inside the pass, next to the program's own work.

    Every ``interval_s`` an ``ITIMER_REAL`` signal runs :func:`_meter_work`
    twice: once to warm the core's caches, once timed.  On a shared host
    co-tenants slow the core by tens of percent within milliseconds;
    the timed work slows with it.  :meth:`ref_seconds` converts a span of
    the pass into the seconds it would take at the reference speed
    (:data:`METER_REF_S` per timed work): its time outside the meter,
    scaled by the mean of ``(METER_REF_S / timed) ** METER_ELASTICITY``
    over nearby samples.
    """

    def __init__(self, interval_s: float = 0.01) -> None:
        self.interval_s = interval_s
        #: (warm-up start, timed start, end) of each sample.
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, *_args) -> None:
        w = perf_counter()
        _meter_work()
        a = perf_counter()
        _meter_work()
        self.samples.append((w, a, perf_counter()))

    def __enter__(self) -> "SpeedMeter":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def meter_seconds(self, start: float, end: float) -> float:
        """Time of ``[start, end]`` spent inside the meter's own samples."""
        return sum(max(0.0, min(e, end) - max(w, start))
                   for w, _a, e in self.samples)

    def ref_seconds(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take at the reference speed.

        The speed is taken from samples that start within five intervals
        of the span (all samples when none does).
        """
        margin = 5 * self.interval_s
        near = [e - a for w, a, e in self.samples
                if start - margin <= w <= end + margin]
        timed = near or [e - a for _w, a, e in self.samples]
        scale = statistics.fmean((METER_REF_S / t) ** METER_ELASTICITY
                                 for t in timed)
        return (end - start - self.meter_seconds(start, end)) * scale


# --------------------------------------------------------------------- #
def _layer_of_file(filename: str) -> Optional[str]:
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, 0, -1):
        if parts[i - 1] == "repro" and parts[i] in LAYERS:
            return parts[i]
    return None


def call_counts(profile: cProfile.Profile) -> Dict[str, int]:
    """Deterministic work counts from one ``cProfile`` pass.

    ``<layer>.calls`` counts calls of the layer's Python functions;
    ``sim.queue_ops`` counts the kernel's pushes and pops (``heapq`` or
    the calendar queue); ``sim.cancels`` counts ``EventHandle.cancel``;
    ``verify.checks`` counts CS records the safety checker examined.
    """
    out = {f"{layer}.calls": 0 for layer in LAYERS}
    out.update({"sim.queue_ops": 0, "sim.cancels": 0, "verify.checks": 0})
    stats = pstats.Stats(profile).stats
    queue_builtins = ("<built-in method _heapq.heappush>",
                      "<built-in method _heapq.heappop>")
    for (filename, _line, name), (_cc, calls, _tt, _ct, callers) in stats.items():
        if name in queue_builtins:
            out["sim.queue_ops"] += sum(
                counts[1] for caller, counts in callers.items()
                if caller[0].endswith("sim/kernel.py")
            )
            continue
        layer = _layer_of_file(filename)
        if layer is None:
            continue
        out[f"{layer}.calls"] += calls
        if filename.endswith("sim/calqueue.py") and name in ("push", "pop"):
            out["sim.queue_ops"] += calls
        elif filename.endswith("sim/event.py") and name == "cancel":
            out["sim.cancels"] += calls
        elif filename.endswith("verify/safety.py") and name in (
            "_on_enter", "_on_exit"
        ):
            out["verify.checks"] += calls
    return out


# --------------------------------------------------------------------- #
_DELAY_SOURCE = '''
def send(self, *args, **kwargs):
    end = _perf_counter() + _delay_s
    while _perf_counter() < end:
        pass
    return _original_send(self, *args, **kwargs)
'''


def inject_send_delay(delay_s: float) -> contextlib.ExitStack:
    """Slow ``Network.send`` by a fixed busy-wait per call.

    The wrapper is compiled in the network module's namespace, so the
    added time is the net layer's own, as a slower ``send`` would be.
    """
    import repro.net.network as module

    def make(original):
        namespace = dict(vars(module), _perf_counter=perf_counter,
                         _delay_s=delay_s, _original_send=original)
        exec(_DELAY_SOURCE, namespace)
        return namespace["send"]

    stack = contextlib.ExitStack()
    _patch(stack, module.Network, "send", make)
    return stack
