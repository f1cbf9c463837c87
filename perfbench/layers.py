"""Outside-in layer trace: spans recorded around public entry points.

The benchmark never edits the program to trace it.  For the traced run
it replaces a fixed list of methods and module functions with wrappers
that time each call (a span) and count work at the same boundary, and
restores the originals afterwards.  Systems must be *built* while the
wrappers are installed, because the program binds some of these
methods at construction time (``pump=stub.service_pending``, the
wrapper module's clocked process).

A span's *self* time is its duration minus the time covered by the
spans nested inside it, so the self times of all layers add up to the
time covered by outermost spans; the rest of the run's host time is
reported as unaccounted.
"""

import functools
import inspect
import time
from collections import Counter, defaultdict

from repro.cosim.driver_kernel import DriverKernelHook
from repro.cosim.gdb_kernel import GdbKernelHook
from repro.cosim.gdb_wrapper import GdbWrapperModule
from repro.cosim.transfer import TargetDriver
from repro.gdb import rsp
from repro.gdb.client import GdbClient
from repro.gdb.stub import GdbStub
from repro.iss.cpu import Cpu
from repro.obs.metrics import MetricsSampler
from repro.rtos.kernel import RtosKernel
from repro.sysc.kernel import Kernel

#: (span layer, owner, attribute).  ``GdbWrapperModule._sync_cycle`` is
#: the GDB-Wrapper's per-posedge process: that scheme has no kernel
#: hook, and this method is where it does what the kernel schemes do in
#: ``on_cycle_begin``/``on_time_advance``.
SPANS = (
    ("sysc", Kernel, "run"),
    ("cosim.hook", GdbKernelHook, "on_cycle_begin"),
    ("cosim.hook", GdbKernelHook, "on_time_advance"),
    ("cosim.hook", DriverKernelHook, "on_cycle_begin"),
    ("cosim.hook", DriverKernelHook, "on_cycle_end"),
    ("cosim.hook", DriverKernelHook, "on_time_advance"),
    ("cosim.hook", GdbWrapperModule, "_sync_cycle"),
    ("cosim.transfer", TargetDriver, "drive"),
    ("gdb", GdbClient, "transact"),
    ("gdb", GdbClient, "continue_"),
    ("gdb", GdbClient, "poll_stop"),
    ("gdb", GdbStub, "service_pending"),
    ("gdb.rsp", rsp, "frame"),
    ("gdb.rsp", rsp, "unframe"),
    ("iss", Cpu, "run"),
    ("rtos", RtosKernel, "advance"),
    ("obs", MetricsSampler, "sample"),
)


class LayerTrace:
    """Self time per layer plus boundary counts for one traced run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.covered_s = 0.0      # time inside outermost spans
        self._children = []       # per open span: time of its children
        self._saved = []

    def reset(self):
        """Forget what was recorded so far (wrappers stay installed)."""
        self.self_s.clear()
        self.counts.clear()
        self.covered_s = 0.0

    def _span(self, layer, func):
        clock = time.perf_counter
        children = self._children
        self_s = self.self_s

        @functools.wraps(func)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                else:
                    self.covered_s += elapsed
        return span

    def _count(self, name, func, size_name=None):
        counts = self.counts

        @functools.wraps(func)
        def counted(*args, **kwargs):
            result = func(*args, **kwargs)
            counts[name] += 1
            if size_name is not None:
                counts[size_name] += len(result)
            return result
        return counted

    def _replace(self, owner, attribute, wrapper):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self):
        """Put every wrapper in place (undo with :meth:`uninstall`)."""
        if self._saved:
            raise RuntimeError("layer trace already installed")
        try:
            self._replace(Cpu, "flush_decode_cache", self._count(
                "cache_flushes", Cpu.flush_decode_cache))
            for layer, owner, attribute in SPANS:
                func = owner.__dict__[attribute]
                if inspect.isgeneratorfunction(func):
                    raise TypeError("%s.%s is a generator; a span around "
                                    "it would time only its creation"
                                    % (owner.__name__, attribute))
                if (owner, attribute) == (rsp, "frame"):
                    func = self._count("rsp_packets", func, "rsp_bytes")
                self._replace(owner, attribute, self._span(layer, func))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        """Restore the original functions, last replaced first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
