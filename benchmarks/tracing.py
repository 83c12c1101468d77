"""Per-layer tracing of wingbeat from outside the program.

A :class:`Tracer` wraps the public functions and public methods of the
layer modules (config, wing, kinematics, aero, power, control, harness,
cli). A function imported by value into another module (``from .aero
import simulate_cycle``) is replaced in every wingbeat namespace that
holds it, so ``aero.simulate_cycle``, ``harness.simulate_cycle`` and
``cli.simulate_cycle`` all record into the same span name.

For each span name the tracer keeps calls, inclusive time and self time
(inclusive time minus the time covered by nested spans). It also counts
calls made while one of the ``scopes`` is open, for ratios such as
series evaluations per cycle solve. Nothing is written while tracing;
the caller reads the aggregates afterwards.
"""

from collections import defaultdict
import importlib
import inspect
import sys
import time

LAYERS = ("config", "wing", "kinematics", "aero", "power", "control",
          "harness", "cli")

# Leaf helpers called per control step, per exported cell or per segment
# edge of an area integral: wrapping them would add more time than they
# take. Their time stays in the self time of their caller.
UNWRAPPED = frozenset({
    "control.LowPassFilter.update",
    "control.integrate_yaw",
    "control.yaw_control_output",
    "control.ControllerConfig.setpoint_at",
    "control.YawPlant.step",
    "harness.format_float",
    "wing.WingGeometry.chord_at",
})


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``with Tracer(...) as tracer:``; uninstalls on exit.

    ``hooks`` maps a span name to ``fn(args, kwargs, result, seconds)``,
    called after each successful call of that span.
    """

    def __init__(self, scopes=(), hooks=None):
        self.stats = defaultdict(SpanStats)
        self.within = defaultdict(SpanStats)
        self.scopes = frozenset(scopes)
        self.hooks = dict(hooks or {})
        self._stack = []           # child time of each open span
        self._open_scopes = defaultdict(int)
        self._restore = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        open_scopes = self._open_scopes
        is_scope = name in self.scopes
        hook = self.hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if is_scope:
                open_scopes[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if is_scope:
                    open_scopes[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                for scope, depth in open_scopes.items():
                    if depth:
                        inner = self.within[(scope, name)]
                        inner.calls += 1
                        inner.total += elapsed
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        replaced = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"wingbeat.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNWRAPPED:
                        replaced[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        originals = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "wingbeat"
                                      or mod_name.startswith("wingbeat.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    originals[(mod_name, attr)] = obj
                    setattr(module, attr, replaced[id(obj)])
        for (mod_name, attr), obj in originals.items():
            self._restore.append((sys.modules[mod_name], attr, obj))
        return self

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(member, classmethod):
                wrapped = classmethod(self._wrap(name, member.__func__))
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(self._wrap(name, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(name, member)
            else:
                continue
            self._restore.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # Aggregates -------------------------------------------------------

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def per_call_ms(self, name):
        """Mean inclusive time of one call (ms); 0 if never called."""
        s = self.stats.get(name)
        return 1e3 * s.total / s.calls if s and s.calls else 0.0

    def self_per_call_ms(self, name):
        s = self.stats.get(name)
        return 1e3 * s.self_time / s.calls if s and s.calls else 0.0

    def layer_self_s(self, layer):
        """Self time (s) summed over every span of one layer."""
        prefix = layer + "."
        return sum(s.self_time for n, s in self.stats.items()
                   if n.startswith(prefix))

    def calls_within(self, scope, name):
        key = (scope, name)
        return self.within[key].calls if key in self.within else 0

    def total_within(self, scope, name):
        key = (scope, name)
        return self.within[key].total if key in self.within else 0.0
