"""Per-module spans recorded from outside the program.

The tracer replaces public functions and methods of the affgeo modules
with timing wrappers for the duration of a traced pass, then puts the
originals back.  A span's self time is its duration minus the time of
the spans it encloses, so a layer's number does not double-count the
layers it calls.

Three details keep the numbers honest:

* ``symexpr.evaluate``, ``differentiate`` and ``subst`` recurse through
  their module globals.  While the outermost call runs, the global
  points at the original function, so only that call is recorded and
  the recursion runs at full speed.
* A wrapper replaces the function under every name that refers to it in
  any affgeo module, because ``cli`` binds ``from .mechanics import
  integrate`` at import time.
* A target that no longer exists is listed in ``missing`` instead of
  failing the run; its metrics then read zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "affgeo"

# Span names and the (module, qualified name) they wrap.
SPANS = {
    "symexpr.parse": ("symexpr", "parse"),
    "symexpr.compile_fn": ("symexpr", "compile_fn"),
    "mechanics.integrate": ("mechanics", "integrate"),
    "mechanics.compare_frames": ("mechanics", "compare_frames"),
    "mechanics.tau_clock_residual": ("mechanics", "tau_clock_residual"),
    "mechanics.timedep_dynamics": ("mechanics", "timedep_dynamics"),
    "mechanics.newton_dynamics": ("mechanics", "newton_dynamics"),
    "mechanics.Trajectory.to_csv": ("mechanics", "Trajectory.to_csv"),
    "brackets.verify_affgebra": ("brackets", "verify_affgebra"),
    "brackets.verify_affgebroid": ("brackets", "verify_affgebroid"),
    "brackets.hull_extend": ("brackets", "hull_extend"),
    "brackets.aff_jacobi_bracket": ("brackets", "aff_jacobi_bracket"),
    "brackets.is_aff_poisson": ("brackets", "is_aff_poisson"),
    "brackets.bracket_expansions": [("brackets", "LieAffgebroidData.bracket"),
                                    ("brackets", "LieAffgebroidData.second_linear"),
                                    ("brackets", "HullAlgebroidData.bracket")],
    "phase.canonical_poisson": ("phase", "canonical_poisson"),
    "phase.omega_Z": ("phase", "omega_Z"),
    "phase.eq1_aff_poisson": ("phase", "eq1_aff_poisson"),
    "phase.check_affine_reduction": ("phase", "check_affine_reduction"),
    "cli.main": ("cli", "main"),
    "cli.load": ("cli", "Scenario.__init__"),
    "cli.run_scenario": ("cli", "run_scenario"),
}
# Recursive through their own module globals: record the outermost call only.
RECURSIVE = {
    "symexpr.evaluate": ("symexpr", "evaluate"),
    "symexpr.differentiate": ("symexpr", "differentiate"),
    "symexpr.subst": ("symexpr", "subst"),
}
# Every public function and method of these modules counts as one layer.
WHOLE_MODULES = ("affine", "duality")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, total_s]
        self.steps = 0                     # RK4 steps taken by integrate
        self.missing: list[str] = []
        self._stack = [0.0]                # enclosed time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call is recorded under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - enclosed
                stats[2] += elapsed

        return functools.wraps(fn)(traced)

    # -- installation ------------------------------------------------------

    def _module(self, short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def _resolve(self, short: str, qualname: str):
        """(owner, attribute, original) or None when the target is gone."""
        owner = self._module(short)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        attr = parts[-1]
        original = (owner.__dict__ if inspect.isclass(owner) else vars(owner)).get(attr)
        if original is None or not callable(original):
            return None
        return owner, attr, original

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        self._set(owner, attr, wrapper)
        if inspect.isclass(owner):
            return
        for name, mod in list(sys.modules.items()):
            if mod is owner or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _target(self, name: str, short: str, qualname: str, make) -> None:
        found = self._resolve(short, qualname)
        if found is None:
            self.missing.append(f"{short}.{qualname}")
            self.stats.setdefault(name, [0, 0.0, 0.0])
            return
        owner, attr, original = found
        self._replace(owner, attr, original, make(original))

    def install(self) -> None:
        """Wrap the targets of the affgeo modules imported now.

        Counts add up over installs; ``missing`` lists this install's gaps.
        """
        self.missing = []
        for name, targets in SPANS.items():
            for short, qualname in (targets if isinstance(targets, list) else [targets]):
                self._target(name, short, qualname, self._maker(name))
        for name, (short, qualname) in RECURSIVE.items():
            self._target(name, short, qualname, self._outermost(name, short, qualname))
        self._observed_hamiltonian()
        for short in WHOLE_MODULES:
            self._whole_module(short)

    def _maker(self, name: str):
        if name == "symexpr.compile_fn":
            def make(original):
                def compile_fn(*args, **kwargs):
                    return self.span("symexpr.compiled", original(*args, **kwargs))
                return self.span(name, compile_fn)
            self.stats.setdefault("symexpr.compiled", [0, 0.0, 0.0])
            return make
        if name == "mechanics.integrate":
            def make(original):
                def integrate(*args, **kwargs):
                    traj = original(*args, **kwargs)
                    self.steps += len(traj.times) - 1
                    return traj
                return self.span(name, integrate)
            return make
        return lambda original: self.span(name, original)

    def _outermost(self, name: str, short: str, qualname: str):
        module = self._module(short)

        def make(original):
            inner = self.span(name, original)

            def outermost(*args, **kwargs):
                setattr(module, qualname, original)
                try:
                    return inner(*args, **kwargs)
                finally:
                    setattr(module, qualname, outermost)

            return functools.wraps(original)(outermost)

        return make

    def _whole_module(self, short: str) -> None:
        module = self._module(short)
        self.stats.setdefault(short, [0, 0.0, 0.0])
        if module is None:
            self.missing.append(short)
            return
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                self._replace(module, attr, obj, self.span(short, obj))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        self._set(obj, meth, self.span(short, fn))

    def _observed_hamiltonian(self) -> None:
        """Record calls of the closures ``observed_hamiltonian`` returns."""
        name = "mechanics.observed_hamiltonian"
        self.stats.setdefault(name, [0, 0.0, 0.0])

        def make(original):
            @functools.wraps(original)
            def factory(*args, **kwargs):
                return self.span(name, original(*args, **kwargs))
            return factory

        self._target(name, "mechanics", "observed_hamiltonian", make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
