"""Run-time spans around the public calls of each shiftbounds layer.

:class:`Tracer` replaces the listed functions and methods with thin
wrappers that record one span per call (name, parent span, start, end,
request id, and for membership tests the number of points).  Names a
module imported from another (``from .mc import estimate_shift_prob``)
and function tables (``SUITES``, ``_COMMANDS``) are patched too, so a
call is traced whichever name it goes through.  :meth:`Tracer.uninstall`
puts every original back; nothing in the package's source changes.

Spans nest through one stack, which holds because the benchmark removes
SHIFTBOUNDS_THREADS and so every chunk runs on the calling thread.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

# Module-level functions per layer.  Integrand helpers (std_normal_pdf,
# regularized_gamma_p, chi_square_cdf) stay unwrapped: they run
# thousands of times inside each quadrature and would mostly time the
# wrapper.
FUNCTIONS = {
    "cli": ("main", "cmd_bounds", "cmd_power", "cmd_verify", "cmd_support"),
    "config": ("parse_run_config", "encode_report"),
    "suites": (
        "suite_kernels", "suite_oracles", "suite_sandwich",
        "suite_derivative", "suite_conditional", "suite_power",
    ),
    "mc": (
        "estimate_shift_prob", "estimate_layered_expectation", "estimate_power",
        "estimate_conditional_center", "verify_derivative_identity",
        "verify_sandwich", "verify_power_envelope",
    ),
    "bounds": (
        "ratio_bounds_set", "ratio_bounds_layered", "power_envelope",
        "build_layered", "shift_exponent", "extremal_slab",
    ),
    "bodies": ("body_from_dict", "probe_scale"),
    "lp": ("simplex_max",),
    "linalg": ("build_covariance", "identity_covariance", "mahalanobis_norm"),
    "oracles": ("oracle_ball", "oracle_slab"),
    "kernels": ("shift_ratio", "slab_mass", "slab_decay_slack"),
}

BODY_KINDS = ("Slab", "LpBall", "Ellipsoid", "HPolytope", "Intersection", "LinearImage")

METHODS = {
    "bodies": {kind: ("contains_batch", "support", "support_point") for kind in BODY_KINDS},
    "bounds": {"LayeredUnimodal": ("evaluate_batch",)},
}


@dataclass
class Span:
    name: str
    parent: int
    request: int
    start: float
    end: float = 0.0
    rows: int = 0


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    top_calls: int = 0
    top_rows: int = 0


def _method(name: str) -> str:
    return name.rsplit(".", 1)[-1]


@dataclass
class Tracer:
    """Collects spans in memory; aggregate with :meth:`stats` afterwards."""

    spans: list[Span] = field(default_factory=list)
    request: int = -1
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    def _open(self, name: str, rows: int = 0) -> Span:
        span = Span(
            name,
            self._stack[-1] if self._stack else -1,
            self.request,
            time.perf_counter(),
            rows=rows,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a pass or a request)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name: str, fn, counts_rows: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name, len(args[1]) if counts_rows else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(s)

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "shiftbounds" or n.startswith("shiftbounds."))
        ]
        for layer, names in FUNCTIONS.items():
            module = sys.modules[f"shiftbounds.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._replace(modules, original, self._wrap(f"{layer}.{name}", original))
        for layer, classes in METHODS.items():
            module = sys.modules[f"shiftbounds.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    wrapped = self._wrap(
                        f"{layer}.{cls_name}.{method}", original, method == "contains_batch"
                    )
                    setattr(cls, method, wrapped)
                    self._restore.append((setattr, cls, method, original))

    def _replace(self, modules, original, wrapped) -> None:
        """Point every module global and module-level table at `wrapped`."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._restore.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
                            self._restore.append((dict.__setitem__, value, k, original))

    def uninstall(self) -> None:
        for put, target, key, original in reversed(self._restore):
            put(target, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def stats(self, per_request: bool = False) -> dict:
        """Calls, self time, top-level calls and top-level rows per span name.

        Keyed by name, or by (request, name) when `per_request`.  A span
        is top level when its parent is not a call of the same method, so
        an intersection's parts or an image's base are not counted twice.
        """
        own = self.self_times()
        out: dict = {}
        for i, s in enumerate(self.spans):
            st = out.setdefault((s.request, s.name) if per_request else s.name, LayerStats())
            st.calls += 1
            st.self_s += own[i]
            if s.parent < 0 or _method(self.spans[s.parent].name) != _method(s.name):
                st.top_calls += 1
                st.top_rows += s.rows
        return out

    def nesting_errors(self, slack: float = 1e-9) -> list[str]:
        """Spans that leave their parent's interval or have negative self time."""
        errors = []
        own = self.self_times()
        for i, s in enumerate(self.spans):
            if s.end < s.start:
                errors.append(f"span {i} {s.name} ends before it starts")
            if own[i] < -slack:
                errors.append(f"span {i} {s.name} has self time {own[i]!r}")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    errors.append(f"span {i} {s.name} escapes its parent {p.name}")
        return errors
