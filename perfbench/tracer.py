"""Per-layer tracing from outside the program.

The layers are the modules of ``trace_lab``.  ``Tracer.installed()`` wraps
the public functions listed in ``TARGETS`` and rebinds every module-level
name that refers to one of them in every ``trace_lab`` namespace (modules
import functions by name, e.g. ``semistable`` binds
``shell_char_integral``), and restores every binding on exit.

A target is traced in one of three modes:

* ``count`` counts calls only.  It is used for the functions called about
  a million times per pass, where timing each call would dominate.
* ``time`` also times each call and feeds its stats in place, without
  keeping the span, to bound memory.
* ``span`` times each call and keeps a span: name, start, end, parent span
  and request id.  Spans stay in memory until the run writes them out.

Self time is a call's duration minus the durations of the timed
(``time`` or ``span``) traced calls directly below it; ``count`` targets
are transparent.  ``terms`` sums the returned ``EvalResult.terms_used``
(or that of the report's ``result``) and ``unconverged`` counts returns
with ``converged`` false.
"""
from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# the Haar sampler draws int64 digits
_DIGIT_BYTES = 8


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    mode: str
    stats: tuple[str, ...]
    # name of the argument whose value splits the layer into sub-layers
    variant: str | None = None
    variants: tuple[str, ...] = ()


TARGETS = (
    Target("core", "require_prime", "count", ("calls",)),
    Target("core", "CompensatedSum.add", "count", ("calls",)),
    Target("padic", "valuation", "time", ("calls", "self_s")),
    Target("padic", "prime_support", "time", ("calls", "self_s")),
    Target("padic", "frac_part", "count", ("calls",)),
    Target("padic", "char_qp", "count", ("calls",)),
    Target("padic_integrals", "shell_char_integral", "time", ("calls", "self_s")),
    Target("padic_integrals", "ball_char_integral", "count", ("calls",)),
    Target("padic_integrals", "mc_haar_zp", "span", ("s", "digits", "bytes")),
    Target("padic_integrals", "integrate_radial", "span", ("s", "terms")),
    Target("padic_integrals", "padic_gamma", "span", ("s", "terms")),
    Target("padic_integrals", "exp_radial_closed", "span", ("s", "terms")),
    Target("semistable", "mass_check", "span", ("calls", "s", "self_s", "terms", "unconverged")),
    Target("semistable", "density", "span", ("calls", "s", "terms")),
    Target("semistable", "char_fn", "time", ("calls", "self_s")),
    Target("lattice", "spectral_trace", "span", ("calls", "s", "terms", "unconverged")),
    Target(
        "lattice",
        "wrapped_density",
        "span",
        ("s", "terms", "unconverged"),
        variant="mode",
        variants=("spectral", "lattice"),
    ),
    Target("lattice", "potential_identity", "span", ("s",)),
    Target("real_stable", "stable_density", "span", ("s",)),
    Target("real_stable", "gaussian_transform_numeric", "span", ("s",)),
    Target("real_stable", "theta_potential_integral", "span", ("s",)),
    Target("real_stable", "cauchy_psf_report", "span", ("s",)),
    Target("adeles", "scale_by_idele", "span", ("s",)),
    Target("adeles", "bs_eval", "time", ("calls", "self_s")),
    Target("adeles", "enumerate_D", "span", ("calls", "s")),
    Target("adeles", "rational_char_sum", "span", ("s",)),
    Target("adeles", "idele_norm", "span", ("calls", "s")),
    Target("adeles", "adelic_theta_reduction", "span", ("s",)),
    Target("cli", "run_request", "span", ("calls", "self_s")),
)

UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "terms": "count",
    "unconverged": "count",
    "digits": "digits.computed",
    "bytes": "bytes.computed",
}


def layer_names(target: Target) -> list[str]:
    base = f"{target.module}.{target.attr}"
    return [f"{base}.{v}" for v in target.variants] if target.variant else [base]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for target in TARGETS:
        for layer in layer_names(target):
            for stat in target.stats:
                out.append((f"{layer}.{stat}", UNITS[stat]))
    return out


class _Stat:
    __slots__ = ("calls", "s", "self_s", "terms", "unconverged", "digits")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.s = self.self_s = 0.0
        self.terms = self.unconverged = self.digits = 0


class Tracer:
    """Wraps the ``TARGETS`` while installed and accumulates their stats."""

    def __init__(self):
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.span_names: list[str] = []
        self.request_id = 0
        self.missing: list[str] = []
        self._stats: dict[str, _Stat] = {}
        self._name_ids: dict[str, int] = {}
        # one entry per active timed call: [child time, span index]
        self._stack: list[list] = []

    def take(self) -> dict[str, float]:
        """Per-layer values accumulated since the last call, then reset."""
        out = {}
        for target in TARGETS:
            for layer in layer_names(target):
                st = self._stat(layer)
                for stat in target.stats:
                    value = st.digits * _DIGIT_BYTES if stat == "bytes" else getattr(st, stat)
                    out[f"{layer}.{stat}"] = value
                st.reset()
        return out

    def _stat(self, layer: str) -> _Stat:
        st = self._stats.get(layer)
        if st is None:
            st = self._stats[layer] = _Stat()
        return st

    def _wrap(self, target: Target, fn):
        layer = f"{target.module}.{target.attr}"
        if target.mode == "count":
            st = self._stat(layer)

            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)

            return counted

        sig = inspect.signature(fn)
        needs_args = target.variant is not None or "digits" in target.stats
        keep_span = target.mode == "span"
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter

        def timed(*args, **kwargs):
            name = layer
            bound = None
            if needs_args:
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError:
                    return fn(*args, **kwargs)
                bound.apply_defaults()
                if target.variant is not None:
                    name = f"{layer}.{bound.arguments[target.variant]}"
            st = self._stat(name)
            span_idx = -1
            if keep_span:
                name_id = self._name_ids.get(name)
                if name_id is None:
                    name_id = self._name_ids[name] = len(self.span_names)
                    self.span_names.append(name)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                span_idx = len(spans)
                spans.append((name_id, 0.0, 0.0, parent, self.request_id))
            frame = [0.0, span_idx]
            stack.append(frame)
            start = perf()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.s += dur
                st.self_s += dur - frame[0]
                if keep_span:
                    name_id, _, _, parent, req = spans[span_idx]
                    spans[span_idx] = (name_id, start, end, parent, req)
            res = ret if hasattr(ret, "terms_used") else getattr(ret, "result", None)
            if hasattr(res, "terms_used"):
                st.terms += res.terms_used
                st.unconverged += res.converged is False
            if bound is not None and "digits" in target.stats:
                st.digits += bound.arguments["count"] * bound.arguments["depth"]
            return ret

        return timed

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "trace_lab" or name.startswith("trace_lab."))
        ]
        bindings: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for target in TARGETS:
                module = sys.modules.get(f"trace_lab.{target.module}")
                owner_path, _, attr = target.attr.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                wrapper = self._wrap(target, fn)
                if owner_path:
                    bindings.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            bindings.append((ns, name, fn))
                            setattr(ns, name, wrapper)
            yield self
        finally:
            for owner, name, fn in reversed(bindings):
                setattr(owner, name, fn)

    def span_records(self) -> dict:
        return {"names": self.span_names, "fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}
