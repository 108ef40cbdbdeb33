"""Spans around calls into the library's public functions, kept in memory.

A traced round installs a wrapper in place of each function listed in
SPANS.  The wrapper replaces every global of a loaded ``parity_ising``
module that is bound to the function, so calls the library makes from one
module into another (``from .perturbation import second_variation``) and
calls inside the defining module are recorded too.  Each span stores its
layer label, its parent span and its start and end times; per-layer
figures are computed from the span list after the round.
"""

import sys
import time
from functools import wraps

# (module, function, layer label); several functions may share a label.
SPANS = (
    ("cli", "main", "cli"),
    ("disorder", "expected_utility", "disorder.expected_utility"),
    ("disorder", "histogram_experiment", "disorder.histogram_experiment"),
    ("disorder", "predicted_shift", "disorder.predicted_shift"),
    ("parity_game", "advantage_density", "parity_game.density"),
    ("parity_game", "find_advantage_boundary", "parity_game.boundary"),
    ("perturbation", "second_variation", "perturbation.prediction"),
    ("perturbation", "chi_prime", "perturbation.prediction"),
    ("perturbation", "chi_double_prime", "perturbation.prediction"),
    ("perturbation", "laplacian_u", "perturbation.prediction"),
    ("perturbation", "hessian_kernel", "perturbation.kernel"),
    ("perturbation", "laplacian_density_limit", "perturbation.laplacian_limit"),
    ("perturbation", "laplacian_crossover_thermodynamic", "perturbation.crossover"),
    ("asymptotics", "critical_scaling", "asymptotics.critical"),
    ("oracle", "dense_ground_state", "oracle.dense"),
    ("oracle", "simulate_bbt", "oracle.protocol"),
    ("oracle", "numerical_hessian", "oracle.stencil"),
    ("verify", "run_checks", "verify.run"),
)

CHECK_LABEL = "verify.check."


class Tracer:
    """An in-memory span recorder; spans nest through a call stack."""

    def __init__(self):
        self.spans = []  # [label, parent index or None, start, end]
        self._stack = []
        self._restore = []

    def call(self, label, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([label, parent, time.perf_counter(), None])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, label, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(label, fn, *args, **kwargs)

        return traced

    def install(self):
        """Swap the wrappers into every loaded parity_ising module."""
        package = sys.modules["parity_ising"]
        targets = [
            (getattr(getattr(package, module_name), function_name), label)
            for module_name, function_name, label in SPANS
        ]
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("parity_ising.")]
        for original, label in targets:
            traced = self.wrap(label, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, traced)
        verify = package.verify
        self._restore.append((verify, "FULL_CHECKS", verify.FULL_CHECKS))
        verify.FULL_CHECKS = tuple(
            self.wrap(CHECK_LABEL + check.__name__, check) for check in verify.FULL_CHECKS
        )

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- figures from the span list ------------------------------------------

    def _duration(self, span):
        return span[3] - span[2]

    def _outermost(self, label):
        """Spans with this label that no span of the same label encloses."""
        out = []
        for span in self.spans:
            if span[0] != label:
                continue
            parent = span[1]
            while parent is not None and self.spans[parent][0] != label:
                parent = self.spans[parent][1]
            if parent is None:
                out.append(span)
        return out

    def total(self, label):
        """Time inside the label's calls, nested calls of the same label counted once."""
        return sum(self._duration(span) for span in self._outermost(label))

    def count(self, label):
        return sum(1 for span in self.spans if span[0] == label)

    def self_time(self, label):
        """Time inside the label's calls not covered by the spans they directly enclose."""
        children = {}
        for span in self.spans:
            if span[1] is not None:
                children[span[1]] = children.get(span[1], 0.0) + self._duration(span)
        return sum(
            self._duration(span) - children.get(index, 0.0)
            for index, span in enumerate(self.spans)
            if span[0] == label
        )

    def labels(self, prefix):
        return sorted({span[0] for span in self.spans if span[0].startswith(prefix)})
