"""Per-layer spans, recorded from outside the package.

`traced()` replaces the public functions of each layer with timing
wrappers for the length of a `with` block, and puts the originals back
afterwards. A function is replaced in every loaded loophom module that
holds it, because several modules import layer functions by name (for
example `analysis.differential_matrix` or `spaces.e2_page`); patching only
the defining module would miss those calls.

Spans are aggregated per name, not kept one by one: the wide workload
makes close to a million wrapped calls. A span's self time is its
duration minus the time covered by the wrapped spans it called.

`scalars` is not wrapped: its calls take about 100 ns, less than a
wrapper costs, and their time shows in the self time of `dga` and
`linalg`. `errors` does no work.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter


class Span:
    """Totals for one span name: calls, self time and work counts."""

    __slots__ = ("calls", "self_s", "counts", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict = {}
        self.keys: dict = {}  # distinct arguments, where a layer counts them

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    def __init__(self):
        self.spans: dict = {}
        self.top_s = 0.0  # inclusive time of spans entered with no wrapped caller
        self._children = [0.0]  # per open span: time covered by its wrapped children

    def wrap(self, name: str, fn, count=None):
        """A wrapper timing `fn` under `name`; `count(span, args, result)`
        adds work counts after the clock stops."""
        span = self.spans.setdefault(name, Span())
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                covered = children.pop()
                children[-1] += elapsed
                if len(children) == 1:
                    self.top_s += elapsed
                span.calls += 1
                span.self_s += elapsed - covered
            if count is not None:
                count(span, args, result)
            return result

        wrapper.bench_span = name
        return wrapper

    def metrics(self) -> dict:
        """Every per-layer metric by its benchmark name."""
        out = {}
        for name, span in sorted(self.spans.items()):
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
            for key, value in sorted(span.counts.items()):
                out[f"{name}.{key}"] = value
        enum = self.spans["graded_algebra.enumerate_basis"]
        distinct = len(enum.keys)
        monomials = enum.counts.get("monomials", 0)
        out["graded_algebra.enumerate_basis.monomials"] = monomials
        out["graded_algebra.enumerate_basis.distinct"] = distinct
        out["graded_algebra.enumerate_basis.repeat_ratio"] = (
            enum.calls / distinct if distinct else 0.0
        )
        out["graded_algebra.enumerate_basis.us_per_monomial"] = (
            enum.self_s / monomials * 1e6 if monomials else 0.0
        )
        return out


def _count_basis(span, args, result):
    algebra, degree, weight = args
    span.add("monomials", len(result))
    # the algebra is kept so its id cannot be reused by a later algebra
    span.keys.setdefault((id(algebra), degree, weight), algebra)


def _count_terms(span, args, result):
    span.add("terms", len(result.terms))


def _count_matrix_nnz(span, args, result):
    span.add("nnz", len(result.entries))


def _count_argument_nnz(span, args, result):
    span.add("nnz", len(args[0].entries))


def _targets():
    """(span name, owner, attribute, counter) for every wrapped function.
    Imported here, not at module level, so importing this module does not
    import loophom."""
    from loophom import analysis, cli, dga, linalg, spaces
    from loophom.graded_algebra import GradedAlgebra

    return [
        ("graded_algebra.enumerate_basis", GradedAlgebra, "enumerate_basis", _count_basis),
        ("dga.apply_monomial", dga.Derivation, "apply_monomial", _count_terms),
        ("dga.differential_matrix", dga, "differential_matrix", _count_matrix_nnz),
        ("dga.homology_dimensions", dga, "homology_dimensions", None),
        ("dga.induced_map_on_homology", dga, "induced_map_on_homology", None),
        ("linalg.rank_sparse", linalg, "rank_sparse", _count_argument_nnz),
        ("linalg.kernel_basis", linalg, "kernel_basis", None),
        ("linalg.rank_of_columns", linalg, "rank_of_columns", None),
        ("spaces.e2_page", spaces, "e2_page", None),
        ("analysis.betti_table", analysis, "betti_table", None),
        ("analysis.checks", analysis, "check_collapse", None),
        ("analysis.checks", analysis, "check_periodicity", None),
        ("analysis.checks", analysis, "check_dichotomy", None),
        ("analysis.checks", analysis, "unit_check", None),
        ("cli.main", cli, "main", None),
    ]


def _holders(original):
    """(namespace, attribute) of every loaded loophom module attribute
    bound to `original`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "loophom" or mod_name.startswith("loophom.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


@contextmanager
def traced():
    """Install the wrappers, yield the Tracer, and restore every original."""
    tracer = Tracer()
    patched = []  # (namespace, attribute, original)
    try:
        for name, owner, attr, count in _targets():
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, count)
            holders = [(owner, attr)] if isinstance(owner, type) else list(_holders(original))
            for namespace, held_as in holders:
                setattr(namespace, held_as, wrapper)
                patched.append((namespace, held_as, original))
        yield tracer
    finally:
        for namespace, held_as, original in reversed(patched):
            setattr(namespace, held_as, original)
