"""Spans around the package's public layer functions, recorded from outside.

The tracer wraps each function below by rebinding its name in every
`so41inv` module namespace that holds it, and each method by patching the
class attribute, so the package itself is unchanged. Every wrapped call
records one span

    (name, operation id, parent span, start, end, self seconds, new key, x, y)

where self seconds is the span's duration minus the time its child spans
cover, `new key` is 1 when the call's argument was not seen before in this
process (hit ratio = 1 - new keys / calls, independent of how the package
memoizes), and x, y are per-call counts (terms out, accepted rows, ...).
Spans stay in memory and are written out when the process ends.

The recursive `uea.straighten_word` is deliberately not wrapped; the sizes
of the memo tables are read from module globals instead, and reported as
absent when a later version of the package drops them.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time


def _len_terms(args, result):
    return len(result.terms), 0


def _echelon_insert(args, accepted):
    if not accepted:
        return 0, 0
    rows = args[0].rows
    return 1, len(rows[next(reversed(rows))])   # the row just added is the last key


def _rows_nnz(args, rows):
    return sum(len(r) for r in rows), 0


def _text_bytes(args, text):
    return len(text.encode()), 0


def _first_arg(args):
    return args[0]


def _arg_pair(args):
    return args[0], args[1]


# Standard statistics of a span, computed by summarize() below: statistic ->
# (unit, better).
_STANDARD = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "total_s": ("s", "lower"), "hit_ratio": ("ratio", "higher")}

# (module, attribute path, argument key for hit ratio, per-call counts x and y,
#  metrics). The span is named "<module>.<path>" (`__init__` as `init`). A
# metric is a statistic of _STANDARD, reported as "<span>.<statistic>", or a
# full (metric name, statistic, unit, better).
TARGETS = (
    ("uea", "symmetrize_monomial", _first_arg, None, ("calls", "hit_ratio", "self_s")),
    ("uea", "pbw_pair_product", _arg_pair, None, ("calls", "hit_ratio", "self_s")),
    ("clifford", "CliffordAlgebra.__init__", None, None, ("calls", "self_s")),
    ("clifford", "CliffordAlgebra.k_action", None, None, ("calls", "self_s")),
    ("tensor_algebra", "TensorAlgebra.multiply", None, _len_terms,
     ("calls", "self_s",
      ("tensor_algebra.TensorAlgebra.multiply.terms_out", "x", "count", "lower"))),
    ("tensor_algebra", "TensorAlgebra.ad_action", None, None, ("calls", "self_s")),
    ("tensor_algebra", "TensorAlgebra.rho", None, None, ("self_s",)),
    ("tensor_algebra", "build_catalog", None, None, ("calls",)),
    ("tensor_algebra", "adjudicate_convention", None, None, ("total_s",)),
    ("tensor_algebra", "st_product_vectors", None, None, ("total_s",)),
    ("tensor_algebra", "uc_rank", None, None, ("total_s",)),
    ("linalg", "RationalEchelon.insert", None, _echelon_insert,
     ("calls", "self_s",
      ("linalg.RationalEchelon.insert.accept_ratio", "x_ratio", "ratio", "higher"),
      ("linalg.RationalEchelon.fill", "y", "count", "lower"))),
    ("linalg", "sparse_kernel", None, None, ("self_s",)),
    ("invariants", "zero_weight_keys", None, None, ("self_s",)),
    ("invariants", "_operator_rows", None, _rows_nnz,
     ("self_s", ("invariants.operator_rows.nnz", "x", "count", "lower"))),
    ("invariants", "rank_mod_p", None, None, ("calls", "self_s")),
    ("sym_ext", "ad_on_key", None, None, ("calls", "self_s")),
    ("sym_ext", "ad_action_se", None, None, ("self_s",)),
    ("sym_ext", "build_st_catalog", None, None, ("total_s",)),
    ("lie_core", "certify_against_oracle", None, None, ("total_s",)),
    ("parser", "parse", None, None, ("self_s",)),
    ("evaluator", "evaluate", None, None, ("self_s",)),
    ("serialization", "dumps_element", None, _text_bytes,
     ("calls", ("serialization.dumps_element.bytes", "x", "B", "lower"), "self_s")),
    ("serialization", "loads_element", None, None, ("self_s",)),
)


def _span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init')}"


# module global -> metric name
MEMOS = (
    ("uea", "_STRAIGHTEN", "uea.straighten_memo.entries"),
    ("uea", "_PAIR_PRODUCT", "uea.pair_product_memo.entries"),
    ("uea", "_SYMMETRIZE", "uea.symmetrize_memo.entries"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list = []       # open spans: [span index, time covered by children]
        self.operation = 0
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module, path, key, counts, _ in TARGETS:
            name = _span_name(module, path)
            mod = importlib.import_module(f"so41inv.{module}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, key, counts)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("so41inv"):
                    for var, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, var, wrapper)

    def _wrap(self, name, fn, key, counts):
        index = len(self.names)
        self.names.append(name)
        spans, stack, seen = self.spans, self.stack, set()
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                new = 0
                if key is not None:
                    k = key(args)
                    if k not in seen:
                        seen.add(k)
                        new = 1
                x, y = counts(args, result) if counts and result is not None else (0, 0)
                spans[frame[0]] = (index, self.operation, parent, start, end,
                                   end - start - frame[1], new, x, y)

        return wrapper

    @staticmethod
    def memo_sizes() -> dict[str, int | None]:
        out = {}
        for module, var, metric in MEMOS:
            table = getattr(sys.modules.get(f"so41inv.{module}"), var, None)
            out[metric] = len(table) if isinstance(table, dict) else None
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "missing": self.missing,
                "memo": self.memo_sizes()}


# -- per-layer metrics -----------------------------------------------------------------

def layer_metric_specs() -> list[tuple[str, str, str, str, str]]:
    """(metric name, span name, statistic, unit, better) for one pass."""
    specs = []
    for module, path, _, _, metrics in TARGETS:
        span = _span_name(module, path)
        for m in metrics:
            if isinstance(m, str):
                m = (f"{span}.{m}", m, *_STANDARD[m])
            name, stat, unit, better = m
            specs.append((name, span, stat, unit, better))
    return specs


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    calls = [(name, unit, better) for name, _, _, unit, better in layer_metric_specs()]
    return (calls + [(f"warm.{name}", unit, better) for name, unit, better in calls]
            + [(metric, "count", "lower") for _, _, metric in MEMOS]
            + [("cli.import_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")])


def summarize(dumps: list[dict], keep) -> tuple[dict[str, float], set[str]]:
    """Layer metrics over the spans of `dumps` whose operation id passes
    `keep`, and the names of metrics whose target no longer exists."""
    acc: dict[str, list] = {}   # span name -> [calls, self, total, new, x, y]
    missing: set[str] = set()
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        missing.update(dump["missing"])
        for index, op, parent, start, end, self_s, new, x, y in spans:
            if not keep(op):
                continue
            a = acc.setdefault(names[index], [0, 0.0, 0.0, 0, 0, 0])
            a[0] += 1
            a[1] += self_s
            a[3] += new
            a[4] += x
            a[5] += y
            while parent >= 0 and spans[parent][0] != index:
                parent = spans[parent][2]
            if parent < 0:   # outermost call of this name: count its whole duration
                a[2] += end - start
    out, absent = {}, set()
    for metric, span, stat, _, _ in layer_metric_specs():
        if span in missing:
            absent.add(metric)
            out[metric] = 0.0
            continue
        calls, self_s, total_s, new, x, y = acc.get(span, [0, 0.0, 0.0, 0, 0, 0])
        out[metric] = {
            "calls": calls, "self_s": self_s, "total_s": total_s, "x": x, "y": y,
            "hit_ratio": 1 - new / calls if calls else 0.0,
            "x_ratio": x / calls if calls else 0.0,
        }[stat]
    return out, absent
