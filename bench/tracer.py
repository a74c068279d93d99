"""Spans and counters around the library's layer boundaries.

Wrappers are installed from outside: on class methods, on every
module-level binding of a wrapped function (`from .magnus import
eval_word` copies the name into `free_solvable` and `cli`), and on the
`verify.ALL_CHECKS` table.  A span records its name, start, end, parent
span and op.  Self time is a span's duration minus the time its child
spans cover; it is accumulated as spans close, so the totals hold even
for runs with millions of spans, of which only the first SPAN_LIMIT
are kept for the span file.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Any, Callable

MODULES = ("words", "groups", "group_ring", "magnus", "free_solvable", "wreath",
           "linalg", "equations", "verify", "cli")

#: Spans kept for the span file; totals cover every span.
SPAN_LIMIT = 100_000

VERIFY_CHECKS = ("product_rule", "sigma", "no_torsion", "series_criteria",
                 "lex_drop", "rank_bounds", "retraction")


def _timed(*names: str) -> list[str]:
    return [f"{name}.{stat}" for name in names for stat in ("calls", "self_s")]


#: Every per-layer metric, in output order.  Names are
#: <module>.<function>[.n<class>].<stat>.
PER_LAYER: list[str] = [
    *_timed("words.parse"), "words.parse.letters_out",
    *_timed("groups.commutator", "groups.conjugate", "groups.pow"),
    *_timed("group_ring.translate"), "group_ring.translate.terms_in",
    *_timed("group_ring.add"), "group_ring.add.terms_in",
    *_timed("group_ring.mul"), "group_ring.mul.term_products",
    "group_ring.peak_support",
    *_timed("magnus.split_mul.n2", "magnus.split_mul.n3", "magnus.split_mul.n4",
            "magnus.split_inv", "magnus.eval_word"),
    "magnus.eval_word.letters",
    *_timed("magnus.key"), "magnus.key.chars",
    *_timed("magnus.sigma"),
    *_timed("free_solvable.mul.n1", "free_solvable.mul.n2", "free_solvable.mul.n3",
            "free_solvable.mul.n4", "free_solvable.normalize", "free_solvable.key"),
    "free_solvable.key.max_chars",
    *_timed("free_solvable.ball"), "free_solvable.ball.elements",
    "free_solvable.ball.words_tried", "free_solvable.ball.distinct_ratio",
    *_timed("free_solvable.member"),
    *_timed("wreath.embed", "wreath.to_function"),
    *_timed("linalg.smith"), "linalg.smith.max_digits", "linalg.smith.capped",
    *_timed("linalg.laurent_rank", "linalg.exact_div"),
    "linalg.laurent_mul.calls", "linalg.laurent_mul.term_products",
    *_timed("linalg.coset_rank", "linalg.pdim"),
    *_timed("equations.solve"), "equations.solve.assignments_tried",
    "equations.solve.solutions", "equations.solve.hit_ratio",
    *[f"verify.{check}.elapsed_s" for check in VERIFY_CHECKS],
    "verify.samples", "verify.elapsed_gap_max_s",
    *_timed("cli.main"), "cli.output_bytes",
    "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.3",
    "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead", "trace.spans",
]


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("self_s", "elapsed_s", "elapsed_gap_max_s"):
        return "s"
    if stat in ("distinct_ratio", "hit_ratio", "overhead"):
        return "1"
    if name == "cli.output_bytes":
        return "B"
    if stat.endswith("ops_per_s"):
        return "op/s"
    return "count"


class Tracer:
    def __init__(self, cap_error: type[BaseException]):
        self.cap_error = cap_error
        self.op_id = -1
        self.stack: list[list[Any]] = []  # [span id, child seconds, direct mul children]
        self.spans = 0
        self.timing: dict[str, list[Any]] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, float] = {}
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.log = {"name": array("i"), "start": array("d"), "end": array("d"),
                    "parent": array("q"), "op": array("i")}
        self.last_ball_elements = 0

    # -- counters ----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    # -- spans -------------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[[tuple[Any, ...]], str],
        after: Callable[[tuple[Any, ...], Any, list[Any], float], None] | None = None,
        before: Callable[[tuple[Any, ...]], Any] | None = None,
        counts_in_parent: bool = False,
    ) -> Callable[..., Any]:
        """`after(args, result, frame, duration)` runs once the span has
        closed, so its cost is not in the span's self time."""
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_name = name(args) if callable(name) else name
            if before is not None:
                args_state = before(args)
            if counts_in_parent and stack:
                stack[-1][2] += 1
            span_id = tracer.spans
            tracer.spans = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                tracer._close(span_name, frame, parent, start, clock())
                if isinstance(error, tracer.cap_error) and span_name == "linalg.smith":
                    tracer.add("linalg.smith.capped", 1)
                raise
            end = clock()
            tracer._close(span_name, frame, parent, start, end)
            if after is not None:
                after(args, result if before is None else (result, args_state),
                      frame, end - start)
            return result

        return wrapper

    def _close(self, span_name: str, frame: list[Any], parent: int, start: float,
               end: float) -> None:
        stack = self.stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        entry = self.timing.get(span_name)
        if entry is None:
            entry = self.timing[span_name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame[1]
        if frame[0] < SPAN_LIMIT:
            name_id = self.name_ids.get(span_name)
            if name_id is None:
                name_id = self.name_ids[span_name] = len(self.names)
                self.names.append(span_name)
            log = self.log
            log["name"].append(name_id)
            log["start"].append(start)
            log["end"].append(end)
            log["parent"].append(parent)
            log["op"].append(self.op_id)

    def span_table(self) -> dict[str, Any]:
        """Kept spans in span-id order (ids are assigned at span start)."""
        order = sorted(range(len(self.log["start"])), key=self.log["start"].__getitem__)
        return {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [[self.log["name"][i], self.log["start"][i], self.log["end"][i],
                       self.log["parent"][i], self.log["op"][i]] for i in order],
            "total_spans": self.spans,
        }

    def self_time_by_module(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, (_, seconds) in self.timing.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in PER_LAYER:
            base, stat = name.rsplit(".", 1)
            if stat == "calls" and base in self.timing:
                out[name] = self.timing[base][0]
            elif stat == "self_s" and base in self.timing:
                out[name] = self.timing[base][1]
            else:
                out[name] = self.counts.get(name, 0)
        tried = out["free_solvable.ball.words_tried"]
        out["free_solvable.ball.distinct_ratio"] = (
            self.counts.get("free_solvable.ball.distinct", 0) / tried if tried else 0)
        tried = out["equations.solve.assignments_tried"]
        out["equations.solve.hit_ratio"] = (
            out["equations.solve.solutions"] / tried if tried else 0)
        out["trace.spans"] = self.spans
        return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported rigidsolv package."""
    from rigidsolv import (cli, equations, free_solvable, group_ring, groups, linalg,
                           magnus, verify, words, wreath)

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "rigidsolv"]
    t = tracer

    def function(module: Any, attr: str, name: str, after: Any = None) -> None:
        original = getattr(module, attr)
        wrapper = t.wrap(original, name, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        for key, value in list(verify.ALL_CHECKS.items()):
            if value is original:
                verify.ALL_CHECKS[key] = wrapper

    def method(cls: type, attr: str, name: Any, after: Any = None, **kw: Any) -> None:
        setattr(cls, attr, t.wrap(vars(cls)[attr], name, after, **kw))

    def letters_out(args: Any, result: Any, frame: Any, duration: float) -> None:
        t.add("words.parse.letters_out", len(result))

    def ring(stat: str, terms: Callable[[Any], int]) -> Any:
        def after(args: Any, result: Any, frame: Any, duration: float) -> None:
            t.add(stat, terms(args))
            t.peak("group_ring.peak_support", len(result.support))
        return after

    def by_class(prefix: str, level: Callable[[Any], int]) -> Callable[[Any], str]:
        names: dict[int, str] = {}  # no string formatting on the hot path

        def name(args: Any) -> str:
            n = level(args[0])
            if n not in names:
                names[n] = f"{prefix}.n{n}"
            return names[n]
        return name

    def key_chars(args: Any, result: Any, frame: Any, duration: float) -> None:
        key, was_unbuilt = result
        if was_unbuilt:
            t.add("magnus.key.chars", len(key))

    def key_max(args: Any, result: Any, frame: Any, duration: float) -> None:
        t.peak("free_solvable.key.max_chars", len(result))

    def ball(args: Any, result: Any, frame: Any, duration: float) -> None:
        t.add("free_solvable.ball.elements", len(result))
        t.add("free_solvable.ball.words_tried", frame[2])
        # The identity seeds the search; it is not a tried word.
        t.add("free_solvable.ball.distinct", len(result) - 1)
        t.last_ball_elements = len(result)

    def smith(args: Any, result: Any, frame: Any, duration: float) -> None:
        digits = max((len(str(abs(x))) for m in (result.left, result.right)
                      for row in m for x in row), default=0)
        t.peak("linalg.smith.max_digits", digits)

    def laurent_mul(args: Any, result: Any, frame: Any, duration: float) -> None:
        t.add("linalg.laurent_mul.term_products", len(args[0].terms) * len(args[1].terms))

    def solve(args: Any, result: Any, frame: Any, duration: float) -> None:
        t.add("equations.solve.assignments_tried", t.last_ball_elements ** result.nvars)
        t.add("equations.solve.solutions", len(result))

    def check(name: str) -> Any:
        def after(args: Any, report: Any, frame: Any, duration: float) -> None:
            t.add(f"verify.{name}.elapsed_s", report.elapsed)
            t.add("verify.samples", report.samples)
            t.peak("verify.elapsed_gap_max_s", abs(duration - report.elapsed))
        return after

    function(words, "parse_word", "words.parse", letters_out)
    function(words, "parse_letters", "words.parse", letters_out)
    for attr in ("commutator", "conjugate", "pow"):
        method(groups.Group, attr, f"groups.{attr}")
    ring_cls = group_ring.RingElement
    method(ring_cls, "translate", "group_ring.translate",
           ring("group_ring.translate.terms_in", lambda a: len(a[0].support)))
    method(ring_cls, "__add__", "group_ring.add",
           ring("group_ring.add.terms_in", lambda a: len(a[0].support) + len(a[1].support)))
    method(ring_cls, "__mul__", "group_ring.mul",
           ring("group_ring.mul.term_products",
                lambda a: len(a[0].support) * len(a[1].support)))
    split = magnus.SplitMatrix
    # A product of split matrices over S(m, n-1) is a product in S(m, n);
    # other base groups (wreath products) count as n0.
    method(split, "__mul__",
           by_class("magnus.split_mul", lambda p: getattr(p.base, "n", -1) + 1))
    method(split, "inv", "magnus.split_inv")
    method(split, "key", "magnus.key", key_chars, before=lambda a: a[0]._key is None)
    function(magnus, "eval_word", "magnus.eval_word",
             lambda a, r, f, d: t.add("magnus.eval_word.letters", len(a[0])))
    function(magnus, "sigma", "magnus.sigma")
    method(free_solvable.FreeSolvableGroup, "mul",
           by_class("free_solvable.mul", lambda group: group.n), counts_in_parent=True)
    method(free_solvable.SolvableElement, "key", "free_solvable.key", key_max)
    function(free_solvable, "normalize", "free_solvable.normalize")
    function(free_solvable, "ball_enumerate", "free_solvable.ball", ball)
    function(free_solvable, "series_member_projection", "free_solvable.member")
    function(free_solvable, "series_member_commutator", "free_solvable.member")
    function(wreath, "embed_free_solvable", "wreath.embed")
    function(wreath, "matrix_to_function", "wreath.to_function")
    function(linalg, "smith_form", "linalg.smith", smith)
    function(linalg, "laurent_rank", "linalg.laurent_rank")
    function(linalg, "exact_div", "linalg.exact_div")
    method(linalg.LaurentPoly, "__mul__", "linalg.laurent_mul", laurent_mul)
    function(linalg, "coset_rank", "linalg.coset_rank")
    function(linalg, "principal_dimension_metabelian", "linalg.pdim")
    function(linalg, "closed_form_dimension", "linalg.pdim")
    function(equations, "solve_ball", "equations.solve", solve)
    for name in VERIFY_CHECKS:
        function(verify, f"check_{name}", f"verify.{name}", check(name))
    function(cli, "main", "cli.main")
