"""Finite query-model problems: ordered-search variants and composition.

A problem is a finite set of instance strings over a fixed symbol alphabet
together with an answer map.  The three families built here:

  * ``make_os(m)``    -- ordered search: UP^(k-1) STAR DN^(m-k) |-> k;
  * ``make_hsos(m)``  -- hidden-symbol ordered search:
                         RT^(k-1) x LT^(m-k) |-> x for x in {UP, DN, STAR};
  * ``make_nos(a,b)`` -- the composition of OS_a over a copies of HSOS_b.

``compose`` implements generic block composition: the composed domain is the
union over outer instances of the per-block preimage products, with strings
concatenated.  Hidden-symbol ordered search is the motivating example of a
*search labeling*: instances can be written (sigma, j) so that any single
query either reveals nothing about sigma or pins it down completely; whether
two instances agree at a position depends only on their variant indices and
on whether their answers coincide.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Sequence

import numpy as np

from .matrices import LabeledMatrix


class Sym(IntEnum):
    """Closed symbol alphabet with fixed byte codes for serialization."""

    UP = 0
    DN = 1
    ST = 2  # the star
    RT = 3
    LT = 4

    @property
    def arrow(self) -> str:
        return "↑↓*→←"[self.value]


SYMBOL_NAMES = {s: s.name for s in Sym}


def render_string(s: bytes) -> str:
    """Human-readable arrow form of an instance string."""
    return "".join(Sym(b).arrow for b in s)


class ProblemError(ValueError):
    """Invalid problem construction or composition."""


@dataclass(frozen=True)
class QueryProblem:
    """A function on a finite set of equal-length strings.

    ``instances`` fixes the row/column order of every matrix built over the
    problem; ``answer`` maps each instance string to its output symbol.
    """

    input_alphabet: tuple
    output_alphabet: tuple
    length: int
    instances: tuple[bytes, ...]
    answer: dict

    def __post_init__(self):
        if len(set(self.instances)) != len(self.instances):
            raise ProblemError("instances are not distinct")
        for s in self.instances:
            if len(s) != self.length:
                raise ProblemError(f"instance {s!r} has length {len(s)} != {self.length}")
            if s not in self.answer:
                raise ProblemError(f"instance {s!r} has no answer")

    @property
    def size(self) -> int:
        return len(self.instances)

    def char_table(self) -> np.ndarray:
        """(size, length) uint8 array of instance characters."""
        return np.frombuffer(b"".join(self.instances), dtype=np.uint8).reshape(
            self.size, self.length
        )

    def answers_in_order(self) -> list:
        return [self.answer[s] for s in self.instances]

    def to_json(self) -> str:
        """Dump with symbols rendered as two-letter ASCII names."""

        def render_answer(a):
            return SYMBOL_NAMES[a] if isinstance(a, Sym) else a

        return json.dumps(
            {
                "alphabet": [SYMBOL_NAMES[Sym(c)] for c in self.input_alphabet],
                "length": self.length,
                "instances": [
                    {"s": "".join(SYMBOL_NAMES[Sym(c)] for c in s),
                     "answer": render_answer(self.answer[s])}
                    for s in self.instances
                ],
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class ComposedProblem(QueryProblem):
    """A composed problem with its block decomposition materialized."""

    outer: QueryProblem = None
    inners: tuple[QueryProblem, ...] = ()
    spans: tuple[tuple[int, int], ...] = ()  # per-block [start, end) offsets
    tilde: dict = field(default_factory=dict)  # composed instance -> outer instance

    def block_of_position(self, i: int) -> tuple[int, int]:
        """Map 1-based position i of the composition to (block p, offset q)."""
        if not 1 <= i <= self.length:
            raise ProblemError(f"position {i} out of range 1..{self.length}")
        for p, (lo, hi) in enumerate(self.spans, start=1):
            if lo <= i - 1 < hi:
                return p, i - lo
        raise AssertionError("unreachable")

    def blocks(self, s: bytes) -> tuple[bytes, ...]:
        return tuple(s[lo:hi] for lo, hi in self.spans)


def make_os(m: int) -> QueryProblem:
    """Ordered search on m elements; the answer is the star's location."""
    if m < 1:
        raise ProblemError("m must be >= 1")
    instances = []
    answer = {}
    for k in range(1, m + 1):
        s = bytes([Sym.UP] * (k - 1) + [Sym.ST] + [Sym.DN] * (m - k))
        instances.append(s)
        answer[s] = k
    return QueryProblem(
        input_alphabet=(Sym.UP, Sym.DN, Sym.ST),
        output_alphabet=tuple(range(1, m + 1)),
        length=m,
        instances=tuple(instances),
        answer=answer,
    )


def make_hsos(m: int) -> QueryProblem:
    """Hidden-symbol ordered search; the answer is the hidden symbol itself."""
    if m < 1:
        raise ProblemError("m must be >= 1")
    instances = []
    answer = {}
    for sym in (Sym.UP, Sym.DN, Sym.ST):
        for k in range(1, m + 1):
            s = bytes([Sym.RT]) * (k - 1) + bytes([sym]) + bytes([Sym.LT]) * (m - k)
            instances.append(s)
            answer[s] = sym
    return QueryProblem(
        input_alphabet=(Sym.UP, Sym.DN, Sym.ST, Sym.RT, Sym.LT),
        output_alphabet=(Sym.UP, Sym.DN, Sym.ST),
        length=m,
        instances=tuple(instances),
        answer=answer,
    )


def compose(f: QueryProblem, gs: Sequence[QueryProblem]) -> ComposedProblem:
    """Block composition h = f over (g_1, ..., g_k).

    The composed domain is the union, over outer instances x, of the product
    of per-block preimages g_i^{-1}(x_i), concatenated left to right.  Block
    order within each preimage follows the inner problem's instance order,
    and outer instances are enumerated in f's instance order, so the
    composed instance order is deterministic.
    """
    if len(gs) != f.length:
        raise ProblemError(f"need {f.length} inner problems, got {len(gs)}")
    for i, g in enumerate(gs, start=1):
        if set(g.output_alphabet) != set(f.input_alphabet):
            raise ProblemError(
                f"inner problem {i}: output alphabet {g.output_alphabet} does not "
                f"match outer input alphabet {f.input_alphabet}"
            )
    inner_alphabet = gs[0].input_alphabet
    for i, g in enumerate(gs, start=1):
        if set(g.input_alphabet) != set(inner_alphabet):
            raise ProblemError(f"inner problem {i}: input alphabet differs from block 1")

    preimages = [
        {sym: [s for s in g.instances if g.answer[s] == sym] for sym in g.output_alphabet}
        for g in gs
    ]
    spans = []
    off = 0
    for g in gs:
        spans.append((off, off + g.length))
        off += g.length
    instances = []
    answer = {}
    tilde = {}
    for x in f.instances:
        pools = [preimages[i][Sym(c)] for i, c in enumerate(x)]
        for parts in itertools.product(*pools):
            s = b"".join(parts)
            instances.append(s)
            answer[s] = f.answer[x]
            tilde[s] = x
    return ComposedProblem(
        input_alphabet=tuple(inner_alphabet),
        output_alphabet=f.output_alphabet,
        length=off,
        instances=tuple(instances),
        answer=answer,
        outer=f,
        inners=tuple(gs),
        spans=tuple(spans),
        tilde=tilde,
    )


def make_nos(a: int, b: int) -> ComposedProblem:
    """Nested ordered search: OS_a composed over a copies of HSOS_b."""
    return compose(make_os(a), [make_hsos(b)] * a)


def distinguisher(p: QueryProblem, i: int) -> LabeledMatrix:
    """0/1 matrix over instances: entry 1 iff characters at position i differ."""
    if not 1 <= i <= p.length:
        raise ProblemError(f"position {i} out of range 1..{p.length}")
    col = p.char_table()[:, i - 1]
    ent = (col[:, None] != col[None, :]).astype(np.float64)
    return LabeledMatrix(p.instances, ent, name=f"D_{i}")


@dataclass(frozen=True)
class SearchLabeling:
    """Relabeling of a problem's instances as (answer sigma, variant j).

    Witnesses that the problem is a generalized search function: every
    answer has exactly ``variants`` instances, and position-level equality
    between two instances depends only on their variant indices and on
    whether their answers agree.
    """

    problem: QueryProblem
    variants: int
    answers: tuple  # the answer alphabet Sigma, in fixed order
    instance_of: dict  # (sigma, j) -> instance bytes

    @property
    def pair_of(self) -> dict:
        return {s: pair for pair, s in self.instance_of.items()}


def _labeling_is_valid(lab: SearchLabeling) -> bool:
    p = lab.problem
    for (sigma, _j), s in lab.instance_of.items():
        if p.answer[s] != sigma:
            return False
    # Equality pattern at each position must depend only on (j1, j2, sigma1==sigma2).
    pairs = list(lab.instance_of.items())
    for i in range(p.length):
        seen = {}
        for (s1, j1), a in pairs:
            for (s2, j2), b in pairs:
                key = (j1, j2, s1 == s2)
                val = a[i] == b[i]
                if seen.setdefault(key, val) != val:
                    return False
    return True


def detect_search_labeling(p: QueryProblem) -> SearchLabeling | None:
    """Find a search labeling of the canonical form, or None.

    Only one candidate labeling is attempted: group instances by answer and
    order each group lexicographically by its byte string (for the families
    built here this orders variants by the position at which they first
    diverge).  A full search over bijections would be exponential and is not
    needed for these problems.  The candidate is validated exhaustively.
    """
    groups: dict = {}
    for s in p.instances:
        groups.setdefault(p.answer[s], []).append(s)
    answers = tuple(groups)
    sizes = {len(v) for v in groups.values()}
    if len(sizes) != 1:
        return None
    m = sizes.pop()
    if m * len(answers) != p.size:
        return None
    instance_of = {}
    for sigma in answers:
        for j, s in enumerate(sorted(groups[sigma]), start=1):
            instance_of[(sigma, j)] = s
    lab = SearchLabeling(problem=p, variants=m, answers=answers, instance_of=instance_of)
    return lab if _labeling_is_valid(lab) else None


def restrict_labeling(lab: SearchLabeling, keep_variants: Sequence[int]) -> SearchLabeling:
    """Labeling over the sub-problem keeping only the given variant indices."""
    keep = sorted(keep_variants)
    instances = tuple(
        lab.instance_of[(sigma, j)] for sigma in lab.answers for j in keep
    )
    sub = QueryProblem(
        input_alphabet=lab.problem.input_alphabet,
        output_alphabet=lab.problem.output_alphabet,
        length=lab.problem.length,
        instances=instances,
        answer={s: lab.problem.answer[s] for s in instances},
    )
    instance_of = {
        (sigma, newj): lab.instance_of[(sigma, oldj)]
        for sigma in lab.answers
        for newj, oldj in enumerate(keep, start=1)
    }
    return SearchLabeling(problem=sub, variants=len(keep), answers=lab.answers,
                          instance_of=instance_of)
