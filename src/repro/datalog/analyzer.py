"""Rule analyzer: the first stage of RecStep's pipeline (Figure 1).

Responsibilities, mirroring Section 4 of the paper:

- identify IDB and EDB relations and check arity consistency;
- verify syntactic correctness: *safety* (every head variable bound by a
  positive body atom; condition and negated-atom variables bound too);
- build the dependency graph and compute a **stratification** via
  Tarjan's SCC algorithm over the predicate dependency graph;
- validate **stratified negation** (a negated predicate must live in a
  strictly lower stratum) and **recursive aggregation** (only monotone
  MIN/MAX melds are allowed inside a recursive stratum, the fragment the
  benchmark programs — CC, SSSP — need and whose convergence the paper
  assumes);
- infer per-predicate column types from the EDB schemas so engines can
  create empty typed relations, and per-predicate value bounds so
  FAST-DEDUP packs keys only where no value can overflow them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.datalog.ast import (
    AggTerm,
    Atom,
    BinExpr,
    Const,
    Program,
    Rule,
    Var,
    Wildcard,
)


class DatalogAnalysisError(ValueError):
    """Raised when a program fails a static check (safety, stratification)."""


@dataclass(frozen=True)
class Stratum:
    """One stratum: the IDB predicates of one SCC, evaluated together.

    ``recursive`` is True when some rule in the stratum references a
    predicate of the same stratum in its body (Algorithm 1 exits after a
    single pass for non-recursive strata).
    """

    index: int
    predicates: frozenset[str]
    rules: tuple[Rule, ...]
    recursive: bool


@dataclass(frozen=True)
class AggSpec:
    """Aggregation layout of an IDB whose rules have aggregate heads.

    ``group_positions`` are the head positions holding plain terms (the
    GROUP BY key); ``agg_position`` holds the single aggregate term and
    ``op`` its operator. All rules of an aggregated IDB must agree on
    this layout for the semantics to be well-defined.
    """

    group_positions: tuple[int, ...]
    agg_position: int
    op: str


@dataclass
class AnalyzedProgram:
    """Output of :func:`analyze`: everything engines need to evaluate."""

    program: Program
    idbs: frozenset[str]
    edbs: frozenset[str]
    arities: dict[str, int]
    strata: list[Stratum]
    agg_specs: dict[str, AggSpec] = field(default_factory=dict)
    #: IDBs evaluated with MIN/MAX meld semantics inside a recursive stratum
    meld_idbs: frozenset[str] = frozenset()

    def stratum_of(self, pred: str) -> Stratum:
        for s in self.strata:
            if pred in s.predicates:
                return s
        raise KeyError(pred)

    @property
    def has_mutual_recursion(self) -> bool:
        """True when some stratum holds >1 predicate (e.g. CSPA)."""
        return any(len(s.predicates) > 1 for s in self.strata)

    @property
    def has_nonlinear_recursion(self) -> bool:
        """True when some recursive rule has >1 same-stratum body atom."""
        for s in self.strata:
            if not s.recursive:
                continue
            for r in s.rules:
                same = sum(1 for a in r.positive_body if a.pred in s.predicates)
                if same > 1:
                    return True
        return False

    def infer_types(self, edb_types: dict[str, tuple[str, ...]]) -> dict[str, tuple[str, ...]]:
        """Propagate EDB column types to every IDB (fixpoint iteration).

        ``edb_types`` maps each EDB predicate to a tuple of type names
        (``"long"`` / ``"double"`` / ``"string"``). Unresolvable columns
        (e.g. an IDB populated only by constants) default to ``"long"``.
        """
        known: dict[str, list[str | None]] = {
            p: list(t) for p, t in edb_types.items()
        }
        for p in self.idbs:
            known.setdefault(p, [None] * self.arities[p])

        def term_type(term, binding: dict[str, str]) -> str | None:
            if isinstance(term, Const):
                return "long"
            if isinstance(term, Var):
                return binding.get(term.name)
            if isinstance(term, BinExpr):
                lt = term_type(term.left, binding)
                rt = term_type(term.right, binding)
                if lt == "double" or rt == "double":
                    return "double"
                return lt or rt
            if isinstance(term, AggTerm):
                if term.op == "COUNT":
                    return "long"
                if term.op == "AVG":
                    return "double"
                return term_type(term.expr, binding)
            return None

        changed = True
        while changed:
            changed = False
            for rule in self.program.rules:
                binding: dict[str, str] = {}
                for atom in rule.positive_body:
                    cols = known.get(atom.pred)
                    if cols is None:
                        continue
                    for pos, t in enumerate(atom.terms):
                        if isinstance(t, Var) and cols[pos] is not None:
                            binding.setdefault(t.name, cols[pos])
                head_cols = known[rule.head.pred]
                for pos, t in enumerate(rule.head.terms):
                    tt = term_type(t, binding)
                    if tt is None:
                        continue
                    cur = head_cols[pos]
                    # Numeric promotion is monotone (long -> double), so
                    # the fixpoint terminates.
                    if cur is None or (cur == "long" and tt == "double"):
                        head_cols[pos] = tt
                        changed = True
        return {
            p: tuple(c if c is not None else "long" for c in cols)
            for p, cols in known.items()
        }

    def value_bounds(self, edb_bound: int | None) -> dict[str, int | None]:
        """Upper bound on the values each IDB can hold when every EDB
        value lies in ``[0, edb_bound]`` (fixpoint iteration).

        A head variable takes the smallest bound among the body atoms it
        occurs in, a non-negative constant its own value, and MIN/MAX the
        bound of their argument. ``None`` means no bound holds: negative
        EDB values, arithmetic, negative constants, COUNT/SUM/AVG, or a
        variable that only an unbounded IDB binds.
        """
        if edb_bound is None:
            return dict.fromkeys(self.idbs)
        bounds: dict[str, int | None] = dict.fromkeys(self.edbs | self.idbs, edb_bound)

        def term_bound(term, rule: Rule) -> int | None:
            if isinstance(term, AggTerm) and term.op in ("MIN", "MAX"):
                term = term.expr
            if isinstance(term, Const):
                return term.value if term.value >= 0 else None
            if isinstance(term, Var):
                known = [
                    bounds[a.pred] for a in rule.positive_body
                    if term in a.terms and bounds[a.pred] is not None
                ]
                return min(known, default=None)
            return None

        changed = True
        while changed:
            changed = False
            for rule in self.program.rules:
                pred = rule.head.pred
                for term in rule.head.terms:
                    b, cur = term_bound(term, rule), bounds[pred]
                    new = None if b is None or cur is None else max(cur, b)
                    if new != cur:
                        bounds[pred] = new
                        changed = True
        return {p: bounds[p] for p in self.idbs}


def _check_arities(program: Program) -> dict[str, int]:
    arities: dict[str, int] = {}
    for rule in program.rules:
        for atom in (rule.head, *rule.body):
            prev = arities.setdefault(atom.pred, atom.arity)
            if prev != atom.arity:
                raise DatalogAnalysisError(
                    f"predicate {atom.pred!r} used with arities {prev} and {atom.arity}"
                )
    return arities


def _check_safety(rule: Rule) -> None:
    bound: set[str] = set()
    for atom in rule.positive_body:
        for t in atom.terms:
            if isinstance(t, Var):
                bound.add(t.name)
    head_vars = rule.head.variables()
    if unbound := head_vars - bound:
        # A rule with an empty body (a fact) may only contain constants.
        raise DatalogAnalysisError(
            f"unsafe rule {rule}: head variables {sorted(unbound)} not bound "
            "by any positive body atom"
        )
    for atom in rule.negated_body:
        if unbound := atom.variables() - bound:
            raise DatalogAnalysisError(
                f"unsafe rule {rule}: negated atom variables {sorted(unbound)} "
                "not bound by any positive body atom"
            )
    for cond in rule.conditions:
        if unbound := cond.variables() - bound:
            raise DatalogAnalysisError(
                f"unsafe rule {rule}: condition variables {sorted(unbound)} "
                "not bound by any positive body atom"
            )
    for atom in rule.body:
        for t in atom.terms:
            if isinstance(t, (AggTerm,)):
                raise DatalogAnalysisError(
                    f"aggregate term in rule body is not allowed: {rule}"
                )


def _tarjan_sccs(nodes: list[str], edges: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC algorithm (iterative); returns SCCs in reverse
    topological order of the condensation (callees before callers)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, iter]] = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)
    return sccs


def analyze(program: Program) -> AnalyzedProgram:
    """Run all static checks and compute the stratification.

    Raises :class:`DatalogAnalysisError` on arity mismatch, unsafe rules,
    unstratifiable negation, or non-meldable recursive aggregation.
    """
    if not program.rules:
        raise DatalogAnalysisError("empty program")
    arities = _check_arities(program)
    for rule in program.rules:
        _check_safety(rule)

    idbs = frozenset(program.idb_predicates())
    edbs = frozenset(program.edb_predicates())

    # Predicate dependency graph restricted to IDBs: edge P -> Q when P
    # occurs in the body of a rule with head Q.
    dep: dict[str, set[str]] = {p: set() for p in idbs}
    neg_dep: set[tuple[str, str]] = set()
    for rule in program.rules:
        for atom in rule.body:
            if atom.pred in idbs:
                dep[atom.pred].add(rule.head.pred)
                if atom.negated:
                    neg_dep.add((atom.pred, rule.head.pred))

    sccs = _tarjan_sccs(sorted(idbs), dep)  # reverse topological order
    # Tarjan emits an SCC only after all SCCs it can reach... with edge
    # P -> Q meaning "Q depends on P", an SCC is emitted after everything
    # reachable from it, i.e. after its *dependents*. Reversing gives
    # dependents last: evaluate strata in reversed(sccs) ... verify via
    # tests; we instead order strata topologically explicitly below.
    scc_of: dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for p in scc:
            scc_of[p] = i
    # Topological order of the condensation: stratum s must come after
    # every stratum it depends on (body predicates of its rules).
    n = len(sccs)
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    indeg = [0] * n
    for p, targets in dep.items():
        for q in targets:
            a, b = scc_of[p], scc_of[q]
            if a != b and b not in succ[a]:
                succ[a].add(b)
                indeg[b] += 1
    from collections import deque

    order: list[int] = []
    queue = deque(sorted(i for i in range(n) if indeg[i] == 0))
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    assert len(order) == n, "dependency condensation must be a DAG"

    strata: list[Stratum] = []
    for out_idx, scc_idx in enumerate(order):
        preds = frozenset(sccs[scc_idx])
        rules = tuple(r for r in program.rules if r.head.pred in preds)
        recursive = any(
            a.pred in preds for r in rules for a in r.body
        )
        strata.append(
            Stratum(index=out_idx, predicates=preds, rules=rules, recursive=recursive)
        )

    # Stratified negation: a negated IDB must be fully evaluated before
    # any rule using it, i.e. must live in a strictly lower stratum.
    for p, q in neg_dep:
        if scc_of[p] == scc_of[q]:
            raise DatalogAnalysisError(
                f"negation of {p!r} inside its own recursive stratum is not "
                "stratifiable"
            )

    # Aggregation layout checks.
    agg_specs: dict[str, AggSpec] = {}
    meld: set[str] = set()
    for pred in idbs:
        rules = program.rules_for(pred)
        agg_rules = [r for r in rules if r.has_aggregation()]
        if not agg_rules:
            continue
        if len(agg_rules) != len(rules):
            raise DatalogAnalysisError(
                f"IDB {pred!r} mixes aggregated and non-aggregated rules"
            )
        layouts = set()
        for r in agg_rules:
            agg_positions = tuple(
                i for i, t in enumerate(r.head.terms) if isinstance(t, AggTerm)
            )
            if len(agg_positions) != 1:
                raise DatalogAnalysisError(
                    f"IDB {pred!r}: exactly one aggregate head term is supported"
                )
            pos = agg_positions[0]
            op = r.head.terms[pos].op  # type: ignore[union-attr]
            group = tuple(i for i in range(len(r.head.terms)) if i != pos)
            layouts.add((group, pos, op))
        if len(layouts) != 1:
            raise DatalogAnalysisError(
                f"IDB {pred!r}: all rules must share one aggregation layout"
            )
        group, pos, op = next(iter(layouts))
        agg_specs[pred] = AggSpec(group_positions=group, agg_position=pos, op=op)
        stratum = next(s for s in strata if pred in s.predicates)
        if stratum.recursive:
            if op not in ("MIN", "MAX"):
                raise DatalogAnalysisError(
                    f"recursive aggregation on {pred!r} requires a monotone "
                    f"MIN/MAX meld; {op} does not converge in general"
                )
            meld.add(pred)

    return AnalyzedProgram(
        program=program,
        idbs=idbs,
        edbs=edbs,
        arities=arities,
        strata=strata,
        agg_specs=agg_specs,
        meld_idbs=frozenset(meld),
    )
