"""poll-discipline: long-running loops in solver/phase entry points must
poll StopToken / ResourceBudget / fault gates.

Contract (src/util/README.md cancellation + budget contracts; PR 2/9): every
engine entry point listed in config.ENTRY_POINTS unwinds cooperatively — a
loop that can run unbounded work without consulting stop_requested()/
deadline_expired()/budget_breach()/util::fault::fire() strands cancellation
and budgets, which breaks portfolio first-winner cancellation and the
graceful-degradation ladder.

Heuristics (documented in scripts/lint/README.md):
  * only iteration-scale loops are candidates: infinite loops (`for(;;)`,
    `while(true)`) and loops whose header names an iteration budget
    (config.ITER_BOUND_RE: iter/step/sweep/round/...).  Loops bounded by
    input size (per-replica setup, aggregation) finish with the data;
  * a candidate NEST is compliant when a poll marker appears anywhere in it
    (condition or body, any depth) — polling the outermost loop covers
    per-iteration inner work;
  * `for (...; i < K; ...)` with literal K <= config.POLL_TRIP_THRESHOLD is
    exempt (bounded trip count);
  * local lambdas and same-TU functions whose bodies poll (the `stopped()` /
    `should_break()` idiom) extend the poll marker set, as do the
    config.POLLING_CALLEES (delegated polling: PhaseBatch::run,
    Solver::solve, the portfolio drain path); loops inside named local
    lambdas are checked too.
"""

from __future__ import annotations

from typing import List, Set

from .. import config
from ..lexer import Token
from ..model import Finding, Stmt, TranslationUnit, walk_stmts
from .common import literal_int, parse_token_body

RULE_ID = 'poll-discipline'
CONTRACT = ('entry-point loop nests poll StopToken/ResourceBudget/fault '
            'gates (src/util/README.md cancellation & budget contracts)')


def _poll_markers(tu: TranslationUnit, fn_lambdas) -> Set[str]:
    markers = set(config.POLL_TOKENS)
    for name, body in fn_lambdas.items():
        if any(t.kind == 'id' and t.text in config.POLL_TOKENS for t in body):
            markers.add(name)
    # Same-TU helpers that poll (transitively one level, like obs-gate).
    for fn in tu.functions:
        if any(t.kind == 'id' and t.text in config.POLL_TOKENS
               for t in fn.body_tokens):
            markers.add(fn.name)
    return markers


def _nest_tokens(loop: Stmt) -> List[Token]:
    out: List[Token] = []
    for s in walk_stmts([loop]):
        out.extend(s.cond)
        out.extend(s.tokens)
    return out


def _polls(nest: List[Token], markers: Set[str]) -> bool:
    for i, t in enumerate(nest):
        if t.kind != 'id':
            continue
        if t.text in markers:
            return True
        # Delegated polling: a *call* to a contractually polling routine.
        if (t.text in config.POLLING_CALLEES and i + 1 < len(nest)
                and nest[i + 1].text == '('):
            return True
    return False


def _is_candidate(loop: Stmt) -> bool:
    """Iteration-scale loops only: infinite, or an iteration-budget bound."""
    cond = [t for t in loop.cond if t.text != ';']
    if not cond:
        return True  # for(;;)
    if len(cond) == 1 and cond[0].text in ('true', '1'):
        return True  # while (true)
    return any(t.kind == 'id' and config.ITER_BOUND_RE.search(t.text)
               for t in loop.cond)


def _bounded_trip(cond: List[Token]) -> bool:
    for i, t in enumerate(cond):
        if t.text in ('<', '<=') and i + 1 < len(cond):
            lit = literal_int(cond[i + 1].text) \
                if cond[i + 1].kind == 'num' else None
            if lit is not None and lit <= config.POLL_TRIP_THRESHOLD:
                return True
        # `i != K` countdown styles with a small literal.
        if t.text == '!=' and i + 1 < len(cond) and cond[i + 1].kind == 'num':
            lit = literal_int(cond[i + 1].text)
            if lit is not None and lit <= config.POLL_TRIP_THRESHOLD:
                return True
    return False


def _check_loops(stmts: List[Stmt], markers: Set[str], out: List[Stmt]) -> None:
    """Collect outermost non-compliant loops."""
    for s in stmts:
        if s.kind == 'loop':
            if _polls(_nest_tokens(s), markers):
                continue  # whole nest accepted
            if not _is_candidate(s) or _bounded_trip(s.cond):
                # data-bounded / literal-bounded outer loop: inner loops may
                # still be iteration-scale
                _check_loops(s.body, markers, out)
                continue
            out.append(s)
        else:
            _check_loops(s.body, markers, out)
            _check_loops(s.else_body, markers, out)


def check(tu: TranslationUnit) -> List[Finding]:
    findings: List[Finding] = []
    for fn in tu.functions:
        if not any(p.search(fn.qualified) for p in config.ENTRY_POINTS):
            continue
        markers = _poll_markers(tu, fn.lambda_bodies)
        bad: List[Stmt] = []
        _check_loops(fn.stmts, markers, bad)
        for lname, body in fn.lambda_bodies.items():
            _check_loops(parse_token_body(list(body)), markers, bad)
        for loop in bad:
            findings.append(Finding(
                rule=RULE_ID, file=tu.path, line=loop.line, col=0,
                function=fn.qualified,
                message=(f'{loop.loop_kind} loop in entry point '
                         f'{fn.qualified} has no StopToken/ResourceBudget/'
                         'fault poll anywhere in its nest and no literal '
                         f'trip bound <= {config.POLL_TRIP_THRESHOLD}; poll '
                         'stop_requested()/budget_breach() or bound the '
                         'loop (src/util/README.md)')))
    return findings
