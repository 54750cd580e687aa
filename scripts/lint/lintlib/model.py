"""Shared data model for msropm-lint's parser and rules.

The parser (textparse.py) produces one TranslationUnit per source file,
holding FunctionModel entries.  Rules consume only this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .lexer import Token


@dataclass
class Stmt:
    """One statement inside a function body.

    kind is one of:
      'if'      cond/then_body/else_body set
      'loop'    loop_kind in {for, while, do, range-for}; cond + body set
      'return'  plain return statement (tokens holds the full statement)
      'block'   bare { } scope; body set
      'other'   anything else (expressions, declarations, switch internals);
                tokens holds the statement's tokens, including any embedded
                lambda bodies / brace initializers
    """
    kind: str
    tokens: List[Token] = field(default_factory=list)
    cond: List[Token] = field(default_factory=list)
    body: List['Stmt'] = field(default_factory=list)
    else_body: List['Stmt'] = field(default_factory=list)
    loop_kind: str = ''
    line: int = 0


@dataclass
class FunctionModel:
    name: str               # base name, e.g. 'propagate'
    qualified: str          # e.g. 'Solver::propagate' (best effort)
    file: str               # repo-relative path
    line: int               # definition line (1-based)
    end_line: int
    body_tokens: List[Token] = field(default_factory=list)
    stmts: List[Stmt] = field(default_factory=list)
    # Names of local lambdas whose bodies contain the given token set are
    # resolved by rules via lambda_bodies: name -> flat token list.
    lambda_bodies: Dict[str, List[Token]] = field(default_factory=dict)
    # Parameter list tokens (between the declarator parens).
    param_tokens: List[Token] = field(default_factory=list)


@dataclass
class TranslationUnit:
    path: str                            # repo-relative
    tokens: List[Token] = field(default_factory=list)
    functions: List[FunctionModel] = field(default_factory=list)
    raw_lines: List[str] = field(default_factory=list)


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    col: int
    function: str
    message: str
    suppressed: bool = False
    suppress_reason: str = ''

    def sort_key(self):
        return (self.file, self.line, self.col, self.rule)


def walk_stmts(stmts: List[Stmt]):
    """Yield every Stmt in a statement forest, depth-first."""
    for s in stmts:
        yield s
        yield from walk_stmts(s.body)
        yield from walk_stmts(s.else_body)


def flat_tokens(stmts: List[Stmt]) -> List[Token]:
    """Every token under a statement forest (headers + bodies)."""
    out: List[Token] = []
    for s in walk_stmts(stmts):
        out.extend(s.tokens)
        out.extend(s.cond)
    return out
