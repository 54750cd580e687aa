"""Lexical C++ structure recovery for msropm-lint.

This is not a C++ parser.  It recovers exactly the structure the rules need:

  * function definitions (qualified name, parameter tokens, body extent),
  * a statement tree per body — if/else with condition tokens, loops with
    kind + condition, return statements, everything else opaque,
  * named local lambdas (name -> body tokens) so that rule code can resolve
    `stopped()` / `should_break()` style poll helpers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .lexer import Token, match_balanced, tokenize
from .model import FunctionModel, Stmt, TranslationUnit

# Keywords that can directly precede a '(' without being a function name.
_NOT_A_FUNCTION = {
    'if', 'for', 'while', 'switch', 'catch', 'return', 'sizeof', 'alignof',
    'alignas', 'decltype', 'noexcept', 'static_assert', 'throw', 'new',
    'delete', 'co_await', 'co_return', 'co_yield', 'assert', 'defined',
    'constexpr', 'requires',
}

_SCOPE_KEYWORDS = {'namespace', 'class', 'struct', 'union', 'enum'}

_CONTROL = {'if', 'for', 'while', 'do', 'switch', 'try', 'else', 'return'}


def _skip_to_semicolon(tokens: List[Token], i: int) -> Tuple[List[Token], int]:
    """Consume one non-control statement: tokens up to and including the ';'
    that ends it at nesting level 0.  Braces opened mid-statement (lambda
    bodies, init lists) are consumed balanced as part of the statement."""
    out: List[Token] = []
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.text in '([{':
            j = match_balanced(tokens, i)
            out.extend(tokens[i:j + 1])
            i = j + 1
            continue
        if t.text in ')]}':
            # Unbalanced closer: end of enclosing block — stop without
            # consuming it so the caller sees the '}'.
            break
        out.append(t)
        i += 1
        if t.text == ';':
            break
    return out, i


def _parse_one(tokens: List[Token], i: int) -> Tuple[Optional[Stmt], int]:
    """Parse one statement starting at i.  Returns (stmt, next_index); stmt
    is None for stray ';' / '}' handled by the caller."""
    n = len(tokens)
    if i >= n:
        return None, i
    t = tokens[i]
    if t.text == ';':
        return None, i + 1
    if t.text == '{':
        body, j = parse_block(tokens, i + 1)
        return Stmt('block', body=body, line=t.line), j
    if t.kind == 'pp':
        return Stmt('other', tokens=[t], line=t.line), i + 1
    if t.kind == 'id' and t.text in ('if', 'while', 'for', 'switch'):
        kw = t.text
        j = i + 1
        if j < n and tokens[j].text == 'constexpr':  # if constexpr
            j += 1
        if j >= n or tokens[j].text != '(':
            return Stmt('other', tokens=[t], line=t.line), i + 1
        close = match_balanced(tokens, j)
        cond = tokens[j + 1:close]
        k = close + 1
        if kw == 'switch':
            body_stmt, k = _parse_one(tokens, k)
            body = [body_stmt] if body_stmt else []
            return Stmt('other', tokens=[t], cond=cond, body=body, line=t.line), k
        body, k = _parse_stmt_or_block(tokens, k)
        if kw == 'if':
            else_body: List[Stmt] = []
            if k < n and tokens[k].kind == 'id' and tokens[k].text == 'else':
                else_body, k = _parse_stmt_or_block(tokens, k + 1)
            return Stmt('if', cond=cond, body=body, else_body=else_body,
                        line=t.line), k
        loop_kind = kw
        if kw == 'for' and any(c.text == ':' for c in _depth0(cond)):
            loop_kind = 'range-for'
        return Stmt('loop', cond=cond, body=body, loop_kind=loop_kind,
                    line=t.line), k
    if t.kind == 'id' and t.text == 'do':
        body, k = _parse_stmt_or_block(tokens, i + 1)
        cond: List[Token] = []
        if k < n and tokens[k].kind == 'id' and tokens[k].text == 'while':
            if k + 1 < n and tokens[k + 1].text == '(':
                close = match_balanced(tokens, k + 1)
                cond = tokens[k + 2:close]
                k = close + 1
                if k < n and tokens[k].text == ';':
                    k += 1
        return Stmt('loop', cond=cond, body=body, loop_kind='do', line=t.line), k
    if t.kind == 'id' and t.text in ('try', 'else'):
        body, k = _parse_stmt_or_block(tokens, i + 1)
        return Stmt('block', body=body, line=t.line), k
    if t.kind == 'id' and t.text == 'catch':
        j = i + 1
        cond = []
        if j < n and tokens[j].text == '(':
            close = match_balanced(tokens, j)
            cond = tokens[j + 1:close]
            j = close + 1
        body, k = _parse_stmt_or_block(tokens, j)
        return Stmt('block', cond=cond, body=body, line=t.line), k
    if t.kind == 'id' and t.text == 'return':
        stmt_tokens, k = _skip_to_semicolon(tokens, i)
        return Stmt('return', tokens=stmt_tokens, line=t.line), k
    stmt_tokens, k = _skip_to_semicolon(tokens, i)
    if not stmt_tokens:
        return None, i + 1  # defensive: never stall
    return Stmt('other', tokens=stmt_tokens, line=t.line), k


def _parse_stmt_or_block(tokens: List[Token], i: int) -> Tuple[List[Stmt], int]:
    n = len(tokens)
    if i < n and tokens[i].text == '{':
        return parse_block(tokens, i + 1)
    stmt, k = _parse_one(tokens, i)
    return ([stmt] if stmt else []), k


def parse_block(tokens: List[Token], i: int) -> Tuple[List[Stmt], int]:
    """Parse statements until the matching '}'.  i points just past '{'."""
    stmts: List[Stmt] = []
    n = len(tokens)
    while i < n:
        if tokens[i].text == '}':
            return stmts, i + 1
        stmt, j = _parse_one(tokens, i)
        if j <= i:  # defensive: always advance
            j = i + 1
        if stmt is not None:
            stmts.append(stmt)
        i = j
    return stmts, i


def _depth0(tokens: List[Token]) -> List[Token]:
    """Tokens of a sequence visible at bracket depth 0."""
    out = []
    depth = 0
    for t in tokens:
        if t.text in '([{':
            depth += 1
        elif t.text in ')]}':
            depth -= 1
        elif depth == 0:
            out.append(t)
    return out


def find_lambdas(body_tokens: List[Token]) -> dict:
    """Map `auto name = [..](..) {...}` locals to their body token lists."""
    out = {}
    n = len(body_tokens)
    for i, t in enumerate(body_tokens):
        if t.text != '=' or i == 0:
            continue
        name_tok = body_tokens[i - 1]
        if name_tok.kind != 'id':
            continue
        j = i + 1
        if j >= n or body_tokens[j].text != '[':
            continue
        j = match_balanced(body_tokens, j) + 1  # past capture list
        if j < n and body_tokens[j].text == '(':
            j = match_balanced(body_tokens, j) + 1
        while j < n and body_tokens[j].kind == 'id' and \
                body_tokens[j].text in ('mutable', 'noexcept', 'constexpr'):
            j += 1
        if j < n and body_tokens[j].text == '->':
            while j < n and body_tokens[j].text != '{':
                j += 1
        if j < n and body_tokens[j].text == '{':
            close = match_balanced(body_tokens, j)
            out[name_tok.text] = body_tokens[j + 1:close]
    return out


def _declarator_name(tokens: List[Token], open_paren: int) -> Optional[Tuple[str, str]]:
    """(base_name, qualified_name) of the declarator whose parameter list
    opens at open_paren, or None if this '(' is not a function declarator."""
    j = open_paren - 1
    if j < 0:
        return None
    # operator overloads: treat as non-functions for lint purposes (none of
    # the rules key on them) except operator() which we skip entirely.
    parts: List[str] = []
    t = tokens[j]
    if t.kind != 'id':
        return None
    if t.text in _NOT_A_FUNCTION:
        return None
    parts.append(t.text)
    j -= 1
    # destructor ~Name
    if j >= 0 and tokens[j].text == '~':
        parts[-1] = '~' + parts[-1]
        j -= 1
    # qualification chain Name:: (possibly with template args which we skip)
    while j >= 1 and tokens[j].text == '::' and tokens[j - 1].kind == 'id':
        parts.append(tokens[j - 1].text)
        j -= 2
    base = parts[0]
    qualified = '::'.join(reversed(parts))
    return base, qualified


_BODY_INTRO_SKIP = {'const', 'noexcept', 'override', 'final', 'mutable',
                    'volatile', '&', '&&', 'try', 'requires'}


def extract_functions(path: str, text: str) -> TranslationUnit:
    tokens = tokenize(text)
    tu = TranslationUnit(path=path, tokens=tokens,
                         raw_lines=text.splitlines())
    n = len(tokens)
    i = 0
    scope_stack: List[str] = []  # class/struct names for qualification
    pending_scope: Optional[str] = None
    while i < n:
        t = tokens[i]
        if t.kind == 'id' and t.text in _SCOPE_KEYWORDS:
            # remember `class Foo` / `namespace bar` so the next '{' at this
            # level attributes members. `enum class X : int {` handled too.
            name = None
            j = i + 1
            while j < n and tokens[j].kind == 'id' and \
                    tokens[j].text in ('class', 'struct', 'final', 'alignas'):
                j += 1
            if j < n and tokens[j].kind == 'id':
                name = tokens[j].text
                # C++17 nested namespace `namespace a::b::c {` is one scope.
                while j + 2 < n and tokens[j + 1].text == '::' and \
                        tokens[j + 2].kind == 'id':
                    j += 2
                    name += '::' + tokens[j].text
            pending_scope = name or ''
            i += 1
            continue
        if t.text == '{':
            scope_stack.append(pending_scope or '')
            pending_scope = None
            i += 1
            continue
        if t.text == '}':
            if scope_stack:
                scope_stack.pop()
            i += 1
            continue
        if t.text == ';' or t.text == '=':
            pending_scope = None
        if t.text == '(':
            named = _declarator_name(tokens, i)
            close = match_balanced(tokens, i)
            if named is None or close >= n:
                i += 1
                continue
            # Walk past trailing qualifiers / trailing return / ctor inits to
            # find either '{' (definition) or ';'/',' (declaration / call).
            k = close + 1
            is_def = False
            depth_guard = 0
            while k < n:
                tk = tokens[k]
                if tk.text == '{':
                    is_def = True
                    break
                if tk.text in (';', ',', ')'):
                    break
                if tk.kind == 'id' and tk.text in _BODY_INTRO_SKIP:
                    k += 1
                    continue
                if tk.text in ('&', '&&'):
                    k += 1
                    continue
                if tk.text == '->':  # trailing return type
                    k += 1
                    continue
                if tk.text == ':':   # ctor init list: consume to '{'
                    k += 1
                    while k < n and tokens[k].text != '{':
                        if tokens[k].text in '([':
                            k = match_balanced(tokens, k) + 1
                            continue
                        if tokens[k].text == ';':
                            break
                        k += 1
                    continue
                if tk.text == '(':
                    k = match_balanced(tokens, k) + 1
                    continue
                if tk.kind == 'id' or tk.text == '::' or tk.text == '<':
                    # trailing return type tokens / noexcept(expr) etc.
                    k += 1
                    continue
                break
            if not is_def:
                i = close + 1
                continue
            base, qualified = named
            if '::' not in qualified and scope_stack and scope_stack[-1]:
                qualified = scope_stack[-1] + '::' + qualified
            body_open = k
            body_close = match_balanced(tokens, body_open)
            body = tokens[body_open + 1:body_close]
            stmts, _ = parse_block(tokens[body_open + 1:body_close + 1], 0) \
                if body_close > body_open else ([], 0)
            fn = FunctionModel(
                name=base,
                qualified=qualified,
                file=path,
                line=t.line,
                end_line=tokens[body_close].line if body_close < n else t.line,
                body_tokens=body,
                stmts=stmts,
                lambda_bodies=find_lambdas(body),
                param_tokens=tokens[i + 1:close],
            )
            tu.functions.append(fn)
            i = body_close + 1
            continue
        i += 1
    return tu
