#!/usr/bin/env python3
"""msropm-lint — project-specific static analysis for the msropm solver stack.

Enforces repo contracts that generic linters cannot see:

    obs-gate            obs event calls on hot paths are gate-dominated
    poll-discipline     entry-point loops poll StopToken / ResourceBudget
    determinism         no ambient randomness / wall clocks / unordered
                        iteration in solver code
    hot-path-alloc      no allocation in propagate/analyze/reduce/batch-step
    atomics-discipline  obs cells & fault gates name their memory order

Usage:
    msropm_lint.py [paths...]              lint (default: src)
    msropm_lint.py --list-rules            show rule ids + contracts
    msropm_lint.py --json out.json src     also write machine-readable report

Exit codes: 0 clean, 1 findings, 2 usage error.

Sources are analysed by the built-in C++ lexer and structure recovery
(lintlib/lexer.py, lintlib/textparse.py); no compiler toolchain is needed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from lintlib import report, sources, suppress  # noqa: E402
from lintlib.model import Finding, TranslationUnit  # noqa: E402
from lintlib.rules import contracts, rule_ids, run_rules  # noqa: E402
from lintlib.textparse import extract_functions  # noqa: E402

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog='msropm-lint', add_help=True,
        description='contract-enforcing static analysis for the msropm stack')
    ap.add_argument('paths', nargs='*', default=[],
                    help='files or directories to lint (default: src)')
    ap.add_argument('--rules', default=None, metavar='LIST',
                    help='comma-separated rule ids to run (default: all)')
    ap.add_argument('--json', default=None, metavar='FILE',
                    help="write JSON report to FILE ('-' for stdout)")
    ap.add_argument('--list-rules', action='store_true',
                    help='print rule ids and the contracts they enforce')
    ap.add_argument('--show-suppressed', action='store_true',
                    help='include suppressed findings in the text report')
    ap.add_argument('--root', default=None, metavar='DIR',
                    help='repo root (default: nearest ancestor with .git)')
    return ap.parse_args(argv)


def _list_rules() -> int:
    con = contracts()
    width = max(len(r) for r in con)
    for rid in rule_ids():
        print(f'{rid.ljust(width)}  {con[rid]}')
    print(f'{"lint-suppression".ljust(width)}  suppression comments are '
          'well-formed, reasoned, and not stale (always active)')
    return EXIT_CLEAN


def _select_rules(spec) -> List[str]:
    known = rule_ids()
    if not spec:
        return known
    chosen = [r.strip() for r in spec.split(',') if r.strip()]
    for r in chosen:
        if r not in known:
            raise SystemExit2(f'unknown rule id {r!r}; '
                              f'known: {", ".join(known)}')
    return chosen


class SystemExit2(Exception):
    """Usage error -> exit 2."""


def _build_tu(root: str, relpath: str) -> TranslationUnit:
    try:
        with open(os.path.join(root, relpath), encoding='utf-8',
                  errors='replace') as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit2(f'cannot read {relpath}: {exc}')
    tu = extract_functions(relpath, text)
    tu.raw_lines = text.splitlines()
    return tu


def main(argv: List[str]) -> int:
    try:
        ns = _parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_CLEAN
    if ns.list_rules:
        return _list_rules()
    try:
        enabled = _select_rules(ns.rules)
        root = os.path.abspath(ns.root) if ns.root else sources.repo_root()
        paths = ns.paths or ['src']
        files = sources.discover(root, paths)
        if not files:
            print(f'msropm-lint: no sources under {", ".join(paths)}',
                  file=sys.stderr)
            return EXIT_USAGE

        findings: List[Finding] = []
        sup: Dict[str, suppress.FileSuppressions] = {}
        for relpath in files:
            tu = _build_tu(root, relpath)
            sup[relpath] = suppress.scan_file(relpath, tu.raw_lines)
            findings.extend(run_rules(tu, enabled))

        suppress.apply(findings, sup)
        findings.extend(suppress.unused(sup))

        text = report.render_text(findings, len(files),
                                  show_suppressed=ns.show_suppressed)
        sys.stdout.write(text)
        if ns.json:
            doc = report.render_json(findings, len(files), enabled)
            if ns.json == '-':
                sys.stdout.write(doc)
            else:
                with open(ns.json, 'w', encoding='utf-8') as fh:
                    fh.write(doc)
        active = [f for f in findings if not f.suppressed]
        return EXIT_FINDINGS if active else EXIT_CLEAN
    except SystemExit2 as exc:
        print(f'msropm-lint: {exc}', file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
