"""Human TextTable and machine JSON rendering for msropm-lint findings.

The text table mirrors the style of util::TextTable reports elsewhere in the
repo (left-aligned columns, one header row, column rule underneath).
"""

from __future__ import annotations

import json
from typing import Dict, List

from .model import Finding


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    out.append('  '.join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    out.append('  '.join('-' * widths[i] for i in range(len(headers))))
    for row in rows:
        out.append('  '.join(cell.ljust(widths[i])
                             for i, cell in enumerate(row)).rstrip())
    return '\n'.join(out)


def render_text(findings: List[Finding], files_scanned: int,
                show_suppressed: bool = False) -> str:
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    lines: List[str] = []
    header = (f'msropm-lint: {len(active)} finding(s), '
              f'{len(suppressed)} suppressed '
              f'[{files_scanned} files]')
    lines.append(header)
    if active:
        lines.append('')
        rows = [[f.rule, f'{f.file}:{f.line}', f.function or '-', f.message]
                for f in sorted(active, key=Finding.sort_key)]
        lines.append(_table(['RULE', 'LOCATION', 'FUNCTION', 'MESSAGE'], rows))
    if show_suppressed and suppressed:
        lines.append('')
        lines.append('suppressed:')
        rows = [[f.rule, f'{f.file}:{f.line}', f.suppress_reason]
                for f in sorted(suppressed, key=Finding.sort_key)]
        lines.append(_table(['RULE', 'LOCATION', 'REASON'], rows))
    return '\n'.join(lines) + '\n'


def render_json(findings: List[Finding], files_scanned: int,
                rules: List[str]) -> str:
    doc: Dict = {
        'version': 1,
        'tool': 'msropm-lint',
        'files_scanned': files_scanned,
        'rules': list(rules),
        'findings': [
            {
                'rule': f.rule,
                'file': f.file,
                'line': f.line,
                'col': f.col,
                'function': f.function,
                'message': f.message,
            }
            for f in sorted((f for f in findings if not f.suppressed),
                            key=Finding.sort_key)
        ],
        'suppressed': [
            {
                'rule': f.rule,
                'file': f.file,
                'line': f.line,
                'reason': f.suppress_reason,
            }
            for f in sorted((f for f in findings if f.suppressed),
                            key=Finding.sort_key)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + '\n'
