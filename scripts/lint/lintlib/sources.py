"""Source discovery for msropm-lint.

Files are addressed repo-relative with forward slashes so that the path
prefixes in lintlib.config match on any host.
"""

from __future__ import annotations

import os
from typing import List, Optional

_EXTS = ('.cpp', '.cc', '.cxx', '.hpp', '.h', '.hh')


def repo_root(start: Optional[str] = None) -> str:
    """Nearest ancestor containing .git, else the start directory."""
    d = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.isdir(os.path.join(d, '.git')):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.path.abspath(start or os.getcwd())
        d = parent


def rel(root: str, path: str) -> str:
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, '/')


def discover(root: str, paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted repo-relative source list."""
    out: List[str] = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            out.append(rel(root, ap))
            continue
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith('.')
                                 and not d.startswith('build'))
            for fname in sorted(filenames):
                if fname.endswith(_EXTS):
                    out.append(rel(root, os.path.join(dirpath, fname)))
    seen = set()
    uniq = []
    for f in out:
        if f not in seen:
            seen.add(f)
            uniq.append(f)
    return uniq

