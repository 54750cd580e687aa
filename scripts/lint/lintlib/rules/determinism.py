"""determinism: result-producing code must be bit-reproducible.

Contract (src/portfolio/README.md "Determinism contract"; src/sat/README.md
"Determinism contract"; ROADMAP serial bit-determinism across PRs 2-8): verdicts
and models are identical run-to-run and at any worker count.  That dies the
moment result-producing code consults an uncontrolled source of entropy or
an unspecified iteration order, so outside the whitelisted infrastructure
(src/obs, src/util) this rule bans:

  * libc / <random> entropy: rand(), srand(), std::random_device,
    std::mt19937 & friends — all randomness flows through util::Rng, seeded
    explicitly and forked with Rng::split(stream_id);
  * wall-clock reads: std::chrono::system_clock, gettimeofday,
    clock_gettime, localtime/gmtime (steady_clock is allowed: it is
    monotonic and only used for durations/deadlines, never results);
  * std::unordered_* containers: iteration order is
    implementation-defined — and seeded differently across libc++/libstdc++;
  * pointer-keyed std::map/std::set: ordering by address varies per run.
"""

from __future__ import annotations

from typing import List

from .. import config
from ..model import Finding, TranslationUnit
from .common import enclosing_function

RULE_ID = 'determinism'
CONTRACT = ('no rand()/random_device/wall clocks/unordered iteration/'
            'pointer-keyed ordering in result-producing code; randomness '
            'flows through util::Rng::split (src/portfolio/README.md '
            'determinism contract)')


def _pointer_key(tokens, i) -> bool:
    """tokens[i] is `map`/`set` and the first template argument (the key)
    contains a raw pointer."""
    if tokens[i].text not in ('map', 'set', 'multimap', 'multiset'):
        return False
    if i + 1 >= len(tokens) or tokens[i + 1].text != '<':
        return False
    depth = 0
    for j in range(i + 1, min(i + 40, len(tokens))):
        t = tokens[j].text
        if t == '<':
            depth += 1
        elif t == '>':
            depth -= 1
            if depth == 0:
                return False
        elif t == ',' and depth == 1:
            return False  # past the key argument
        elif t == '*' and depth == 1:
            return True
    return False


def check(tu: TranslationUnit) -> List[Finding]:
    if not config.path_in(tu.path, config.DETERMINISM_PATHS):
        return []
    if config.path_in(tu.path, config.DETERMINISM_WHITELIST):
        return []
    findings: List[Finding] = []

    def report(tok, what: str) -> None:
        findings.append(Finding(
            rule=RULE_ID, file=tu.path, line=tok.line, col=tok.col,
            function=enclosing_function(tu, tok.line), message=what))

    toks = tu.tokens
    for i, t in enumerate(toks):
        if t.kind != 'id':
            continue
        if t.text in config.BANNED_RANDOM:
            # `rand` must look like a call or a std:: type to fire, so a
            # field named e.g. `srand` in a struct literal cannot trip it.
            called = i + 1 < len(toks) and toks[i + 1].text in ('(', '<', '{')
            qualified = i >= 2 and toks[i - 1].text == '::'
            if called or qualified:
                report(t, f'`{t.text}` is banned in result-producing code: '
                          'all randomness flows through util::Rng '
                          '(seed explicitly, fork with Rng::split)')
        elif t.text in config.BANNED_CLOCK:
            report(t, f'wall-clock source `{t.text}` is banned in '
                      'result-producing code: results must be '
                      'time-invariant (steady_clock durations are fine)')
        elif t.text in config.UNORDERED_CONTAINERS:
            report(t, f'`std::{t.text}` is banned in result-producing code: '
                      'iteration order is implementation-defined; use the '
                      'ordered containers or sort extracted keys')
        elif _pointer_key(toks, i):
            report(t, 'pointer-keyed ordered container: iteration order '
                      'follows allocation addresses, which vary per run; '
                      'key by a stable id instead')
    return findings
