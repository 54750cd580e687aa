#!/usr/bin/env python3
"""Self-test for msropm-lint.

Each rule has a bad fixture that must trigger exactly that rule and a
suppressed variant that must lint clean.  Fixtures live in fixtures/ and are
staged into a scratch tree under the repo-relative paths each rule's scope
expects (src/sat/, src/obs/, ...).  The final test runs the tool over the
real repository tree and requires a clean exit — the lint gate itself.

Run directly (python3 test_msropm_lint.py) or via ctest (msropm_lint_test).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_LINT = os.path.join(_HERE, '..', 'msropm_lint.py')
_FIXTURES = os.path.join(_HERE, 'fixtures')
_REPO = os.path.abspath(os.path.join(_HERE, '..', '..', '..'))

# fixture file -> (staged repo-relative path, expected rule, expect findings)
_CASES = {
    'obs_gate_bad.cpp': ('src/sat/obs_gate_bad.cpp', 'obs-gate', True),
    'obs_gate_ok.cpp': ('src/sat/obs_gate_ok.cpp', 'obs-gate', False),
    'poll_bad.cpp': ('src/msropm/poll_bad.cpp', 'poll-discipline', True),
    'poll_ok.cpp': ('src/msropm/poll_ok.cpp', 'poll-discipline', False),
    'det_bad.cpp': ('src/solvers/det_bad.cpp', 'determinism', True),
    'det_ok.cpp': ('src/solvers/det_ok.cpp', 'determinism', False),
    'alloc_bad.cpp': ('src/sat/alloc_bad.cpp', 'hot-path-alloc', True),
    'alloc_ok.cpp': ('src/sat/alloc_ok.cpp', 'hot-path-alloc', False),
    'alloc_nested_ns_bad.cpp': ('src/phase/alloc_nested_ns_bad.cpp',
                                'hot-path-alloc', True),
    'alloc_lane_kernel_bad.cpp': ('src/phase/alloc_lane_kernel_bad.hpp',
                                  'hot-path-alloc', True),
    'alloc_watch_lists_bad.cpp': ('src/sat/alloc_watch_lists_bad.cpp',
                                  'hot-path-alloc', True),
    'alloc_edge_bits_bad.cpp': ('src/phase/alloc_edge_bits_bad.cpp',
                                'hot-path-alloc', True),
    'atomics_bad.cpp': ('src/obs/atomics_bad.cpp', 'atomics-discipline', True),
    'atomics_ok.cpp': ('src/obs/atomics_ok.cpp', 'atomics-discipline', False),
    'suppress_bad.cpp': ('src/sat/suppress_bad.cpp', 'lint-suppression', True),
}


def _run_lint(args):
    return subprocess.run([sys.executable, _LINT] + args,
                          capture_output=True, text=True)


class FixtureTest(unittest.TestCase):
    """Stage one fixture at a time so cross-fixture noise is impossible."""

    def _lint_one(self, fixture, staged_rel):
        tmp = tempfile.mkdtemp(prefix='msropm-lint-test-')
        self.addCleanup(shutil.rmtree, tmp, ignore_errors=True)
        dst = os.path.join(tmp, staged_rel)
        os.makedirs(os.path.dirname(dst))
        shutil.copy(os.path.join(_FIXTURES, fixture), dst)
        out = os.path.join(tmp, 'report.json')
        proc = _run_lint(['--root', tmp, '--json', out, 'src'])
        with open(out, encoding='utf-8') as fh:
            return proc, json.load(fh)

    def test_fixtures(self):
        for fixture, (staged, rule, expect_findings) in _CASES.items():
            with self.subTest(fixture=fixture):
                proc, doc = self._lint_one(fixture, staged)
                rules_found = {f['rule'] for f in doc['findings']}
                if expect_findings:
                    self.assertEqual(proc.returncode, 1, proc.stdout)
                    # exactly this rule fires, nothing else
                    self.assertEqual(rules_found, {rule}, proc.stdout)
                else:
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    self.assertEqual(rules_found, set(), proc.stdout)
                    # the suppressed finding is still visible in the report
                    self.assertEqual({s['rule'] for s in doc['suppressed']},
                                     {rule}, proc.stdout)

    def test_watch_list_growth_is_a_hot_path(self):
        # Both the inline push and the out-of-line growth of the solver's
        # watch lists are checked, and std::allocator::allocate counts as
        # reaching the allocator.
        proc, doc = self._lint_one('alloc_watch_lists_bad.cpp',
                                   'src/sat/alloc_watch_lists_bad.cpp')
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertEqual({f['function'] for f in doc['findings']},
                         {'WatchLists::push',
                          'WatchLists::grow'}, proc.stdout)
        self.assertIn('allocate()',
                      ' | '.join(f['message'] for f in doc['findings']))

    def test_edge_bit_rebuild_is_a_hot_path(self):
        # The lane kernel's mask-bit rebuild runs inside the per-step
        # euler_step_lanes, so an allocating local there is a finding.
        proc, doc = self._lint_one('alloc_edge_bits_bad.cpp',
                                   'src/phase/alloc_edge_bits_bad.cpp')
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertEqual({f['function'] for f in doc['findings']},
                         {'PhaseBatch::rebuild_edge_bits'}, proc.stdout)

    def test_suppress_details(self):
        proc, doc = self._lint_one('suppress_bad.cpp',
                                   'src/sat/suppress_bad.cpp')
        self.assertEqual(proc.returncode, 1)
        messages = ' | '.join(f['message'] for f in doc['findings'])
        self.assertIn('no reason', messages)
        self.assertIn('unused suppression', messages)


class CliTest(unittest.TestCase):
    def test_list_rules(self):
        proc = _run_lint(['--list-rules'])
        self.assertEqual(proc.returncode, 0)
        for rule in ('obs-gate', 'poll-discipline', 'determinism',
                     'hot-path-alloc', 'atomics-discipline',
                     'lint-suppression'):
            self.assertIn(rule, proc.stdout)

    def test_unknown_rule_is_usage_error(self):
        proc = _run_lint(['--rules', 'no-such-rule', 'src'])
        self.assertEqual(proc.returncode, 2)

    def test_missing_path_is_usage_error(self):
        tmp = tempfile.mkdtemp(prefix='msropm-lint-empty-')
        self.addCleanup(shutil.rmtree, tmp, ignore_errors=True)
        proc = _run_lint(['--root', tmp, 'src'])
        self.assertEqual(proc.returncode, 2)


class TreeCleanTest(unittest.TestCase):
    """The lint gate: the repository's own sources must lint clean."""

    def test_repo_src_is_clean(self):
        proc = _run_lint(['--root', _REPO, 'src'])
        self.assertEqual(proc.returncode, 0,
                         f'repo tree has lint findings:\n{proc.stdout}')


if __name__ == '__main__':
    unittest.main()
