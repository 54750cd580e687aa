"""msropm-lint: contract-enforcing static analysis for the msropm stack.

See scripts/lint/README.md for the rule catalogue and suppression syntax.
"""

__all__ = ['config', 'lexer', 'model', 'report', 'rules', 'sources',
           'suppress', 'textparse']
