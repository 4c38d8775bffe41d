"""repro.lint — determinism & identity static analysis.

An AST-based lint pass that guards the contracts the rest of the
repository only *tests*: bit-exact RNG streams (every engine path of one
scenario replays the same draws), fingerprint-keyed result stores, and
the pinned public API surface. The test suite catches violations of
these contracts probabilistically and after the fact; the lint pass
catches the code patterns that cause them, at the line that introduces
them.

Entry points::

    repro lint [paths ...] [--format text|json] [--rules id,id]
    python -m repro lint src scripts

or programmatically::

    from repro.lint import run_lint
    findings, files_scanned = run_lint(["src", "scripts"])

The rule battery and suppression syntax are documented in
:mod:`repro.lint.rules` (one module per rule); the engine and the
``# repro-lint: allow[rule-id]`` semantics in
:mod:`repro.lint.engine`.
"""

from .engine import (
    PARSE_RULE_ID,
    Project,
    SourceFile,
    iter_python_files,
    parse_suppressions,
    run_lint,
)
from .findings import Finding
from .reporters import (
    JSON_SCHEMA_VERSION,
    parse_json,
    render_json,
    render_text,
)
from .rules import RULE_REGISTRY, Rule, default_rules, register_rule

__all__ = [
    "JSON_SCHEMA_VERSION",
    "PARSE_RULE_ID",
    "Finding",
    "Project",
    "RULE_REGISTRY",
    "Rule",
    "SourceFile",
    "default_rules",
    "iter_python_files",
    "parse_json",
    "parse_suppressions",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
]
