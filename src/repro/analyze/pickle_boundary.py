"""Rule ``pickle-boundary`` — no module unpickles anything.

Unpickling runs code: a pickle names the callables it is rebuilt with, and
an allowlist of names cannot tell a record type from a function that
shares its module.  So nothing under ``src/repro`` may load a pickle.
Cache entries, claimed chunks, uploads and pulled entries are inert JSON
records (:mod:`repro.runtime.records`), whose decoding builds only the
types the decoder names.  ``pickle.dumps`` is not flagged: producing a
pickle runs nothing.
"""

from __future__ import annotations

import ast

from repro.analyze.core import (
    Finding,
    Module,
    Project,
    emit,
    enclosing_function_name,
    import_map,
)

RULE = "pickle-boundary"

#: ``pickle`` members that deserialize.
LOADING_MEMBERS = frozenset({"loads", "load", "Unpickler"})


def check_module(module: Module, findings: list[Finding]) -> None:
    aliases = import_map(module.tree)
    pickle_aliases = {
        alias for alias, (home, member) in aliases.items()
        if home in ("pickle", "cPickle") and member is None
    }
    loader_aliases = {
        alias for alias, (home, member) in aliases.items()
        if home in ("pickle", "cPickle") and member in LOADING_MEMBERS
    }

    def flag(node: ast.AST, label: str) -> None:
        emit(
            findings, module, RULE, node.lineno,
            f"{label} loads a pickle (decode inert records with "
            "repro.runtime.records instead)",
            f"{enclosing_function_name(module, node.lineno)}->{label}",
        )

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in pickle_aliases and node.attr in LOADING_MEMBERS:
                flag(node, f"pickle.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in loader_aliases:
            home, member = aliases[node.id]
            flag(node, f"pickle.{member}")


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        check_module(module, findings)
    return findings
