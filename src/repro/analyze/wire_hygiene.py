"""Rule ``wire-hygiene`` — the HTTP surface matches what is documented.

Three drift modes between the wire protocol and its documentation are
checked:

1. **Route table.**  Every route literal mounted in ``serve/app.py`` or
   ``fabric/api.py``, or split between them in ``httpd.py`` (strings
   starting ``/v1/`` plus ``/healthz``), must appear in that module's
   docstring — the docstring *is* the documented route table, so an
   undocumented route cannot be mounted silently.
2. **Knob docs.**  Every ``REPRO_*`` name declared in ``repro/knobs.py``
   must appear in the README — the knobs table is generated from the
   registry (``python -m repro.analyze --knobs-table``), and this closes
   the loop.
3. **Schema lock.**  ``schema_lock.json`` records each wire schema's
   version constant and a digest of the dataclass field lists behind it
   (``RESULT_SCHEMA_VERSION`` over ``metrics/results.py``,
   ``CACHE_SCHEMA_VERSION`` over ``SimJob``).  Changing the fields without
   bumping the version is flagged (stale cache entries would alias the new
   layout); bumping the version flags once until the lock is refreshed
   (``--refresh-schema-lock``), which makes schema changes deliberate and
   reviewable.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re

from repro.analyze.core import Finding, Module, Project, emit

RULE = "wire-hygiene"

#: Modules whose docstring doubles as the documented route table.
ROUTE_MODULES = ("serve/app.py", "fabric/api.py", "repro/httpd.py")

#: (label, module suffix, version constant, class filter or None=every class)
SCHEMA_SOURCES = (
    ("result", "repro/metrics/results.py", "RESULT_SCHEMA_VERSION", None),
    ("cache", "repro/runtime/jobs.py", "CACHE_SCHEMA_VERSION", ("SimJob",)),
)

_KNOB_NAME_RE = re.compile(r'"(REPRO_[A-Z_]+)"')


# ----------------------------------------------------------------------
# 1. Route table
# ----------------------------------------------------------------------
def _route_literals(module: Module):
    """(line, literal) for every mounted-route string constant."""
    doc_node = None
    body = module.tree.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        doc_node = body[0].value
    for node in ast.walk(module.tree):
        if node is doc_node or not isinstance(node, ast.Constant):
            continue
        value = node.value
        if not isinstance(value, str) or any(c.isspace() for c in value):
            continue
        if value == "/healthz" or value.startswith("/v1/"):
            yield node.lineno, value


def _check_routes(module: Module, findings: list[Finding]) -> None:
    doc = module.docstring()
    for line, literal in _route_literals(module):
        if literal not in doc:
            emit(
                findings, module, RULE, line,
                f"route {literal!r} is mounted but absent from the module "
                "docstring's route table",
                f"route:{literal}",
            )


# ----------------------------------------------------------------------
# 2. Knob docs
# ----------------------------------------------------------------------
def _check_knob_docs(project: Project, findings: list[Finding]) -> None:
    registry = project.module("repro/knobs.py")
    if registry is None or not project.readme:
        return
    for match in _KNOB_NAME_RE.finditer(registry.source):
        name = match.group(1)
        if name not in project.readme:
            line = registry.source.count("\n", 0, match.start()) + 1
            emit(
                findings, registry, RULE, line,
                f"knob {name} is registered but undocumented in README.md "
                "(regenerate the table: python -m repro.analyze --knobs-table)",
                f"knob-doc:{name}",
            )


# ----------------------------------------------------------------------
# 3. Schema lock
# ----------------------------------------------------------------------
def _schema_fingerprint(module: Module, version_name: str, class_filter):
    """(version, fields digest, version line) of one schema source."""
    version = None
    version_line = 1
    fields: dict[str, list[str]] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == version_name:
                    if isinstance(node.value, ast.Constant):
                        version = node.value.value
                        version_line = node.lineno
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if class_filter is not None and node.name not in class_filter:
            continue
        names = [
            child.target.id
            for child in node.body
            if isinstance(child, ast.AnnAssign)
            and isinstance(child.target, ast.Name)
        ]
        if names:
            fields[node.name] = names
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return version, hashlib.sha256(blob).hexdigest(), version_line


def compute_schema_lock(project: Project) -> dict:
    """The lock record the current tree implies (``--refresh-schema-lock``)."""
    record: dict = {}
    for label, suffix, version_name, class_filter in SCHEMA_SOURCES:
        module = project.module(suffix)
        if module is None:
            continue
        version, digest, _line = _schema_fingerprint(
            module, version_name, class_filter
        )
        record[label] = {"version": version, "fields_digest": digest}
    return record


def _check_schema_lock(project: Project, findings: list[Finding]) -> None:
    lock_path = project.schema_lock_path
    if lock_path is None:
        return
    locked: dict = {}
    if lock_path.is_file():
        locked = json.loads(lock_path.read_text(encoding="utf-8"))
    for label, suffix, version_name, class_filter in SCHEMA_SOURCES:
        module = project.module(suffix)
        if module is None:
            continue
        version, digest, line = _schema_fingerprint(
            module, version_name, class_filter
        )
        entry = locked.get(label)
        if entry is None:
            emit(
                findings, module, RULE, line,
                f"no schema lock entry for {label!r}; run "
                "python -m repro.analyze --refresh-schema-lock",
                f"schema:{label}:unlocked",
            )
        elif entry.get("version") != version:
            emit(
                findings, module, RULE, line,
                f"{version_name} changed ({entry.get('version')} -> "
                f"{version}); refresh the schema lock "
                "(python -m repro.analyze --refresh-schema-lock)",
                f"schema:{label}:version",
            )
        elif entry.get("fields_digest") != digest:
            emit(
                findings, module, RULE, line,
                f"wire dataclass fields changed without a {version_name} "
                "bump — stale cache entries would alias the new layout",
                f"schema:{label}:fields",
            )


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules:
        if any(module.rel.endswith(suffix) for suffix in ROUTE_MODULES):
            _check_routes(module, findings)
    _check_knob_docs(project, findings)
    _check_schema_lock(project, findings)
    return findings
