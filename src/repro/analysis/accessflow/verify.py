"""Check declared PACT access sets against the inferred ones.

For every literal access declaration — ``TxnRequest.pact(...)`` or
``TxnRequest(... access={...})`` — this pass compares the declared
actor set with the transitive access set inferred for the entry method
and reports:

* ``under-declared`` (**error**): the body reaches an actor the
  declaration misses.  At run time the undeclared invocation waits for
  a PACT turn the schedule never granted — the batch stalls (§3.2.1);
* ``count-shortfall`` (**error**): the actor is declared, but with
  fewer invocations than the body performs — same stall, one turn
  later;
* ``mode-downgrade`` (**error**): declared ``"r"`` but the body
  mutates state through that actor;
* ``over-declared`` / ``over-count`` / ``mode-over`` (**warning**):
  the declaration promises accesses the body can never perform —
  harmless for safety, but the scheduler serializes against actors the
  transaction will not touch (lost parallelism).  ``--strict`` turns
  warnings into failures;
* ``unverifiable`` (**note**): the summary contains ⊤ (an unresolvable
  key or an opaque call edge) or recursion, so exhaustiveness claims
  are off; the runtime sanitizer
  (``SnapperConfig(sanitize_access_sets=True)``) is the oracle there.

Every claim is soundness-gated: over-declaration and count claims need
an exhaustive summary (no ⊤, no recursion) and no wildcard access that
could reach the declared actor; under-declaration needs a fully literal
declaration (dynamic keys may cover anything).  ``# snapper: noqa`` on
the submission line suppresses findings, same as the linter.

``apply_fixes`` rewrites fixable literal access dicts in place to the
inferred set (``--fix``): counts corrected, read-only entries downgraded
to ``"r"``, unused entries dropped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.accessflow.infer import (
    HOST_KIND,
    INPUT_KIND,
    READ,
    READ_WRITE,
    TOP_KIND,
    Access,
    AccessSummary,
    Inferencer,
    KeyKind,
)
from repro.analysis.accessflow.model import (
    ModuleInfo,
    Program,
    const_value,
    dotted,
)
from repro.analysis.lint import _NOQA_RE

ERROR = "error"
WARNING = "warning"
NOTE = "note"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, NOTE: 2}

#: ``(lineno, col, end_lineno, end_col)`` of a source span.
Span = Tuple[int, int, int, int]


@dataclass(frozen=True)
class AccessFinding:
    """One divergence between a declaration and the inferred set."""

    path: str
    line: int
    severity: str
    rule: str
    message: str
    #: replacement source for the access dict, when mechanically fixable.
    fix_span: Optional[Span] = None
    fix_text: Optional[str] = None

    @property
    def fixable(self) -> bool:
        return self.fix_span is not None and self.fix_text is not None

    def render(self) -> str:
        tag = " (fixable)" if self.fixable else ""
        return (
            f"{self.path}:{self.line}: {self.severity}: "
            f"[{self.rule}] {self.message}{tag}"
        )


@dataclass
class _DeclEntry:
    """One literal entry of a declared access dict."""

    kind: Optional[str]  # None: raw key of the start actor's kind
    key: Any
    count: int
    mode: str
    node: ast.expr


@dataclass
class _Site:
    """One literal PACT submission site."""

    module: ModuleInfo
    call: ast.Call
    kind: Optional[str]          # resolved start kind (None: dynamic)
    start_key: Tuple[bool, Any]  # (literal?, value)
    method: str
    access_node: ast.Dict
    entries: List[_DeclEntry] = field(default_factory=list)
    dynamic_keys: bool = False    # some declared key is not literal
    dynamic_values: bool = False  # some declared count/mode is not literal


# -- site extraction ----------------------------------------------------------
def _parse_mode_decl(value: ast.expr) -> Optional[Tuple[int, str]]:
    """Mirror :func:`repro.core.context.parse_access_decl` on the AST."""
    ok, literal = const_value(value)
    if not ok:
        return None
    if isinstance(literal, bool):
        return None
    if isinstance(literal, int):
        return literal, READ_WRITE
    if isinstance(literal, str):
        lowered = literal.lower()
        if lowered in ("r", "read"):
            return 1, READ
        if lowered in ("rw", "readwrite"):
            return 1, READ_WRITE
        return None
    if isinstance(literal, tuple) and len(literal) == 2:
        count, mode = literal
        if (
            isinstance(count, int)
            and not isinstance(count, bool)
            and isinstance(mode, str)
        ):
            lowered = mode.lower()
            if lowered in ("r", "read"):
                return count, READ
            if lowered in ("rw", "readwrite"):
                return count, READ_WRITE
    return None


def _decl_key(
    program: Program, module: ModuleInfo, node: ast.expr
) -> Optional[Tuple[Optional[str], Any]]:
    """``(kind, key)`` for a declared dict key; kind None = raw key."""
    value = program.resolve_const(module, node)
    if value is not None or (
        isinstance(node, ast.Constant) and node.value is None
    ):
        return None, value
    if (
        isinstance(node, ast.Call)
        and (dotted(node.func) or "").split(".")[-1] == "ActorId"
        and len(node.args) == 2
    ):
        kind = program.resolve_str(module, node.args[0])
        key = program.resolve_const(module, node.args[1])
        if kind is not None and key is not None:
            return kind, key
    return None  # dynamic


def _extract_site(
    program: Program, module: ModuleInfo, call: ast.Call
) -> Optional[_Site]:
    name = dotted(call.func) or ""
    last = name.split(".")[-1]
    if not ((last == "pact" and "TxnRequest" in name) or last == "TxnRequest"):
        return None
    access_expr: Optional[ast.expr] = None
    for keyword in call.keywords:
        if keyword.arg == "access":
            access_expr = keyword.value
    if not isinstance(access_expr, ast.Dict):
        return None  # dynamic declaration: the sanitizer's territory

    def _arg(index: int, kw: str) -> Optional[ast.expr]:
        value = call.args[index] if len(call.args) > index else None
        for keyword in call.keywords:
            if keyword.arg == kw:
                value = keyword.value
        return value

    method_expr = _arg(2, "method")
    if not (
        isinstance(method_expr, ast.Constant)
        and isinstance(method_expr.value, str)
    ):
        return None
    kind_expr = _arg(0, "kind")
    kind = (
        program.resolve_str(module, kind_expr)
        if kind_expr is not None else None
    )
    key_expr = _arg(1, "key")
    start_key: Tuple[bool, Any] = (False, None)
    if key_expr is not None:
        resolved = program.resolve_const(module, key_expr)
        if resolved is not None:
            start_key = (True, resolved)
    site = _Site(
        module=module, call=call, kind=kind, start_key=start_key,
        method=method_expr.value, access_node=access_expr,
    )
    for key_node, value_node in zip(access_expr.keys, access_expr.values):
        if key_node is None:  # **spread
            site.dynamic_keys = True
            continue
        declared = _decl_key(program, module, key_node)
        if declared is None:
            site.dynamic_keys = True
            continue
        parsed = _parse_mode_decl(value_node)
        if parsed is None:
            site.dynamic_values = True
            continue
        site.entries.append(_DeclEntry(
            kind=declared[0], key=declared[1],
            count=parsed[0], mode=parsed[1], node=key_node,
        ))
    return site


def _iter_sites(program: Program) -> List[_Site]:
    sites: List[_Site] = []
    for module in program.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                site = _extract_site(program, module, node)
                if site is not None:
                    sites.append(site)
    return sites


def _suppressed(module: ModuleInfo, lineno: int) -> bool:
    if not (1 <= lineno <= len(module.lines)):
        return False
    match = _NOQA_RE.search(module.lines[lineno - 1])
    if match is None:
        return False
    # bare ``# snapper: noqa`` suppresses access findings too; a noqa
    # listing specific SNAP rule IDs is lint-targeted and does not.
    return not match.group("ids").strip()


# -- matching -----------------------------------------------------------------
def _norm_actor(site: _Site, access: Access) -> Optional[Tuple[str, Any]]:
    """``(kind, key)`` of a literal inferred access, site-resolved."""
    if access.key.sort == KeyKind.SELF and access.kind == HOST_KIND:
        if site.kind is not None and site.start_key[0]:
            return site.kind, site.start_key[1]
        return None
    if access.key.sort != KeyKind.LIT:
        return None
    kind = site.kind if access.kind == HOST_KIND else access.kind
    if kind in (None, INPUT_KIND, TOP_KIND):
        return None
    return kind, access.key.value


def _entry_actor(site: _Site, entry: _DeclEntry) -> Optional[Tuple[str, Any]]:
    kind = entry.kind if entry.kind is not None else site.kind
    if kind is None:
        return None
    return kind, entry.key


def _wildcard_covers(site: _Site, access: Access, kind: str) -> bool:
    """Could a non-literal inferred access land on an actor of ``kind``?"""
    if access.key.sort == KeyKind.LIT:
        return False
    if access.key.sort == KeyKind.SELF and access.kind == HOST_KIND:
        return False  # matched positionally
    if access.kind in (INPUT_KIND, TOP_KIND):
        return True
    access_kind = site.kind if access.kind == HOST_KIND else access.kind
    return access_kind is None or access_kind == kind


# -- verification -------------------------------------------------------------
def verify_site(
    site: _Site, summary: Optional[AccessSummary]
) -> List[AccessFinding]:
    path = site.module.path
    line = site.call.lineno
    where = f"{site.kind or '?'}.{site.method}"
    if _suppressed(site.module, line):
        return []
    if summary is None:
        return [AccessFinding(
            path, line, NOTE, "unknown-method",
            f"no transaction body found for {where}: "
            "declaration not checked",
        )]
    findings: List[AccessFinding] = []
    declared: Dict[Tuple[str, Any], _DeclEntry] = {}
    for entry in site.entries:
        actor = _entry_actor(site, entry)
        if actor is None:
            site.dynamic_keys = True
            continue
        declared[actor] = entry

    exhaustive = summary.exhaustive
    if not exhaustive:
        causes = []
        if summary.has_top:
            causes.append("unresolvable (⊤) accesses")
        if summary.recursive:
            causes.append("recursion")
        findings.append(AccessFinding(
            path, line, NOTE, "unverifiable",
            f"{where}: inferred set contains {' and '.join(causes)}; "
            "over-declaration and exact counts not checkable — enable "
            "SnapperConfig(sanitize_access_sets=True) to verify at run "
            "time",
        ))

    # under-declaration / per-entry count & mode checks
    matched: Set[Tuple[str, Any]] = set()
    for access in summary.accesses:
        actor = _norm_actor(site, access)
        if actor is None:
            continue
        entry = declared.get(actor)
        if entry is None:
            if site.dynamic_keys:
                continue  # a dynamic key may cover it
            maybe = " (conditional)" if access.conditional else ""
            via = f" [{access.via}]" if access.via else ""
            findings.append(AccessFinding(
                path, line, ERROR, "under-declared",
                f"{where} reaches {actor[0]}/{actor[1]}"
                f" ({access.mode}){maybe} but the access set does not "
                f"declare it: the undeclared invocation waits for a "
                f"turn the batch schedule never grants{via}",
            ))
            continue
        matched.add(actor)
        if entry.mode == READ and access.mode == READ_WRITE:
            findings.append(AccessFinding(
                path, line, ERROR, "mode-downgrade",
                f"{where} declares {actor[0]}/{actor[1]} as Read but "
                f"the body mutates it"
                + (f" [{access.via}]" if access.via else ""),
            ))
        if not access.many and not summary.recursive:
            count = max(access.count, 1)  # state access needs its turn
            if entry.count < count:
                findings.append(AccessFinding(
                    path, line, ERROR, "count-shortfall",
                    f"{where} invokes {actor[0]}/{actor[1]} "
                    f"{count}x but declares count="
                    f"{entry.count}: the extra invocation stalls "
                    f"the batch",
                ))
            elif entry.count > count and exhaustive:
                findings.append(AccessFinding(
                    path, line, WARNING, "over-count",
                    f"{where} declares count={entry.count} for "
                    f"{actor[0]}/{actor[1]} but the body performs "
                    f"exactly {count}",
                ))
        if (
            entry.mode == READ_WRITE and access.mode == READ
            and exhaustive
        ):
            findings.append(AccessFinding(
                path, line, WARNING, "mode-over",
                f"{where} declares {actor[0]}/{actor[1]} as ReadWrite "
                f"but the body only reads it: declare \"r\" to keep "
                f"read parallelism",
            ))

    # over-declaration
    if exhaustive:
        for actor, entry in declared.items():
            if actor in matched:
                continue
            if any(
                _wildcard_covers(site, access, actor[0])
                for access in summary.accesses
            ):
                continue
            findings.append(AccessFinding(
                path, line, WARNING, "over-declared",
                f"{where} declares {actor[0]}/{actor[1]} but the body "
                f"cannot reach it: the scheduler serializes against an "
                f"actor the transaction never touches",
            ))

    fix = _site_fix(site, summary, findings)
    if fix is not None:
        span, text = fix
        findings = [
            AccessFinding(
                f.path, f.line, f.severity, f.rule, f.message,
                fix_span=span, fix_text=text,
            ) if f.severity in (ERROR, WARNING) else f
            for f in findings
        ]
    return findings


def _site_fix(
    site: _Site, summary: AccessSummary,
    findings: Sequence[AccessFinding],
) -> Optional[Tuple[Span, str]]:
    """Replacement text for the access dict, when the inferred set is
    fully literal and something is actually wrong."""
    if not any(f.severity in (ERROR, WARNING) for f in findings):
        return None
    if not summary.exhaustive or site.dynamic_keys or site.dynamic_values:
        return None
    if site.kind is None or not site.start_key[0]:
        return None
    resolved: Dict[Tuple[str, Any], Tuple[int, str]] = {}
    for access in summary.accesses:
        actor = _norm_actor(site, access)
        if actor is None or access.many:
            return None  # wildcard/unbounded: not mechanically fixable
        count, mode = resolved.get(actor, (0, READ))
        resolved[actor] = (
            count + access.count,
            READ_WRITE if READ_WRITE in (mode, access.mode) else READ,
        )
    node = site.access_node
    if node.end_lineno is None or node.end_col_offset is None:
        return None
    # keep declaration order where possible, append new actors after
    ordered: List[Tuple[str, Any]] = []
    for entry in site.entries:
        actor = _entry_actor(site, entry)
        if actor is not None and actor in resolved and actor not in ordered:
            ordered.append(actor)
    for actor in sorted(resolved, key=lambda a: (a[0], repr(a[1]))):
        if actor not in ordered:
            ordered.append(actor)
    parts = []
    for actor in ordered:
        count, mode = resolved[actor]
        if count < 1:
            count = 1  # state-only access still needs the entry turn
        key_src = (
            repr(actor[1]) if actor[0] == site.kind
            else f"ActorId({actor[0]!r}, {actor[1]!r})"
        )
        if mode == READ_WRITE:
            value_src = str(count)
        elif count == 1:
            value_src = '"r"'
        else:
            value_src = f'({count}, "r")'
        parts.append(f"{key_src}: {value_src}")
    span: Span = (
        node.lineno, node.col_offset, node.end_lineno, node.end_col_offset
    )
    return span, "{" + ", ".join(parts) + "}"


def verify_program(
    program: Program, inferencer: Optional[Inferencer] = None
) -> List[AccessFinding]:
    """All findings for every literal submission site in ``program``."""
    inferencer = inferencer or Inferencer(program)
    findings: List[AccessFinding] = []
    for site in _iter_sites(program):
        summary = inferencer.entry_summary(site.kind, site.method)
        findings.extend(verify_site(site, summary))
    findings.sort(key=lambda f: (
        f.path, f.line, _SEVERITY_ORDER.get(f.severity, 3), f.rule
    ))
    return findings


def verify_paths(paths: Sequence[str]) -> Tuple[Program, List[AccessFinding]]:
    program = Program.load(paths)
    return program, verify_program(program)


def apply_fixes(
    program: Program, findings: Sequence[AccessFinding]
) -> Dict[str, int]:
    """Rewrite fixable access dicts in place; ``{path: fixes applied}``.

    Spans are replaced bottom-up per file so earlier spans stay valid.
    """
    by_path: Dict[str, Dict[Span, str]] = {}
    for finding in findings:
        if finding.fix_span is not None and finding.fix_text is not None:
            by_path.setdefault(finding.path, {})[finding.fix_span] = (
                finding.fix_text
            )
    applied: Dict[str, int] = {}
    for path, fixes in by_path.items():
        module = program.modules_by_path.get(path)
        if module is None:
            continue
        lines = module.source.splitlines(keepends=True)
        for span in sorted(fixes, reverse=True):
            lineno, col, end_lineno, end_col = span
            head = lines[lineno - 1][:col]
            tail = lines[end_lineno - 1][end_col:]
            lines[lineno - 1:end_lineno] = [head + fixes[span] + tail]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
        applied[path] = len(fixes)
    return applied
