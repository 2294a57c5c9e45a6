"""snapper-lint: AST-based static checks for Snapper invariants.

The linter walks Python sources and flags code that violates invariants
the runtime cannot enforce: PACT access declarations must match what the
transaction body actually touches (SNAP001/002), transaction bodies must
be deterministic so batch replay is sound (SNAP003–SNAP007), actor
methods must not leak coroutines or hold an :class:`ActorLock` across
awaits (SNAP008/009), and all state mutation must flow through the
transactional ``get_state`` handle (SNAP010/011).  The rule metadata —
IDs, scopes, summaries — lives in :mod:`repro.analysis.rules`.

*Transaction bodies* are recognized structurally: an ``async def``
method whose second parameter (after ``self``) is literally named
``ctx``, the signature contract of Fig. 2.  Findings are suppressed
with an inline ``# snapper: noqa`` comment on the flagged line, either
bare (all rules) or listing rule IDs (``# snapper: noqa SNAP004,
SNAP006``).

Use :func:`lint_paths` (or ``python -m repro.analysis lint``) to lint
files and directories; :func:`lint_source` checks one in-memory module
and is what the fixture tests drive.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.rules import RULES
from repro.obs.instruments import NAME_RE as _INSTRUMENT_NAME_RE

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.message}"
        )


#: matches an inline suppression comment; ``ids`` holds the listed rule
#: IDs (empty means: suppress every rule on this line).
_NOQA_RE = re.compile(
    r"#\s*snapper:\s*noqa\b(?P<ids>(?:[\s,]*SNAP\d{3})*)", re.IGNORECASE
)

# -- nondeterminism tables (SNAP003/004/005/007), fully-qualified ---------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})
_GLOBAL_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.expovariate", "random.betavariate",
    "random.getrandbits", "random.normalvariate",
})
_UUID_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4"})
_ENV_IO_CALLS = frozenset({"os.getenv", "open", "input"})
_BLOCKING_IN_ASYNC = frozenset({
    "time.sleep", "subprocess.run", "subprocess.call",
    "subprocess.check_output", "subprocess.check_call",
})
#: method names that mutate a list/dict/set receiver in place (SNAP011).
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
})
#: paths allowed to import repro.sim internals (SNAP014): the kernel
#: itself and the two seam modules that adapt it.
_SIM_IMPORT_EXEMPT_RE = re.compile(
    r"repro[/\\](?:sim[/\\]|runtime[/\\](?:kernel|sim_backend)\.py$)"
)
#: paths allowed to call the submit_pact/submit_act shims (SNAP015):
#: repro internals, where the shims themselves and their coverage live.
_SUBMIT_SHIM_EXEMPT_RE = re.compile(r"repro[/\\]")


def _is_sim_module(name: str) -> bool:
    return name == "repro.sim" or name.startswith("repro.sim.")


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _is_txn_body(fn: FunctionNode) -> bool:
    """The Fig. 2 signature contract: ``async def m(self, ctx, ...)``."""
    if not isinstance(fn, ast.AsyncFunctionDef):
        return False
    args = fn.args.args
    return len(args) >= 2 and args[0].arg == "self" and args[1].arg == "ctx"


class _Module:
    """One parsed module plus the context the rule checks need."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        #: local alias -> fully-qualified name, from import statements
        #: (``import time as t`` -> ``t: time``; ``from time import
        #: time`` -> ``time: time.time``).
        self.import_aliases: Dict[str, str] = {}
        #: names of module-level ``async def`` functions (SNAP008).
        self.async_functions: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, ast.AsyncFunctionDef):
                self.async_functions.add(node.name)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of ``node``, through imports."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        full = self.import_aliases.get(head)
        if full is None:
            return dotted
        return f"{full}.{rest}" if rest else full

    def suppressed(self, rule_id: str, line: int) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        match = _NOQA_RE.search(self.lines[line - 1])
        if match is None:
            return False
        listed = re.findall(r"SNAP\d{3}", match.group("ids"), re.IGNORECASE)
        return not listed or rule_id in {i.upper() for i in listed}


class ModuleLinter:
    """Runs every registered rule over one module."""

    def __init__(self, module: _Module,
                 enabled: Optional[Set[str]] = None):
        self.module = module
        self.enabled = enabled if enabled is not None else set(RULES)
        self.findings: List[Finding] = []

    def emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if rule_id not in self.enabled:
            return
        if self.module.suppressed(rule_id, line):
            return
        self.findings.append(Finding(
            rule_id=rule_id, path=self.module.path, line=line,
            col=getattr(node, "col_offset", 0), message=message,
        ))

    # -- entry point ------------------------------------------------------
    def run(self) -> List[Finding]:
        for cls in ast.walk(self.module.tree):
            if isinstance(cls, ast.ClassDef):
                self._check_class(cls)
        self._check_submit_sites()
        self._check_instrument_sites()
        self._check_sim_imports()
        self.findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
        return self.findings

    def _check_class(self, cls: ast.ClassDef) -> None:
        async_methods = {
            item.name for item in cls.body
            if isinstance(item, ast.AsyncFunctionDef)
        }
        for item in cls.body:
            if isinstance(item, ast.AsyncFunctionDef):
                self._check_async_method(item, async_methods)
                if _is_txn_body(item):
                    self._check_txn_body(item)

    # -- SNAP008, and blocking calls, in any async method -----------------
    def _check_async_method(
        self, fn: ast.AsyncFunctionDef, class_async: Set[str]
    ) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                call = node.value
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in class_async
                ):
                    self.emit(
                        "SNAP008", node,
                        f"coroutine 'self.{func.attr}(...)' is neither "
                        f"awaited nor spawned; its body never runs",
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id in self.module.async_functions
                ):
                    self.emit(
                        "SNAP008", node,
                        f"coroutine '{func.id}(...)' is neither awaited "
                        f"nor spawned; its body never runs",
                    )
            elif isinstance(node, ast.Call):
                resolved = self.module.resolve(node.func)
                if resolved in _BLOCKING_IN_ASYNC:
                    self.emit(
                        "SNAP012", node,
                        f"blocking call '{resolved}' inside an async "
                        f"actor method stalls the whole event loop",
                    )

    # -- transaction-body rules -------------------------------------------
    def _check_txn_body(self, fn: ast.AsyncFunctionDef) -> None:
        self._check_nondeterminism(fn)
        self._check_lock_discipline(fn)
        self._check_state_discipline(fn)

    def _check_nondeterminism(self, fn: ast.AsyncFunctionDef) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                resolved = self.module.resolve(node.func)
                if resolved in _WALL_CLOCK:
                    self.emit(
                        "SNAP003", node,
                        f"wall-clock read '{resolved}' in a transaction "
                        f"body; use the actor's sim_now instead",
                    )
                elif resolved in _GLOBAL_RANDOM:
                    self.emit(
                        "SNAP004", node,
                        f"global-random draw '{resolved}' in a "
                        f"transaction body; use a seeded generator",
                    )
                elif resolved == "random.Random" and not node.args:
                    self.emit(
                        "SNAP004", node,
                        "unseeded random.Random() in a transaction "
                        "body; pass an explicit seed",
                    )
                elif resolved in _UUID_CALLS:
                    self.emit(
                        "SNAP005", node,
                        f"'{resolved}' in a transaction body; derive "
                        f"ids from the tid/bid instead",
                    )
                elif resolved in _ENV_IO_CALLS:
                    self.emit(
                        "SNAP007", node,
                        f"external input '{resolved}' in a transaction "
                        f"body; pass data in via the transaction input",
                    )
            elif self.module.resolve(node) == "os.environ":
                self.emit(
                    "SNAP007", node,
                    "os.environ read in a transaction body; pass "
                    "configuration in via the transaction input",
                )
            for iterator in self._iteration_sources(node):
                if self._is_set_expr(iterator):
                    self.emit(
                        "SNAP006", iterator,
                        "iteration over a set in a transaction body "
                        "has no defined order; sort first",
                    )

    @staticmethod
    def _iteration_sources(node: ast.AST) -> Iterator[ast.expr]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                yield generator.iter

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self.module.resolve(node.func) in {"set", "frozenset"}
        return False

    # -- SNAP009: awaits while holding an ActorLock ------------------------
    def _check_lock_discipline(self, fn: ast.AsyncFunctionDef) -> None:
        # (a) ``async with <something lock-ish>: ... await ...``
        for node in ast.walk(fn):
            if isinstance(node, ast.AsyncWith) and any(
                self._is_lockish(item.context_expr) for item in node.items
            ):
                for inner in node.body:
                    for sub in ast.walk(inner):
                        if isinstance(sub, ast.Await):
                            self.emit(
                                "SNAP009", sub,
                                "await while holding an ActorLock: the "
                                "suspended turn keeps the lock while "
                                "other transactions interleave",
                            )
                            break
                    else:
                        continue
                    break
        # (b) ``await <lock>.acquire(...)`` then another await with no
        # intervening ``.release(...)`` — ordered by line number.
        acquires: List[int] = []
        releases: List[int] = []
        awaits: List[Tuple[int, ast.Await]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Await):
                awaits.append((node.lineno, node))
                call = node.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "acquire"
                    and self._is_lockish(call.func.value)
                ):
                    acquires.append(node.lineno)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "release"
                and self._is_lockish(node.func.value)
            ):
                releases.append(node.lineno)
        for acquired_at in acquires:
            later = [
                (line, node) for line, node in awaits if line > acquired_at
            ]
            if not later:
                continue
            line, node = min(later, key=lambda pair: pair[0])
            released = any(acquired_at <= r <= line for r in releases)
            if not released:
                self.emit(
                    "SNAP009", node,
                    "await after acquiring an ActorLock without "
                    "releasing it first: the lock is held across the "
                    "suspension",
                )

    @staticmethod
    def _is_lockish(node: ast.expr) -> bool:
        dotted = _dotted(node)
        if dotted is not None and "lock" in dotted.lower():
            return True
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            return name.split(".")[-1] == "ActorLock"
        return False

    # -- SNAP010 / SNAP011: state-mutation discipline ----------------------
    def _check_state_discipline(self, fn: ast.AsyncFunctionDef) -> None:
        tainted: Set[str] = set()  # names bound to READ-mode state
        for node in ast.walk(fn):
            # SNAP010: direct assignment to self._state / self.state
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in ("_state", "state")
                ):
                    self.emit(
                        "SNAP010", node,
                        f"direct assignment to 'self.{target.attr}' "
                        f"bypasses transactional write tracking; "
                        f"mutate the get_state handle instead",
                    )
        self._walk_taint(fn.body, tainted)

    def _walk_taint(self, body: Sequence[ast.stmt],
                    tainted: Set[str]) -> None:
        """Track names bound to READ-mode state (one alias level deep)
        and flag mutations of them, in statement order (SNAP011)."""
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self._flag_tainted_mutation(stmt, stmt.targets, tainted)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if self._is_read_state_call(stmt.value):
                            tainted.add(target.id)
                        elif self._derives_from(stmt.value, tainted):
                            tainted.add(target.id)
                        else:
                            tainted.discard(target.id)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                self._flag_tainted_mutation(stmt, [stmt.target], tainted)
            elif isinstance(stmt, ast.Expr):
                call = stmt.value
                if isinstance(call, ast.Await):
                    call = call.value
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _MUTATORS
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id in tainted
                ):
                    self.emit(
                        "SNAP011", stmt,
                        f"'{call.func.value.id}.{call.func.attr}(...)' "
                        f"mutates state obtained with AccessMode.READ; "
                        f"request ReadWrite access",
                    )
            # recurse into compound statements with the same taint set
            for inner in self._inner_bodies(stmt):
                self._walk_taint(inner, tainted)

    @staticmethod
    def _inner_bodies(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if inner and isinstance(inner, list) and inner and isinstance(
                inner[0], ast.stmt
            ):
                yield inner
        for handler in getattr(stmt, "handlers", []):
            yield handler.body

    def _flag_tainted_mutation(
        self, stmt: ast.stmt, targets: Sequence[ast.expr],
        tainted: Set[str],
    ) -> None:
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                root = target.value
                if isinstance(root, ast.Name) and root.id in tainted:
                    self.emit(
                        "SNAP011", stmt,
                        f"write through '{root.id}' mutates state "
                        f"obtained with AccessMode.READ; request "
                        f"ReadWrite access",
                    )

    @staticmethod
    def _is_read_state_call(value: ast.expr) -> bool:
        """``await self.get_state(ctx, AccessMode.READ)`` (explicitly
        READ — the ReadWrite default is fine to mutate)."""
        if isinstance(value, ast.Await):
            value = value.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get_state"
        ):
            return False
        mode: Optional[ast.expr] = None
        if len(value.args) >= 2:
            mode = value.args[1]
        for keyword in value.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False
        if isinstance(mode, ast.Attribute) and mode.attr == "READ":
            return True
        return isinstance(mode, ast.Constant) and mode.value == "Read"

    @staticmethod
    def _derives_from(value: ast.expr, tainted: Set[str]) -> bool:
        """One alias level: ``y = x[...]`` / ``y = x.attr`` /
        ``y = x.get(...)`` with ``x`` tainted."""
        if isinstance(value, (ast.Subscript, ast.Attribute)):
            root = value.value
            return isinstance(root, ast.Name) and root.id in tainted
        if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Attribute
        ):
            root = value.func.value
            return isinstance(root, ast.Name) and root.id in tainted
        return False

    # -- SNAP001 / SNAP002 / SNAP016: PACT access declarations ---------------
    def _check_submit_sites(self) -> None:
        for node in ast.walk(self.module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func) or ""
            name = dotted.split(".")[-1]
            if name == "submit_pact":
                self._check_submit_pact(node)
            if name in ("submit_pact", "submit_act"):
                self._check_submit_shim(node, name)
            if (name == "pact" and "TxnRequest" in dotted) or (
                name == "TxnRequest"
            ):
                self._check_txn_request_pact(node)

    # -- SNAP015: the deprecated submission shims ---------------------------
    def _check_submit_shim(self, call: ast.Call, name: str) -> None:
        """Flag direct shim calls outside repro internals: application
        code should go through ``submit(TxnRequest...)``."""
        if _SUBMIT_SHIM_EXEMPT_RE.search(self.module.path):
            return
        self.emit(
            "SNAP015", call,
            f"direct call to the deprecated {name!r} shim; build a "
            f"TxnRequest ({'TxnRequest.pact(...)' if name == 'submit_pact' else 'TxnRequest.act(...)'}) "
            f"and pass it to submit(), which returns a TxnHandle",
        )

    def _check_submit_pact(self, call: ast.Call) -> None:
        access: Optional[ast.expr] = None
        if len(call.args) >= 5:
            access = call.args[4]
        for keyword in call.keywords:
            if keyword.arg == "access":
                access = keyword.value
        self._check_pact_declaration(call, access)

    def _check_txn_request_pact(self, call: ast.Call) -> None:
        """The same declaration checks on the TxnRequest surface:
        ``TxnRequest.pact(kind, key, method, ..., access={...})`` and
        the raw ``TxnRequest(..., access={...})`` constructor."""
        access: Optional[ast.expr] = None
        for keyword in call.keywords:
            if keyword.arg == "access":
                access = keyword.value
        self._check_pact_declaration(call, access)

    def _check_pact_declaration(
        self, call: ast.Call, access: Optional[ast.expr]
    ) -> None:
        if not isinstance(access, ast.Dict):
            return
        keys: List[Any] = []
        literal = True
        for key in access.keys:
            if isinstance(key, ast.Constant):
                keys.append(key.value)
            else:
                literal = False
                if key is not None and not self._checkable_access_key(key):
                    self.emit(
                        "SNAP016", key,
                        f"access-dict key "
                        f"{ast.unparse(key)!r} is a computed "
                        f"expression: the declared actor cannot be "
                        f"checked statically; hoist it into a variable "
                        f"or declare the literal key",
                    )
        if not literal:
            return  # computed keys: SNAP001/002 have nothing provable
        start_key = call.args[1] if len(call.args) >= 2 else None
        for keyword in call.keywords:
            if keyword.arg == "key":
                start_key = keyword.value
        if isinstance(start_key, ast.Constant) and (
            start_key.value not in keys
        ):
            self.emit(
                "SNAP001", call,
                f"actorAccessInfo {keys!r} does not declare the start "
                f"actor {start_key.value!r}; the coordinator rejects "
                f"such PACTs",
            )
        method = call.args[2] if len(call.args) >= 3 else None
        for keyword in call.keywords:
            if keyword.arg == "method":
                method = keyword.value
        if isinstance(method, ast.Constant) and isinstance(
            method.value, str
        ):
            self._check_declared_targets(call, method.value, keys)

    @staticmethod
    def _checkable_access_key(key: ast.expr) -> bool:
        """Keys the access tooling can still reason about: literals,
        plain names (loop/parameter variables, module constants), and
        all-constant ``ActorId(kind, key)`` constructions."""
        if isinstance(key, ast.Constant) or isinstance(key, ast.Name):
            return True
        if isinstance(key, ast.Tuple):
            return all(
                ModuleLinter._checkable_access_key(element)
                for element in key.elts
            )
        if (
            isinstance(key, ast.Call)
            and (_dotted(key.func) or "").split(".")[-1] == "ActorId"
            and len(key.args) == 2
        ):
            return all(
                isinstance(arg, (ast.Constant, ast.Name))
                for arg in key.args
            )
        return False

    def _check_declared_targets(
        self, call: ast.Call, method: str, declared: List[Any]
    ) -> None:
        """SNAP002: literal call targets inside the named transaction
        method (same module) must appear in the literal access dict."""
        bodies = [
            item
            for cls in ast.walk(self.module.tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.AsyncFunctionDef)
            and item.name == method and _is_txn_body(item)
        ]
        if len(bodies) != 1:
            return  # ambiguous or defined elsewhere: nothing provable
        for target in self._literal_call_targets(bodies[0]):
            if target not in declared:
                self.emit(
                    "SNAP002", call,
                    f"transaction method {method!r} calls actor "
                    f"{target!r}, which the actorAccessInfo "
                    f"{declared!r} never declares; the batch would "
                    f"stall on an unscheduled access",
                )

    # -- SNAP014: the runtime-backend seam -----------------------------------
    def _check_sim_imports(self) -> None:
        """Flag ``repro.sim`` imports outside the kernel and the seam.

        The simulation kernel itself (``repro/sim/**``) and the two
        seam modules that wrap it (``repro/runtime/kernel.py``, whose
        default target it is, and ``repro/runtime/sim_backend.py``) are
        exempt; everything else — the rest of ``repro/runtime``
        included — must stay substrate-agnostic and dispatch through
        ``repro.runtime``.
        Both module-level and function-local imports are flagged.
        """
        if _SIM_IMPORT_EXEMPT_RE.search(self.module.path):
            return
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names
                         if _is_sim_module(a.name)]
            elif isinstance(node, ast.ImportFrom):
                names = (
                    [node.module] if node.level == 0 and node.module
                    and _is_sim_module(node.module) else []
                )
            else:
                continue
            for name in names:
                self.emit(
                    "SNAP014", node,
                    f"direct import of simulation-kernel internals "
                    f"({name!r}) outside repro.sim and its seam pins "
                    f"this module to the DES substrate; dispatch "
                    f"through repro.runtime.kernel or a backend handle",
                )

    # -- SNAP013: obs instrument declarations --------------------------------
    def _check_instrument_sites(self) -> None:
        """``<registry>.counter/gauge/histogram("name", ...)`` sites
        with a literal name: the registry enforces the same contract at
        runtime, but only when observability is *on* — most runs leave
        it off, so a bad declaration would otherwise ship."""
        for node in ast.walk(self.module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
            ):
                continue
            name = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name = keyword.value
            if not (
                isinstance(name, ast.Constant)
                and isinstance(name.value, str)
            ):
                continue  # computed names: nothing provable statically
            kind = node.func.attr
            if not _INSTRUMENT_NAME_RE.match(name.value):
                self.emit(
                    "SNAP013", node,
                    f"instrument name {name.value!r} violates the "
                    f"snapper_<component>_<name>_<unit> convention",
                )
            elif kind == "counter" and not name.value.endswith("_total"):
                self.emit(
                    "SNAP013", node,
                    f"counter {name.value!r} must end in '_total'",
                )
            if kind == "histogram":
                self._check_histogram_buckets(node, name.value)

    def _check_histogram_buckets(self, call: ast.Call, name: str) -> None:
        buckets: Optional[ast.expr] = None
        for keyword in call.keywords:
            if keyword.arg == "buckets":
                buckets = keyword.value
        if buckets is None:
            self.emit(
                "SNAP013", call,
                f"histogram {name!r} declared without explicit buckets",
            )
            return
        if isinstance(buckets, (ast.Tuple, ast.List)):
            values: List[float] = []
            for element in buckets.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, (int, float))
                ):
                    return  # computed bounds: nothing provable
                values.append(float(element.value))
            if not values or values != sorted(set(values)):
                self.emit(
                    "SNAP013", call,
                    f"histogram {name!r} buckets must be non-empty and "
                    f"strictly increasing",
                )

    @staticmethod
    def _literal_call_targets(fn: ast.AsyncFunctionDef) -> Iterator[Any]:
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "call_actor"
                and len(node.args) >= 2
            ):
                continue
            target = node.args[1]
            if isinstance(target, ast.Constant):
                yield target.value
                continue
            # self.ref(kind, key).id / self.ref(kind, key): the key is
            # the *last* argument of the inner ref(...) call.
            if isinstance(target, ast.Attribute) and target.attr == "id":
                target = target.value
            if (
                isinstance(target, ast.Call)
                and isinstance(target.func, ast.Attribute)
                and target.func.attr == "ref"
                and target.args
                and isinstance(target.args[-1], ast.Constant)
            ):
                yield target.args[-1].value


# -- public API -------------------------------------------------------------
def lint_source(
    source: str, path: str = "<string>",
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module given as source text."""
    tree = ast.parse(source, filename=path)
    module = _Module(path, source, tree)
    enabled = set(rules) if rules is not None else None
    return ModuleLinter(module, enabled).run()


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every ``*.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file_path), rules))
    return findings
