"""The snapper-lint rule registry.

Every rule has a stable identifier (``SNAP0xx``) that appears in lint
output, in suppression comments (``# snapper: noqa SNAP0xx``), and in
``docs/analysis.md``.  The registry is data: the actual AST checks live
in :mod:`repro.analysis.lint`, keyed by these IDs, so the CLI can list
rules and the docs stay in sync with a single source of truth.

Scopes
------
``txn-body``
    Checked inside *transaction bodies* — ``async def`` methods whose
    second parameter (after ``self``) is literally named ``ctx``, the
    signature contract of Snapper transaction methods (Fig. 2).
``actor-method``
    Checked inside any ``async def`` method of a class.
``call-site``
    Checked at ``TxnRequest.pact(...)`` / ``TxnRequest(...)`` call sites
    anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable ID plus human-facing metadata."""

    id: str
    name: str
    scope: str
    summary: str


_RULES: Tuple[Rule, ...] = (
    Rule(
        id="SNAP001",
        name="pact-missing-start-access",
        scope="call-site",
        summary=(
            "A literal access dict passed to TxnRequest.pact/TxnRequest "
            "does not declare the transaction's own start actor; the "
            "coordinator rejects such PACTs at registration."
        ),
    ),
    Rule(
        id="SNAP002",
        name="pact-undeclared-call-target",
        scope="call-site",
        summary=(
            "A PACT's transaction method calls an actor (literal "
            "call_actor / self.ref target) that the literal "
            "actorAccessInfo at the submit site never declares; the "
            "batch would stall waiting for an access that was never "
            "scheduled."
        ),
    ),
    Rule(
        id="SNAP003",
        name="wall-clock-in-txn",
        scope="txn-body",
        summary=(
            "A transaction body reads the wall clock (time.time, "
            "time.monotonic, datetime.now, ...).  PACT batches must "
            "replay deterministically; use the actor's sim_now instead."
        ),
    ),
    Rule(
        id="SNAP004",
        name="unseeded-random-in-txn",
        scope="txn-body",
        summary=(
            "A transaction body draws from the global random module or "
            "constructs an unseeded random.Random(); reruns and batch "
            "replay diverge.  Use a seeded generator passed in via the "
            "transaction input or the workload."
        ),
    ),
    Rule(
        id="SNAP005",
        name="uuid-in-txn",
        scope="txn-body",
        summary=(
            "A transaction body generates a uuid (uuid4/uuid1): "
            "nondeterministic across replays.  Derive identifiers from "
            "the tid/bid or deterministic counters instead."
        ),
    ),
    Rule(
        id="SNAP006",
        name="set-iteration-in-txn",
        scope="txn-body",
        summary=(
            "A transaction body iterates over a set/frozenset whose "
            "order is not defined; state mutations driven by that order "
            "are nondeterministic.  Sort first (e.g. sorted(s))."
        ),
    ),
    Rule(
        id="SNAP007",
        name="env-io-read-in-txn",
        scope="txn-body",
        summary=(
            "A transaction body reads the environment or does direct "
            "I/O (os.environ/os.getenv/open/input): an external, "
            "nondeterministic input to a body that must replay."
        ),
    ),
    Rule(
        id="SNAP008",
        name="unawaited-coroutine",
        scope="actor-method",
        summary=(
            "An async method of the same class (or module) is called as "
            "a bare statement: the coroutine is created but never "
            "awaited or spawned, so its body silently never runs.  "
            "(ActorRef.call returns a Future and is fire-and-forget "
            "safe; it is not flagged.)"
        ),
    ),
    Rule(
        id="SNAP009",
        name="await-holding-actor-lock",
        scope="txn-body",
        summary=(
            "A transaction body awaits after acquiring an ActorLock and "
            "before releasing it: the suspended turn keeps the lock "
            "while other transactions interleave — a deadlock and "
            "lock-leak hazard outside the engine's own S2PL discipline."
        ),
    ),
    Rule(
        id="SNAP010",
        name="direct-state-assignment",
        scope="txn-body",
        summary=(
            "A transaction body assigns self._state / self.state "
            "directly instead of mutating the handle returned by "
            "get_state: the write bypasses ReadWrite tracking, so it is "
            "neither snapshotted, undone on abort, nor persisted."
        ),
    ),
    Rule(
        id="SNAP011",
        name="state-write-under-read",
        scope="txn-body",
        summary=(
            "A transaction body mutates state obtained with "
            "AccessMode.READ: the engine never marks the actor dirty, "
            "so the mutation diverges the live state from the committed "
            "snapshot and is lost or resurrected on rollback."
        ),
    ),
    Rule(
        id="SNAP012",
        name="blocking-call-in-async",
        scope="actor-method",
        summary=(
            "An async actor method makes a blocking call (time.sleep, "
            "subprocess.*): the whole event loop — every actor on the "
            "silo — stalls until it returns.  Model compute with "
            "charge() / await sim primitives instead."
        ),
    ),
    Rule(
        id="SNAP013",
        name="bad-instrument-declaration",
        scope="call-site",
        summary=(
            "An obs instrument is declared with a name that violates "
            "the snapper_<component>_<name>_<unit> convention, a "
            "counter that does not end in _total, or a histogram "
            "without explicit strictly-increasing buckets; the "
            "registry rejects these at runtime — under observability, "
            "which most runs leave off, so the crash ships."
        ),
    ),
    Rule(
        id="SNAP014",
        name="sim-import-outside-backend",
        scope="module",
        summary=(
            "Code outside the simulation kernel and the runtime seam "
            "imports repro.sim internals directly: it silently pins "
            "itself to the DES substrate and breaks on every other "
            "RuntimeBackend.  Dispatch through repro.runtime.kernel "
            "(or a backend handle) instead."
        ),
    ),
    # SNAP015 (deprecated-submit-shim) is retired along with the shims
    # it flagged; rule IDs are never reused.
    Rule(
        id="SNAP016",
        name="pact-dynamic-access-key",
        scope="call-site",
        summary=(
            "A key of a PACT access dict is a computed expression "
            "(call, attribute, subscript, arithmetic) rather than a "
            "literal, a plain name, or a constant ActorId(...): the "
            "declared actor cannot be checked statically and may "
            "silently diverge from what the body touches.  Hoist the "
            "expression into a variable, or declare the literal key."
        ),
    ),
)

#: rule ID -> :class:`Rule`, in declaration order.
RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULES}

ALL_RULE_IDS: Tuple[str, ...] = tuple(RULES)
