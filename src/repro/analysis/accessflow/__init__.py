"""``repro.analysis.accessflow``: interprocedural access-set inference.

Snapper's deterministic (PACT) path rests on a programmer promise: the
actor access set declared at submission exactly covers what the
transaction body will touch, transitively through cross-actor calls
(§3.2.1; Theorem 4.2 only holds for accurate declarations).  This
package makes the promise *verified instead of trusted*:

* :mod:`~repro.analysis.accessflow.model` loads a program — modules,
  classes, ``kind -> actor class`` bindings — and resolves the idioms
  actor code uses to name other actors (``self.ref(KIND, key).id``,
  helper constructors, ``ActorId(...)`` factories);
* :mod:`~repro.analysis.accessflow.infer` builds per-method access
  summaries over an abstract key domain (literal / parameter-forwarded
  / input-determined / ⊤) and propagates them interprocedurally through
  same-actor helper calls and cross-actor ``call_actor`` edges;
* :mod:`~repro.analysis.accessflow.verify` checks every literal
  ``TxnRequest.pact(...)`` / ``TxnRequest(...)`` declaration against
  the inferred set — under-declaration (batch-stall risk),
  over-declaration (lost parallelism), mode downgrades — and can
  rewrite literal access dicts in place (``--fix``).

The runtime twin is :class:`repro.core.engine.sanitizer.AccessSanitizer`
(``SnapperConfig(sanitize_access_sets=True)``): the dynamic oracle that
catches what static analysis marks ⊤.  Run both from the CLI::

    python -m repro.analysis infer  src examples
    python -m repro.analysis verify src examples tests --strict [--fix]
"""

from repro.analysis.accessflow.infer import (
    Access,
    AccessSummary,
    Inferencer,
    Key,
    KeyKind,
)
from repro.analysis.accessflow.model import Program
from repro.analysis.accessflow.verify import (
    AccessFinding,
    apply_fixes,
    verify_paths,
    verify_program,
)

__all__ = [
    "Access",
    "AccessFinding",
    "AccessSummary",
    "Inferencer",
    "Key",
    "KeyKind",
    "Program",
    "apply_fixes",
    "verify_paths",
    "verify_program",
]
