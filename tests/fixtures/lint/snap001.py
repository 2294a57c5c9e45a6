"""Fixture: SNAP001 — actorAccessInfo omits the start actor."""

from repro.api import TxnRequest


def build_request():
    return TxnRequest.pact(
        "account", "alice", "transfer", (10.0, "bob"),
        access={"bob": 1},
    )
