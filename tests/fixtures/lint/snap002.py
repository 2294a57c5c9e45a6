"""Fixture: SNAP002 — the transaction body calls an undeclared actor."""

from repro.api import TxnRequest


class FakeFuncCall:
    def __init__(self, method, func_input=None):
        self.method = method
        self.func_input = func_input


class TransferActor:
    async def transfer(self, ctx, txn_input):
        await self.call_actor(
            ctx, "carol", FakeFuncCall("deposit", 1.0)
        )
        return None


def build_request():
    return TxnRequest.pact(
        "account", "alice", "transfer",
        access={"alice": 1, "bob": 1},
    )
