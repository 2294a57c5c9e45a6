"""The actor runtime ("silo").

One :class:`ActorRuntime` models one Orleans silo: a registry of actor
kinds, a table of live activations, an ``n``-core CPU pool, and a message
fabric with seeded random delivery jitter.  The runtime implements:

* on-demand activation and (optional) idle deactivation of virtual actors;
* turn-based scheduling, with reentrancy as an opt-in per actor class;
* failure injection: killing an activation drops its in-memory state and
  fails its in-flight turns; the next message re-activates it (§2, §4.2.5);
* a ``services`` registry for the in-memory singletons the paper shares
  across actors on a machine — the loggers (§4.1.1), and in our build the
  commit watermark and abort controller.

The cost model: every delivered invocation charges ``cpu_per_dispatch``
on the core pool before user code runs, and the message itself takes
``net_latency ± jitter`` of virtual time.  Everything else (state access,
lock logic, 2PC bookkeeping) is charged explicitly by the layers above.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Tuple

from repro.actors.actor import Actor
from repro.actors.ref import ActorId, ActorRef
from repro.errors import (
    ActorCrashedError,
    SimulationError,
    UnknownActorMethodError,
)
from repro.runtime import CancelledErrors, as_backend


class SiloConfig:
    """Tunable constants of the simulated silo.

    Defaults are calibrated so that one silo core sustains on the order of
    10k simple actor calls per second — the right ballpark for the paper's
    3 GHz cores running Orleans RPCs (Fig. 12 shows NT around 25-90k tps on
    4 cores depending on transaction size).
    """

    def __init__(
        self,
        cores: int = 4,
        net_latency: float = 50e-6,
        net_jitter: float = 25e-6,
        cpu_per_dispatch: float = 20e-6,
        cpu_per_send: float = 5e-6,
        idle_deactivate_after: Optional[float] = None,
        seed: int = 0,
        num_silos: int = 1,
        cross_silo_latency: float = 250e-6,
        cross_silo_jitter: float = 100e-6,
    ):
        self.cores = cores
        #: one-way message latency between any two actors (in-process on
        #: the same silo: queueing plus serialization).
        self.net_latency = net_latency
        #: uniform jitter added per message; source of delivery reordering.
        self.net_jitter = net_jitter
        #: CPU charged on the receiving silo per delivered invocation.
        self.cpu_per_dispatch = cpu_per_dispatch
        #: CPU charged on the sender per outgoing invocation.
        self.cpu_per_send = cpu_per_send
        #: deactivate actors idle this long (None = keep forever).
        self.idle_deactivate_after = idle_deactivate_after
        self.seed = seed
        #: multi-server deployment (§7 future work): actors are hashed
        #: over this many silos, each with ``cores`` of its own; messages
        #: between silos pay the cross-silo latency below.
        self.num_silos = num_silos
        self.cross_silo_latency = cross_silo_latency
        self.cross_silo_jitter = cross_silo_jitter


class _Envelope:
    """One in-flight invocation."""

    __slots__ = ("method", "args", "kwargs", "reply")

    def __init__(self, method: str, args: tuple, kwargs: dict, reply: Any):
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.reply = reply


class _Activation:
    """Runtime bookkeeping for one live actor instance."""

    __slots__ = (
        "actor", "state", "inbox", "turns_inflight", "turn_tasks",
        "last_active_at",
    )

    ACTIVATING = "activating"
    ACTIVE = "active"
    DEAD = "dead"

    def __init__(self, actor: Actor):
        self.actor = actor
        self.state = _Activation.ACTIVATING
        self.inbox: Deque[_Envelope] = deque()
        self.turns_inflight = 0
        self.turn_tasks: set = set()
        self.last_active_at = 0.0


class ActorRuntime:
    """A single simulated silo hosting virtual actors."""

    def __init__(self, loop: Any, config: Optional[SiloConfig] = None):
        #: the execution substrate: any :class:`RuntimeBackend`.  A raw
        #: ``SimLoop`` is still accepted (and wrapped) for the pre-seam
        #: call sites and tests that construct one directly.
        self.backend = as_backend(loop)
        #: legacy alias — the handle exactly as the caller passed it.
        self.loop = loop if loop is not None else self.backend
        self.config = config or SiloConfig()
        #: one CPU pool per silo; actors charge the pool of the silo
        #: they are placed on (single-silo deployments have exactly one).
        self.cpu_pools = [
            self.backend.cpu_pool(self.config.cores, label=f"silo{i}.cpu")
            for i in range(self.config.num_silos)
        ]
        self.cpu = self.cpu_pools[0]
        #: optional placement override: actor_id -> silo index.  By
        #: default actors are hashed across silos; pinning matters for
        #: coordinator placement (§7 discusses its latency impact).
        self.placement_overrides: Dict[ActorId, int] = {}
        self._factories: Dict[str, Callable[..., Actor]] = {}
        self._activations: Dict[ActorId, _Activation] = {}
        self._incarnations: Dict[ActorId, int] = {}
        #: in-memory singletons shared by all actors on the machine
        #: (loggers, commit registry, ...), keyed by name.
        self.services: Dict[str, Any] = {}
        #: delivery-path interception hook (:mod:`repro.chaos`): a
        #: callable ``(target, method, delay) -> None | (action, extra)``
        #: consulted once per outgoing message.  ``None`` delivers
        #: normally; ``("drop", d)`` loses the message (the sender's
        #: reply fails with :class:`ActorCrashedError` after ``d`` extra
        #: seconds, modelling a transport timeout); ``("delay", d)``
        #: postpones delivery by ``d``; ``("duplicate", d)`` delivers
        #: twice, the copy ``d`` seconds later.
        self.message_interceptor: Optional[
            Callable[[ActorId, str, float], Optional[Tuple[str, float]]]
        ] = None
        # message statistics for the experiment harness
        self.messages_sent = 0
        self.cross_silo_messages = 0
        self.activations_created = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0
        self._rng = self.backend.rng
        # obs instrument handles (attach_obs); None keeps the hot paths
        # at a single comparison when observability is off.
        self._obs_messages = None
        self._obs_msg_children: Dict[str, Any] = {}
        self._obs_mailbox = None
        self._obs_activations = None

    def attach_obs(self, obs) -> None:
        """Declare the runtime's instruments on an obs registry.

        The bare-family handles are resolved to their children
        (``.labels()``) up front: these fire per message, so the hot
        path should be one method call on the child, nothing more.
        """
        self._obs_messages = obs.counter(
            "snapper_runtime_messages_total",
            "Invocations sent through the message fabric, by method",
            labelnames=("method",),
        )
        self._obs_msg_children = {}
        self._obs_mailbox = obs.histogram(
            "snapper_runtime_mailbox_depth_count",
            "Inbox depth observed at each message delivery",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64),
        ).labels()
        self._obs_activations = obs.counter(
            "snapper_runtime_activations_total",
            "Actor activations created",
        ).labels()

    # -- registration & refs ------------------------------------------------
    def register(self, kind: str, factory: Callable[[], Actor]) -> None:
        """Register an actor kind.

        ``factory`` is a zero-argument callable returning a fresh actor
        instance (typically the class itself, or ``lambda: Cls(args)``).
        """
        if kind in self._factories:
            raise SimulationError(f"actor kind {kind!r} already registered")
        self._factories[kind] = factory

    def ref(self, kind: str, key: Hashable) -> ActorRef:
        return ActorRef(self, ActorId(kind, key))

    # -- placement (multi-silo, §7 future work) ----------------------------
    def silo_of(self, actor_id: ActorId) -> int:
        """The silo hosting ``actor_id`` (stable hash unless pinned)."""
        if self.config.num_silos == 1:
            return 0
        override = self.placement_overrides.get(actor_id)
        if override is not None:
            return override % self.config.num_silos
        return hash(actor_id) % self.config.num_silos

    def pin_actor(self, actor_id: ActorId, silo: int) -> None:
        """Pin an actor to a silo (placement policy knob)."""
        self.placement_overrides[actor_id] = silo

    def cpu_of(self, actor_id: ActorId) -> Any:
        return self.cpu_pools[self.silo_of(actor_id)]

    def total_cpu_busy(self) -> float:
        return sum(pool.busy_time for pool in self.cpu_pools)

    # -- messaging ------------------------------------------------------------
    def send(self, target: ActorId, method: str, args: tuple,
             kwargs: dict) -> Any:
        """Send an asynchronous RPC; delivery happens after network delay."""
        reply = self.backend.create_future(label=f"{target}.{method}")
        if target.kind not in self._factories:
            reply.set_exception(
                SimulationError(f"unknown actor kind {target.kind!r}")
            )
            return reply
        delay, destination, cross_silo = self._message_delay(target)
        envelope = _Envelope(method, args, kwargs, reply)
        self.messages_sent += 1
        if self._obs_messages is not None:
            child = self._obs_msg_children.get(method)
            if child is None:
                child = self._obs_msg_children[method] = (
                    self._obs_messages.labels(method=method)
                )
            child.inc()
        verdict = None
        if self.message_interceptor is not None:
            verdict = self.message_interceptor(target, method, delay)
        if verdict is None:
            self.backend.deliver(
                delay, self._deliver, target, envelope,
                silo=destination, cross_silo=cross_silo,
            )
            return reply
        action, extra = verdict
        if action == "drop":
            self.messages_dropped += 1
            self.backend.call_later(
                delay + extra, reply.try_set_exception,
                ActorCrashedError(
                    f"message {target}.{method} lost (fault injection)"
                ),
            )
        elif action == "delay":
            self.messages_delayed += 1
            self.backend.deliver(
                delay + extra, self._deliver, target, envelope,
                silo=destination, cross_silo=cross_silo,
            )
        elif action == "duplicate":
            self.messages_duplicated += 1
            self.backend.deliver(
                delay, self._deliver, target, envelope,
                silo=destination, cross_silo=cross_silo,
            )
            copy = _Envelope(
                method, args, kwargs,
                self.backend.create_future(label=f"dup:{target}.{method}"),
            )
            self.backend.deliver(
                delay + extra, self._deliver, target, copy,
                silo=destination, cross_silo=cross_silo,
            )
        else:
            raise SimulationError(
                f"unknown message-interceptor action {action!r}"
            )
        return reply

    def _message_delay(self, target: ActorId) -> Tuple[float, int, bool]:
        """``(delay, destination silo, cross-silo?)`` for one message:
        local silo messaging, or the cross-silo network when sender and
        target live apart (§7)."""
        if self.config.num_silos == 1:
            delay = self.config.net_latency + self._rng.uniform(
                0, self.config.net_jitter
            )
            return delay, 0, False
        origin = self.backend.current_silo()
        destination = self.silo_of(target)
        if origin is not None and origin == destination:
            delay = self.config.net_latency + self._rng.uniform(
                0, self.config.net_jitter
            )
            return delay, destination, False
        # cross-silo (or external client) hop
        self.cross_silo_messages += 1
        delay = self.config.cross_silo_latency + self._rng.uniform(
            0, self.config.cross_silo_jitter
        )
        return delay, destination, True

    def _deliver(self, target: ActorId, envelope: _Envelope) -> None:
        activation = self._activations.get(target)
        if activation is None or activation.state == _Activation.DEAD:
            activation = self._activate(target)
        activation.last_active_at = self.backend.now
        activation.inbox.append(envelope)
        if self._obs_mailbox is not None:
            self._obs_mailbox.observe(len(activation.inbox))
        self._pump(target, activation)

    def _pump(self, actor_id: ActorId, activation: _Activation) -> None:
        """Start turns from the inbox, respecting turn-based scheduling."""
        if activation.state != _Activation.ACTIVE:
            return  # still activating; pumped again once on_activate ends
        actor = activation.actor
        while activation.inbox:
            if not actor.reentrant and activation.turns_inflight > 0:
                return  # non-reentrant: one request at a time
            envelope = activation.inbox.popleft()
            activation.turns_inflight += 1
            task = self.backend.create_task(
                self._run_turn(actor_id, activation, envelope),
                label=f"turn:{actor_id}.{envelope.method}",
                silo=self.silo_of(actor_id),
            )
            activation.turn_tasks.add(task)
            task.add_done_callback(activation.turn_tasks.discard)

    async def _run_turn(self, actor_id: ActorId, activation: _Activation,
                        envelope: _Envelope) -> None:
        actor = activation.actor
        incarnation = actor.incarnation
        method = envelope.method
        reply = envelope.reply
        try:
            await self.cpu_of(actor_id).execute(self.config.cpu_per_dispatch)
            handler = getattr(actor, method, None)
            if handler is None or not callable(handler):
                raise UnknownActorMethodError(
                    f"{actor_id} has no method {method!r}"
                )
            result = await handler(*envelope.args, **envelope.kwargs)
        except GeneratorExit:  # interpreter teardown: never swallow
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded to caller
            if (isinstance(exc, CancelledErrors)
                    and activation.state == _Activation.DEAD):
                exc = ActorCrashedError(f"{actor_id} crashed mid-turn")
            reply.try_set_exception(exc)
        else:
            if activation.state == _Activation.DEAD:
                # The actor crashed while this turn was suspended: its state
                # mutations are gone, so the caller must see a failure.
                reply.try_set_exception(
                    ActorCrashedError(f"{actor_id} crashed mid-turn")
                )
            else:
                reply.try_set_result(result)
        finally:
            # A crash may have replaced the activation mid-turn; only touch
            # the bookkeeping if this turn still belongs to the live one.
            if activation.actor.incarnation == incarnation:
                activation.turns_inflight -= 1
                activation.last_active_at = self.backend.now
                self._pump(actor_id, activation)

    # -- activation lifecycle ---------------------------------------------------
    def _activate(self, actor_id: ActorId) -> _Activation:
        factory = self._factories.get(actor_id.kind)
        if factory is None:
            raise SimulationError(f"unknown actor kind {actor_id.kind!r}")
        actor = factory()
        actor.id = actor_id
        actor.runtime = self
        incarnation = self._incarnations.get(actor_id, 0) + 1
        self._incarnations[actor_id] = incarnation
        actor.incarnation = incarnation
        activation = _Activation(actor)
        self._activations[actor_id] = activation
        self.activations_created += 1
        if self._obs_activations is not None:
            self._obs_activations.inc()
        self.backend.create_task(
            self._finish_activation(actor_id, activation),
            label=f"activate:{actor_id}",
        )
        if self.config.idle_deactivate_after is not None:
            self.backend.call_later(
                self.config.idle_deactivate_after,
                self._maybe_deactivate, actor_id, activation,
            )
        return activation

    async def _finish_activation(self, actor_id: ActorId,
                                 activation: _Activation) -> None:
        try:
            await activation.actor.on_activate()
        except BaseException as exc:  # noqa: BLE001 - fail queued requests
            activation.state = _Activation.DEAD
            self._activations.pop(actor_id, None)
            while activation.inbox:
                activation.inbox.popleft().reply.try_set_exception(
                    ActorCrashedError(f"{actor_id} failed to activate: {exc!r}")
                )
            return
        if activation.state == _Activation.ACTIVATING:
            activation.state = _Activation.ACTIVE
            self._pump(actor_id, activation)

    def _maybe_deactivate(self, actor_id: ActorId,
                          activation: _Activation) -> None:
        idle_for = self.backend.now - activation.last_active_at
        timeout = self.config.idle_deactivate_after
        if self._activations.get(actor_id) is not activation:
            return
        if (activation.turns_inflight == 0 and not activation.inbox
                and idle_for >= timeout):
            self.deactivate(actor_id)
        else:
            self.backend.call_later(timeout, self._maybe_deactivate,
                                    actor_id, activation)

    def deactivate(self, actor_id: ActorId) -> None:
        """Gracefully deactivate an idle actor (state is *not* recovered —
        transactional actors persist through the WAL, not activation)."""
        activation = self._activations.pop(actor_id, None)
        if activation is None:
            return
        activation.state = _Activation.DEAD
        self.backend.create_task(
            activation.actor.on_deactivate(), label=f"deactivate:{actor_id}"
        )

    # -- failure injection ---------------------------------------------------
    def kill(self, actor_id: ActorId) -> bool:
        """Crash one actor: drop its in-memory state immediately.

        In-flight turns observe the crash when they next touch the actor;
        messages queued in its inbox fail with :class:`ActorCrashedError`.
        Returns False when the actor was not active.
        """
        activation = self._activations.pop(actor_id, None)
        if activation is None:
            return False
        activation.state = _Activation.DEAD
        while activation.inbox:
            activation.inbox.popleft().reply.try_set_exception(
                ActorCrashedError(f"{actor_id} crashed")
            )
        # Turns suspended at an await never resume on a dead actor: cancel
        # them so their callers observe the crash instead of hanging.
        for task in list(activation.turn_tasks):
            task.cancel(f"{actor_id} crashed")
        return True

    def kill_all(self) -> int:
        """Crash the whole silo (every activation); returns count killed."""
        ids = list(self._activations)
        for actor_id in ids:
            self.kill(actor_id)
        return len(ids)

    # -- introspection --------------------------------------------------------
    def is_active(self, actor_id: ActorId) -> bool:
        return actor_id in self._activations

    def active_count(self) -> int:
        return len(self._activations)

    def service(self, name: str) -> Any:
        try:
            return self.services[name]
        except KeyError:
            raise SimulationError(f"no service {name!r} registered") from None
