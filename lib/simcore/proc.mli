(** Process-oriented simulation on top of {!Engine}, using OCaml 5
    effect handlers.

    A process ("fiber") is an ordinary OCaml function that may block on
    simulated time ({!hold}) or on synchronization objects ({!Ivar},
    {!Mailbox}, or a raw {!suspend}).  This recreates the programming
    model of DeNet, in which the paper's simulator was written: client
    and server activities are written as straight-line code that holds
    resources and blocks on locks.

    Concurrency discipline: the simulation is single-threaded; a fiber
    runs without preemption until it blocks, so all state updates between
    two blocking points are atomic.  Resumptions requested by a resumer
    are deferred through the engine (at the current simulated time), so
    waking a fiber never re-enters the waker's critical section. *)

type 'a resumer = ('a, exn) result -> unit
(** Completion callback for a suspended fiber.  Calling it with [Ok v]
    resumes the fiber with value [v]; [Error e] raises [e] inside the
    fiber (used to abort transactions blocked in lock queues).  A
    resumer must be invoked exactly once; a second call raises
    [Invalid_argument]. *)

exception Cancelled
(** Raised inside a fiber whose pending wait was cancelled (for example
    a transaction chosen as a deadlock victim).  Protocol code catches
    it at the transaction top level. *)

val spawn : Engine.t -> (unit -> unit) -> unit
(** [spawn engine f] starts fiber [f] at the current simulated time (it
    begins running when the engine processes its start event).  An
    exception escaping [f] other than a normal return is re-raised on
    the engine loop, aborting the simulation: fibers are expected to
    handle their own domain errors. *)

val suspend : Engine.t -> ('a resumer -> unit) -> 'a
(** [suspend engine register] blocks the calling fiber.  [register] is
    called immediately with the fiber's resumer, which it must stash
    somewhere (a wait queue, a pending-callback table, ...).  Must be
    called from within a fiber. *)

type 'a waiter
(** A suspended fiber awaiting a value of type ['a]: the continuation,
    result slot and resumption thunk fused into one record.  The
    allocation-lean variant of a {!resumer} — resuming a waiter builds
    no closure, it stores the result and enqueues a thunk allocated at
    suspension time.  Used by the hot synchronization primitives
    ({!Mailbox}); {!suspend} remains for code that wants a plain
    callback. *)

val suspend_waiter : Engine.t -> ('a waiter -> unit) -> 'a
(** Like {!suspend}, but [register] receives the waiter itself; stash
    it and later pass it to {!resume} exactly once. *)

val resume : 'a waiter -> ('a, exn) result -> unit
(** Resume a waiter: the fiber continues with [Ok v], or [Error e]
    raised at its suspension point, at the current simulated time.  A
    second resume raises [Invalid_argument]. *)

val hold : Engine.t -> float -> unit
(** Block the calling fiber for [dt] seconds of simulated time. *)

val yield : Engine.t -> unit
(** Block until all other events scheduled for the current instant have
    run. *)

(** {2 Mailbox core}

    The implementation behind {!Mailbox}, fused with the effect handler
    so a blocked receiver is parked as a bare continuation: the receive
    side builds no waiter and no closure.  The model does not use
    mailboxes; the benchmark's event-floor probe and the tests do.  Use
    the {!Mailbox} wrapper; these are exposed only for it. *)

type 'a mbox

val mbox_create : Engine.t -> 'a mbox
val mbox_send : 'a mbox -> 'a -> unit
val mbox_recv : 'a mbox -> 'a
val mbox_length : 'a mbox -> int
