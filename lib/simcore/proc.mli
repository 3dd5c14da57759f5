(** Process-oriented simulation on top of {!Engine}, using OCaml 5
    effect handlers.

    A process ("fiber") is an ordinary OCaml function that may block on
    simulated time ({!hold}) or on synchronization objects ({!Ivar},
    {!Mailbox}, or a raw {!suspend}).  This recreates the programming
    model of DeNet, in which the paper's simulator was written: client
    and server activities are written as straight-line code that holds
    resources and blocks on locks.

    There is one way to block: {!suspend} parks the fiber as a
    {!waiter}, and {!resume} wakes it.  {!hold}, {!yield} and every
    synchronization object are built on that pair.

    Concurrency discipline: the simulation is single-threaded; a fiber
    runs without preemption until it blocks, so all state updates between
    two blocking points are atomic.  {!resume} defers the continuation
    through the engine (at the current simulated time), so waking a
    fiber never re-enters the waker's critical section. *)

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

type 'a waiter
(** A suspended fiber awaiting a value of type ['a]: the continuation,
    result slot and resumption thunk fused into one record, allocated
    at suspension time, so resuming builds no closure.  The waiter
    carries the engine of the fiber's {!spawn}, so neither suspending
    nor resuming names an engine. *)

val suspend : ('a waiter -> unit) -> 'a
(** [suspend register] blocks the calling fiber.  [register] is
    called immediately with the fiber's waiter, which it must stash
    somewhere (a wait queue, a pending-callback table, ...) and later
    pass to {!resume} exactly once.  Must be called from within a
    fiber. *)

val resume : 'a waiter -> ('a, exn) result -> unit
(** Resume a waiter: the fiber continues with [Ok v], or [Error e]
    raised at its suspension point (used to abort transactions blocked
    in lock queues), at the current simulated time.  A second resume
    raises [Invalid_argument]. *)

val hold : float -> unit
(** Block the calling fiber for [dt] seconds of simulated time: a timer
    event at [now + dt], then a same-instant hop that continues the
    fiber.  [hold 0.0] returns at once, with no event. *)

val yield : unit -> unit
(** Block until all other events scheduled for the current instant have
    run. *)
