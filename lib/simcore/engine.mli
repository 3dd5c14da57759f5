(** Discrete-event simulation engine: a virtual clock plus an ordered
    queue of pending events.

    This is the substrate that replaces DeNet [Livn88] in the paper's
    model.  Events scheduled for the same instant fire in FIFO order
    (insertion order), which keeps runs deterministic.

    The pending set is a monomorphic structure-of-arrays queue
    ({!Equeue}): a 4-ary heap of future events plus a FIFO ring for
    zero-delay events, arbitrated by (time, seq) — see DESIGN.md
    "Event core internals" for why the split cannot reorder events. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time, in seconds. *)

exception Time_travel of string
(** Raised when an event is scheduled before the current clock.  The
    message names the offending scheduling primitive, the requested
    time, the clock value, and the delta — a fault-injection hook or a
    timer computed from a stale timestamp fails loudly instead of
    silently reordering history. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** [schedule_after t dt f] runs [f] at time [now t +. dt].
    Raises {!Time_travel} when [dt] is negative. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] at absolute [time].  Raises
    {!Time_travel} when [time] precedes [now t] (beyond rounding
    tolerance). *)

val schedule_now : t -> (unit -> unit) -> unit
(** [schedule_now t f] runs [f] at the current instant, after every
    event already scheduled for it: equivalent to
    [schedule_after t 0.0 f] but skipping the time arithmetic — the
    fast path taken by every fiber resumption and wakeup. *)

exception Event_budget_exceeded of string
(** Raised by {!step}, {!run} and {!run_until} when the optional
    [?max_events] budget is exhausted.  The message records the clock,
    the number of events processed and the queue depth, so a runaway
    simulation fails with a diagnostic instead of spinning forever. *)

val step : ?max_events:int -> t -> bool
(** Process the single earliest pending event; [false] when the queue
    is empty.  [max_events] bounds the total events processed since
    engine creation. *)

val run : ?max_events:int -> t -> unit
(** Process events until the queue is empty.  [max_events] bounds the
    total number of events processed since engine creation (compare
    {!events_processed}). *)

val run_until : ?max_events:int -> t -> float -> unit
(** Process all events with timestamp <= the limit, then set the clock
    to the limit.  Events scheduled beyond the limit remain queued.
    [max_events] bounds the total events processed since creation. *)

val pending : t -> int
(** Number of events currently queued. *)

val events_processed : t -> int
(** Total events executed since creation (a cheap progress measure). *)
