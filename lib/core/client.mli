(** Client-side transaction execution (the Client Manager plus the
    Transaction Source of Figure 2).

    Each client workstation generates transactions from its workload
    stream and executes them one after another in a fiber.  A client
    holds a fiber only while it has work: with a positive think time,
    the think (and the start-up phase wait) is an engine timer that
    spawns the client's next fiber.  An operation acquires read (and,
    for updates, write) permission per the protocol, then charges the
    per-object application CPU cost at user priority.  Transactions
    aborted by deadlock are resubmitted with the same reference string
    after a randomized restart delay (Section 4.1). *)

val start : Model.sys -> unit
(** Start the transaction source of every client. *)

val start_one : Model.sys -> int -> unit
(** Start the transaction source of one client, bound to the client's
    {e current} epoch: used by crash recovery to cold-start a fresh
    incarnation after the restart delay.  The previous incarnation's
    fiber, if still unwinding, observes the epoch change and stops
    resubmitting; a think timer it left pending spawns a fiber that
    exits at the same check. *)

val run_one :
  Model.sys -> client:int -> Workload.Refstring.t -> (unit -> unit) -> unit
(** Run a single, explicitly supplied transaction at [client] (with
    restarts until it commits), then call the continuation.  Exposed
    for tests and the trace example; {!start} is the normal entry
    point. *)
