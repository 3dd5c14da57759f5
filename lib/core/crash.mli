(** Client and server crash/restart fault drivers.

    A crash models a workstation failure (Section 2's client-caching
    hazard): the client's buffer pool is volatile and vanishes, its
    in-flight transaction aborts, and the server immediately reclaims
    everything it tracked for the site — callback registrations, locks,
    waits-for edges, and write-token ownership.  After the configured
    restart delay the client cold-starts a fresh incarnation (new
    epoch) with an empty cache and resumes submitting transactions.

    Fibers of the dead incarnation that were suspended on
    non-cancellable resources unwind lazily via the epoch liveness
    guards in {!Client} and {!Srv}. *)

val crash_client : Model.sys -> int -> unit
(** Crash one client now (no-op when already down): reclaim its
    transaction and server-side state, drop its caches, bump its epoch,
    and run the fault hook (audit).  Never suspends, so it may run in a
    plain engine event.  Exposed for tests; {!install} drives it from
    the configured crash rate. *)

val restart_client : Model.sys -> int -> unit
(** Cold-restart a crashed client (no-op when up): marks it up and
    starts a fresh transaction source for the new epoch.  Never
    suspends. *)

val crash_server : Model.sys -> int -> unit
(** Fail one server now (no-op unless up).  Volatile state — buffer
    pool, lock tables, copy tables, token ownership — is lost; the
    durable page versions and the unflushed redo-log count survive.
    Every transaction that touched the server (or has an RPC in flight
    there) is doomed: it aborts at its next server interaction and the
    client retries it (presumed abort).  Messages addressed to the
    down server time out, back off, and are eventually given away by
    their senders.  Exposed for tests; {!install} drives it from the
    configured server crash rate. *)

val restart_server : Model.sys -> int -> unit
(** Recover a down server (no-op unless down): replay the redo-log
    tail bounded by the last flush (one log read plus per-record CPU),
    then run client-assisted callback reconstruction — each surviving
    client reconnects over [M_recover] messages and re-ships its
    copy-table rows for the partition, restoring the callback state
    before any new grant — and reopen for normal traffic.  While
    recovering, the server admits only [M_recover] traffic. *)

val install : Model.sys -> unit
(** When the client crash rate is positive, start one driver per
    client that crashes it at exponentially distributed intervals and
    restarts it after the profile's restart delay.  A client driver is a
    chain of engine timers, not a fiber, with the same events and draws
    as a fiber looping on {!Simcore.Proc.hold}.  When the server
    crash rate is positive, additionally spawn per server a periodic
    redo-log flush fiber (the durability point) and a crash/restart
    driver; crashes only strike up servers, so recoveries are never
    interrupted.  With zero rates this spawns nothing and draws
    nothing. *)
