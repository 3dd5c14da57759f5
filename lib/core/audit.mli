(** Always-on invariant auditor.

    Inspects the shared system state — lock tables, waits-for graph,
    copy tables, client caches — and raises {!Violation} when a
    structural invariant of the protocols is broken.  The checks are
    pure inspection: no randomness is consumed and no events are
    scheduled, so auditing never perturbs the simulation and runs
    identically whether faults are enabled or not.

    The audit runs at every transaction boundary (commit and abort),
    after every injected fault (via {!install}, which registers it as
    the {!Faults} hook), and at end of run.  Unlike the quiescence
    audit in the fuzz tests, it must hold at {e any} instant, so it
    checks coverage (at least one registration per cached copy) rather
    than exact mirroring (in-flight registrations are legal).

    {b Copy-coverage journal.}  Sweeping every cached copy costs
    O(cache) per client, and under PS-OO O(cache x objects per page).
    Boundary and fault-hook audits instead re-check only the
    (client, copy) pairs that could have become uncovered since the
    previous audit, for {e every} client.  A copy can lose its coverage
    through three events only, each journaled at its one mutation
    site:
    - it enters a cache, or a PS-OO page refresh makes a slot available
      again: [Cache_ops.install_page] and [install_object] log it in
      {!Model.sys.page_installs} / [obj_installs];
    - a registration's refcount drops to zero:
      [Locking.Copy_table.unregister] and [purge_client] log it in
      {!Locking.Copy_table.zeroed};
    - a client restarts or a server reopens: [Crash] sets
      {!Model.sys.sweep_pending}, because every copy of the client or
      partition becomes an obligation at once.

    Such an audit costs O(changes since the last audit).  It falls back
    to the full sweep when [sweep_pending] is set or a journal
    overflowed its fixed capacity.  Every audit clears the journals once
    the coverage check has passed (a failed check keeps them, so a
    corrupt state fails every later audit too), including under
    [srv_skip_reconstruction], where the check itself is skipped.

    The journal check is complete only if {!Cache_ops} is the only code
    that adds copies to client caches or makes slots available (a crash
    only removes them), and {!Locking.Copy_table} the only place
    refcounts fall.  Both are part of the audit's trust base. *)

exception Violation of string
(** Carries the failed invariant, the audit context, the simulated
    clock, and a diagnostic dump of the lock/wait state. *)

val check : ?context:string -> ?coverage_of:int -> Model.sys -> unit
(** Verify every invariant; raises {!Violation} on the first failure.
    With [coverage_of] the copy-coverage invariant is checked through
    the journal (above), which is how transaction boundaries audit.
    The client argument no longer narrows the check: the journal check
    covers every client.  Without [coverage_of] it is the full sweep of
    every cache, as at end of run.  Every other check is always global.

    Invariants:
    + every lock holder and queued waiter is an active transaction
      (begun and not ended) — in particular no crashed client's
      transaction holds or awaits locks;
    + page write locks coexist with no {e foreign} object write lock on
      the same page (lock-mode compatibility across granularities);
    + every page/object cached at an {e up} client is covered by at
      least one copy-table registration, so it remains a callback
      target (copies of a down or recovering partition are exempt);
    + a crashed (down) client has no running transaction, empty caches,
      and no copy-table registrations;
    + the waits-for graph is acyclic (deadlock detection left no cycle
      behind);
    + the updated-object sets of concurrently running transactions are
      pairwise disjoint (write isolation);
    + a down server holds no locks, copy registrations, write tokens or
      buffered pages (its volatile state was purged by the crash). *)

val install : Model.sys -> unit
(** Register the journal-checked audit as the fault-injection hook, so
    every injected crash, message fault, and disk stall is immediately
    followed by an audit of every invariant. *)
