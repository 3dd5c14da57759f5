(** Server-side lock table for one granularity (pages or objects).

    Holds exclusive (write) locks and a FIFO queue of blocked requests
    per item.  Read requests enter the queue as {!Lock_types.Probe}s:
    they wait for conflicting write locks to drain but acquire nothing
    (read permission is then conferred by the page/object copy the
    server ships).  The table is wired to a {!Waits_for} graph: blocking
    a request registers its edges and runs deadlock detection, and a
    victim's pending request resumes with [Aborted].

    The table is generic in the item type; the protocols instantiate it
    with pages ([int]) and with {!Storage.Ids.Oid.t}. *)

open Lock_types

type 'item t

val create : waits_for:Waits_for.t -> lock_name:string -> 'item t

val acquire : 'item t -> 'item -> txn:txn -> kind:request_kind -> grant
(** Blocking request (FIFO).  [Probe] returns [Granted] once no other
    transaction holds the write lock; [Lock] additionally acquires it.
    Re-acquiring a lock already held by [txn] succeeds immediately.
    Returns [Aborted] if the transaction is chosen as a deadlock victim
    while queued. *)

val try_acquire : 'item t -> 'item -> txn:txn -> kind:request_kind -> bool
(** Non-blocking variant: grant only when no conflict and no queue. *)

val holder : 'item t -> 'item -> txn option
(** Current write-lock holder. *)

val held_by : 'item t -> 'item -> txn:txn -> bool
val conflicts : 'item t -> 'item -> txn:txn -> bool
(** True when another transaction write-locks the item. *)

val release : 'item t -> 'item -> txn:txn -> unit
(** Release one write lock (no-op if not held by [txn]); wakes eligible
    queued requests. *)

val release_all : 'item t -> txn:txn -> unit
(** Release every write lock of [txn]. *)

val locks_of : 'item t -> txn:txn -> 'item list
(** Items currently write-locked by [txn]. *)

val force_grant : 'item t -> 'item -> txn:txn -> unit
(** Install a write lock without queueing, for lock {e conversion}: used
    by PS-AA de-escalation, where the holder of a page lock atomically
    registers object locks it already implicitly holds.  Raises
    [Invalid_argument] when another transaction holds the lock. *)

val iter_holders : 'item t -> ('item -> txn -> unit) -> unit
(** Visit every (item, write-lock holder) pair (audit). *)

val iter_waiters : 'item t -> ('item -> txn -> unit) -> unit
(** Visit every (item, queued transaction) pair (audit). *)

val lock_count : 'item t -> int
val waiter_count : 'item t -> int
val waits : 'item t -> int
(** Total requests that had to block since creation (a contention
    metric). *)

val dump_waiting : 'item t -> ('item -> string) -> (txn * string) list
(** Diagnostics: every queued request as (txn, description of the item's
    entry: holder and queue). *)
