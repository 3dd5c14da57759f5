(** Global waits-for graph with continuous deadlock detection.

    The simulator is omniscient, so a single graph covers both kinds of
    waiting in the protocols: transactions blocked in server lock
    queues, and writers blocked on callbacks that are in turn held up by
    other clients' active transactions.  A cycle is broken by aborting
    the {e youngest} transaction in it (the one that started most
    recently, losing the least work); the victim's registered [cancel]
    thunk is responsible for dequeuing its pending request and resuming
    its fiber with [Aborted]. *)

open Lock_types

type t

val create : unit -> t

val link : t array -> unit
(** Join the given graphs into one cluster: every member sees the
    others' waits during cycle detection ([find_cycle]/[cancel_wait]
    and friends traverse the union), modelling an idealized coordinator
    that always holds a current global picture.  Linking an array of
    one is equivalent to the solo topology. *)

val set_exchange_hook : t -> (txn -> unit) -> unit
(** Install a hook fired whenever this graph gains a wait edge
    ([set_wait] or a successful [add_blocker]).  The simulation uses it
    to charge for the edge-exchange control message a server sends the
    coordinator; purely observational. *)

val begin_txn : t -> txn -> start:float -> unit
(** Register a transaction incarnation and its start time (used for
    victim selection). *)

val end_txn : t -> txn -> unit
(** Forget a finished or aborted transaction.  It must not be waiting. *)

val set_wait :
  ?info:string -> t -> txn -> blockers:txn list -> cancel:(unit -> unit) -> unit
(** [txn] is now blocked on the given transactions.  A transaction can
    have at most one pending wait; re-registering replaces it. *)

val update_blockers : t -> txn -> txn list -> unit
(** Replace the blocker set of a waiting transaction (no-op if it is not
    waiting). *)

val add_blocker : t -> txn -> txn -> unit
(** Add one edge to an existing wait (no-op if not waiting). *)

val clear_wait : t -> txn -> unit
(** The transaction is no longer blocked (granted); drops its edges
    without invoking the cancel thunk. *)

val is_waiting : t -> txn -> bool

val is_active : t -> txn -> bool
(** The transaction has begun and not yet ended — the audit's notion of
    a legitimate lock owner. *)

val cancel_wait : t -> txn -> unit
(** Resolve a pending wait by invoking its [cancel] thunk (dequeue and
    resume with [Aborted]); a no-op when the transaction is not
    waiting.  Used to break deadlock cycles, and by crash recovery to
    unblock a crashed client's transaction wherever it is queued. *)

val any_cycle : t -> txn list option
(** Any cycle currently in the graph, or in the union of its linked
    cluster (audit invariant: always [None] outside of [check_deadlock]
    itself, since every edge addition runs detection).  One search with
    shared colouring: O(waits + edges), and no allocation when nothing
    waits.  The witness [c] is oriented so that in [List.rev c] each
    transaction waits for the next, and the last for the first. *)

val check_deadlock : t -> from:txn -> int
(** Detect and break every cycle reachable from [from].  Returns the
    number of victims aborted (0 when no deadlock).  Detection must be
    run after every edge addition; cycles always involve the
    most-recently blocked transaction. *)

val deadlocks : t -> int
(** Total victims aborted since creation. *)

val waiting_count : t -> int
(** Waits registered in this graph only (not cluster-wide). *)

val dump : t -> (txn * txn list * string) list
(** Snapshot of the graph: each waiting transaction with its blockers
    (diagnostics). *)
