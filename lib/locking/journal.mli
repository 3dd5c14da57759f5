(** Bounded log of (item, site) pairs, for incremental auditing.

    A journal records the pairs whose state changed since its last
    {!clear}, so a checker can re-verify just those instead of sweeping
    everything.  Entries live in two growable arrays that are reused
    across clears: a push allocates nothing once the arrays have grown
    to their working size.

    The log is bounded.  A push that would exceed the fixed capacity
    discards the log and marks it {!overflowed}; from then on pushes
    are ignored until the next {!clear}.  An overflowed journal no
    longer knows what changed, so its reader must fall back to a full
    check.  A journal nobody drains therefore stays small. *)

type 'item t

val create : unit -> 'item t

val push : 'item t -> 'item -> site:int -> unit

val length : _ t -> int
(** Entries logged, 0 once overflowed.  Entry [i] is the pair
    [(item t i, site t i)], oldest first; readers index rather than
    iterate so that draining allocates no closure. *)

val item : 'item t -> int -> 'item
val site : _ t -> int -> int

val overflowed : _ t -> bool

val clear : _ t -> unit
(** Forget every entry and the overflow mark. *)

val capacity : int
(** Entries a journal holds before it overflows. *)
