(** Generic LRU cache with a fixed capacity.

    Backs both the client page caches and the server buffer pool (the
    model uses "an LRU page replacement policy", Section 4.1), as well
    as the object-grain cache of the object-server variant.  O(1)
    lookup, insertion, and eviction. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity] must be positive.  The hash table is built on the first
    insert, so a cache that never holds anything costs one record. *)

val capacity : _ t -> int
val size : _ t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup and mark as most recently used. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without touching recency. *)

val touch : ('k, 'v) t -> 'k -> unit
(** Mark as most recently used (no-op when absent). *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Insert (or replace) a binding and mark it most recently used.
    Returns the evicted least-recently-used binding when the insertion
    of a {e new} key overflows the capacity. *)

val remove : ('k, 'v) t -> 'k -> 'v option
(** Remove a binding, returning its value. *)

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Iterate from most to least recently used. *)

val fold : ('k, 'v) t -> init:'a -> f:('a -> 'k -> 'v -> 'a) -> 'a

val to_list : ('k, 'v) t -> ('k * 'v) list
(** Bindings from most to least recently used. *)
