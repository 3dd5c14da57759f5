(** Server-side registry of cached copies ("replica management").

    Tracks which client sites hold a cached copy of each item so the
    server knows where to direct callbacks.  The page-server protocols
    track pages; OS and PS-OO track objects (Section 3.3).

    Registrations are {e reference counted}: the server registers a
    copy when it ships it (before the reply reaches the client), so a
    client may momentarily hold two references to one item — the cached
    copy and a fresh copy in transit.  Installing the fresh copy over
    the old one releases the old copy's reference, and dropping a copy
    releases exactly one reference, so a registration in flight is
    never erased by the concurrent purge of its predecessor.  A site is
    a callback target while it holds any reference.

    The representation is sparse: each item keeps a compact ascending
    vector of holder sites and each site keeps an item -> refcount
    index, so [holders]/[holders_except] cost O(holders of the item),
    [client_copies] is O(1) and [purge_client] is O(that site's
    copies) — population-independent, which is what makes 10k+ client
    runs feasible. *)

type 'item t

val create : clients:int -> 'item t

val register : 'item t -> 'item -> client:int -> unit
(** Add one reference. *)

val unregister : 'item t -> 'item -> client:int -> unit
(** Release one reference (no-op at zero). *)

val holds : 'item t -> 'item -> client:int -> bool
(** True while the site holds at least one reference. *)

val refs : 'item t -> 'item -> client:int -> int

val holders : 'item t -> 'item -> int list
(** Sites holding at least one reference, ascending. *)

val holders_except : 'item t -> 'item -> client:int -> int list
(** Callback targets: every holding site except the requester's. *)

val copies : 'item t -> int
(** Number of (item, site) pairs with at least one reference. *)

val client_copies : 'item t -> client:int -> int
(** Items for which the site holds at least one reference (audit). *)

val purge_client : 'item t -> client:int -> int
(** Drop {e all} of one site's registrations — including references for
    copies still in transit — and return how many items were affected.
    Used when the site crashes: its volatile cache is gone, so it must
    stop being a callback target immediately. *)

val zeroed : 'item t -> 'item Journal.t
(** Every (item, site) pair whose refcount dropped to zero since the
    journal was last cleared, through {!unregister} or {!purge_client}.
    The audit drains it to re-check only copies that may have lost
    their coverage. *)
