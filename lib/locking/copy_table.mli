(** Server-side registry of cached copies ("replica management").

    Tracks which client sites hold a cached copy of each item so the
    server knows where to direct callbacks.  The page-server protocols
    track pages; OS tracks objects; PS-OO tracks the objects of each
    shipped page (Section 3.3).

    {b Width and slots.}  A table has a fixed {e width}: each (item,
    site) registration carries one reference count per slot, slots
    [0 .. width - 1].  Page-grain tables (PS, PS-OA, PS-AA) and the OS
    object table have width 1, one count per item.  PS-OO's page table
    has width [objects_per_page]: shipping a page registers the page
    once, counting one reference on each available slot, and every
    per-object operation is the same operation on one slot.  Each slot
    count behaves exactly like a width-1 count, so a width-[w] table is
    observationally the same as a per-object table keyed on
    (item, slot).

    Counts are {e reference counts}: the server registers a copy when
    it ships it (before the reply reaches the client), so a client may
    momentarily hold two references to one item — the cached copy and
    a fresh copy in transit.  Installing the fresh copy over the old
    one releases the old copy's references, and dropping a copy
    releases exactly one reference per slot, so a registration in
    flight is never erased by the concurrent purge of its predecessor.
    A site is a callback target for a slot while its count there is
    positive; a registration is dropped when its last slot reaches 0.

    The representation is sparse: each item keeps a compact ascending
    vector of holder sites and each site keeps an item -> registration
    index, so [holders]/[holders_except] cost O(holders of the item)
    and [purge_client] O(that site's registrations) —
    population-independent, which is what makes 10k+ client runs
    feasible. *)

open Storage

type 'item t

val create : width:int -> clients:int -> 'item t
(** A table of [width] slots per registration. *)

val width : _ t -> int

val register : ?skip:Ids.Int_set.t -> 'item t -> 'item -> client:int -> unit
(** Add one reference on every slot not in [skip] (default: every
    slot). *)

val unregister : ?skip:Ids.Int_set.t -> 'item t -> 'item -> client:int -> unit
(** Release one reference on every slot not in [skip] (default: every
    slot); a slot already at zero is left there. *)

val unregister_slot : 'item t -> 'item -> slot:int -> client:int -> unit
(** Release one reference on [slot] (no-op at zero). *)

val refs : 'item t -> 'item -> slot:int -> client:int -> int
(** The site's count on [slot]. *)

val holds : ?slot:int -> 'item t -> 'item -> client:int -> bool
(** True while the site's count on [slot] is positive; without [slot],
    while any of its counts is. *)

val first_uncovered :
  ?skip:Ids.Int_set.t -> 'item t -> 'item -> client:int -> int option
(** The lowest slot not in [skip] whose count for the site is zero, if
    any: the audit's coverage check for a cached copy. *)

val holders : ?slot:int -> 'item t -> 'item -> int list
(** Sites whose count on [slot] (on any slot, without one) is
    positive, ascending. *)

val holders_except : ?slot:int -> 'item t -> 'item -> client:int -> int list
(** Callback targets: {!holders} without the requester. *)

val copies : _ t -> int
(** Number of (item, slot, site) triples with a positive count: for a
    width-1 table, the (item, site) pairs registered. *)

val client_copies : _ t -> client:int -> int
(** The site's (item, slot) pairs with a positive count (audit). *)

val purge_client : _ t -> client:int -> int
(** Drop {e all} of one site's registrations — including references for
    copies still in transit — and return how many (item, slot) pairs
    were affected.  Used when the site crashes: its volatile cache is
    gone, so it must stop being a callback target immediately. *)

val zeroed : 'item t -> 'item Journal.t
(** Every (item, site) pair some of whose slot counts dropped to zero
    since the journal was last cleared, through {!unregister},
    {!unregister_slot} or {!purge_client}: one entry per such call and
    registration, however many of its slots reached zero.  The audit
    drains it to re-check only copies that may have lost their
    coverage, re-checking every slot of the item. *)
