(** Write-once synchronization variable ("ivar").

    The standard way a fiber waits for a reply: the requester creates an
    ivar, ships it with the request, and {!read}s it; the responder
    {!fill}s it.  Multiple fibers may read the same ivar.  An ivar is
    not tied to an engine: each reader resumes on its own fiber's. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Make the value available and wake all readers (at the current
    simulated instant).  Raises [Invalid_argument] if already full. *)

val read : 'a t -> 'a
(** Return the value, blocking the calling fiber until {!fill}. *)

val is_full : 'a t -> bool
val peek : 'a t -> 'a option
