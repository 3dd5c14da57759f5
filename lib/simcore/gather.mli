(** Collect a fixed number of asynchronous results.

    The server uses this to wait for the acknowledgements of a batch of
    callback requests: it creates a gather for [n] expected replies,
    hands {!add} to each callback, and blocks in {!wait} until all have
    arrived.  With [n = 0], {!wait} returns immediately. *)

type 'a t

val create : int -> 'a t
(** [create n] expects exactly [n] results. *)

val add : 'a t -> 'a -> unit
(** Contribute one result.  Raises [Invalid_argument] beyond [n]. *)

val wait : 'a t -> 'a list
(** Block until all [n] results arrived; returns them in arrival
    order. *)

val arrived : 'a t -> int
