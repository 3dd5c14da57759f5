(** Unbounded FIFO message queue between fibers.

    Used for streams of requests where an {!Ivar} (one-shot) does not
    fit, e.g. a per-client dispatcher consuming callback requests. *)

type 'a t

val create : Engine.t -> 'a t
(** The engine argument is unused: a blocked receiver resumes on its
    own fiber's engine.  It stays only because the benchmark's floor
    probe calls [create engine]; nothing in the simulator uses a
    mailbox. *)

val send : 'a t -> 'a -> unit
(** Enqueue a message, waking one waiting receiver if any. *)

val recv : 'a t -> 'a
(** Dequeue the oldest message, blocking the fiber while empty.
    Waiting receivers are served FIFO. *)

val length : 'a t -> int
(** Number of queued (undelivered) messages. *)
