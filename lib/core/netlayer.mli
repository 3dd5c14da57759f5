(** Message transport.

    Every message charges protocol-processing CPU (fixed + per-byte,
    Table 1) at {e both} the sender and the receiver (system priority),
    and occupies the FIFO network for its on-the-wire time (Section
    4.1).  The calling fiber blocks through the whole path, so the
    arrival time it observes includes CPU and network queueing.

    When message faults are enabled ({!Faults.message_faults}), a
    message may be lost — the sender times out and retransmits with
    exponential backoff — or duplicated, in which case the stale copy
    pays wire and receiver-CPU costs before being discarded
    idempotently.  With faults disabled the transport is byte-for-byte
    the original reliable path.

    When server faults are enabled ({!Faults.srv_faults}), a message
    addressed to a down (or recovering, unless recovery-class) server
    is never answered: the sender pays its CPU and wire cost, times out
    and retries with the same backoff, and after
    [Faults.retrans_giveaway] attempts gives the message away — the
    checked send variants report the failure so the caller can abort
    locally (presumed abort).  Persistent sends (callback legs) retry
    until the server reopens instead. *)

type endpoint = Client of int | Server of int

val send :
  Model.sys ->
  cls:Metrics.msg_class ->
  src:endpoint ->
  dst:endpoint ->
  bytes:int ->
  unit
(** Move one message from [src] to [dst]; blocks the calling fiber until
    the receiver has finished protocol processing.  A giveaway at a down
    server is silent — use {!control_checked} when the caller must
    know. *)

val control :
  Model.sys -> cls:Metrics.msg_class -> src:endpoint -> dst:endpoint -> unit
(** A [control_msg_bytes]-sized message. *)

val control_checked :
  ?persist:bool ->
  Model.sys ->
  cls:Metrics.msg_class ->
  src:endpoint ->
  dst:endpoint ->
  bool
(** Like {!control} but returns false when the message was given away
    at a down server ([persist:true] never gives away: it retries until
    the destination reopens). *)

val page_data :
  Model.sys -> cls:Metrics.msg_class -> src:endpoint -> dst:endpoint -> unit
(** A message carrying one page. *)

val objs_data :
  Model.sys ->
  cls:Metrics.msg_class ->
  src:endpoint ->
  dst:endpoint ->
  count:int ->
  unit
(** A message carrying [count] objects. *)

val install_edge_exchange : Model.sys -> unit
(** With more than one server, hook every non-coordinator server's
    waits-for graph so each new wait edge ships one
    [M_edge_exchange] control message to the coordinator (server 0) on
    a spawned fiber.  Cycle detection itself runs on the union of the
    linked graphs, so the exchange is pure cost accounting.  No-op at
    [servers = 1]. *)
