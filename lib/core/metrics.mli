(** Simulation output metrics.

    The primary metric is throughput (committed transactions per
    second); response times carry 90% batch-means confidence intervals
    as in Section 5.1.  The auxiliary counters cover the quantities the
    paper's analysis refers to: message counts by class, disk I/Os,
    lock waits, callbacks, merges, and PS-AA de-escalations.  Deadlocks
    are counted by the waits-for graphs ({!Locking.Waits_for.deadlocks}). *)

type msg_class =
  | M_read_req
  | M_read_reply
  | M_write_req
  | M_write_reply
  | M_callback
  | M_callback_reply
  | M_deescalate
  | M_deescalate_reply
  | M_dirty_data  (** dirty page/object shipped outside commit *)
  | M_commit_data  (** dirty data shipped at commit *)
  | M_commit
  | M_commit_reply
  | M_abort
  | M_abort_reply
  | M_cb_forward
      (** callback forwarded owner-server → home-server (servers > 1) *)
  | M_edge_exchange
      (** waits-for edge shipped server → deadlock coordinator
          (servers > 1) *)
  | M_recover
      (** server-restart recovery traffic: reconnect requests and
          client copy-table reports (the only class a recovering
          server admits) *)

val msg_class_name : msg_class -> string
val all_msg_classes : msg_class list

val class_index : msg_class -> int
(** Dense index, in [all_msg_classes] order (for the per-class
    histogram array). *)

type t

type hist_snapshot = {
  h_response : Telemetry.Histogram.t;
  h_lock_wait : Telemetry.Histogram.t;
  h_cb_round : Telemetry.Histogram.t;
  h_msg_latency : Telemetry.Histogram.t array;
      (** per message class, indexed like [all_msg_classes] *)
  h_retry_wait : Telemetry.Histogram.t;
      (** extra latency of sends that needed at least one retry before
          succeeding (timeout-to-success) *)
  h_msg_retries : int array;
      (** per-class timeout-driven resend counts, indexed like
          [all_msg_classes] *)
}
(** Copies of the always-on latency histograms (see lib/telemetry),
    decoupled from the live counters so they survive the run and can
    be merged across sweep cells. *)

val create : unit -> t

val note_msg : t -> msg_class -> bytes:int -> unit
val note_commit : t -> response:float -> unit

val note_msg_latency : t -> msg_class -> duration:float -> unit
(** Whole send latency of one logical message, retransmissions
    included (recorded once per send, unlike [note_msg] which counts
    each wire attempt). *)

val note_cb_round : t -> duration:float -> unit
(** One callback round-trip: from the server posting the callback to
    the target's acknowledgment being fully processed. *)

val note_msg_retry : t -> msg_class -> unit
(** One timeout-driven resend of a message (loss retransmission or
    down-server retry). *)

val note_retry_wait : t -> duration:float -> unit
(** A send that needed at least one retry finally succeeded after
    [duration] seconds (timeout-to-success latency). *)

val note_abort : t -> unit
val note_lock_wait : t -> duration:float -> unit
val note_callback_blocked : t -> unit
val note_merge : t -> objects:int -> unit
(** Server-side merge of a divergent incoming page copy. *)

val note_client_merge : t -> objects:int -> unit
(** Client-side merge when re-receiving a page it caches with
    uncommitted local updates. *)

val note_deescalation : t -> objects:int -> unit
val note_page_write_grant : t -> unit
val note_object_write_grant : t -> unit

val note_overflow : t -> unit
(** A size-changing update overflowed its page (Section 6.1 model). *)

val note_token_wait : t -> unit
(** A write blocked waiting for the page update token. *)

val note_token_bounce : t -> unit
(** The update token moved between clients, bouncing the page through
    the server. *)

val reset : t -> now:float -> unit
(** Clear everything measured so far (end of warm-up). *)

val commits : t -> int
val aborts : t -> int
val messages : t -> int
val messages_of : t -> msg_class -> int
val retries : t -> int
val bytes : t -> int
val merges : t -> int
val client_merges : t -> int
val deescalations : t -> int
val page_write_grants : t -> int
val object_write_grants : t -> int
val lock_waits : t -> int
val callback_blocks : t -> int
val overflows : t -> int
val token_waits : t -> int
val token_bounces : t -> int

val throughput : t -> now:float -> float
(** Commits per second over the measurement window. *)

val snapshot_hists : t -> hist_snapshot

val response_quantile : t -> float -> float
(** Histogram-estimated response-time quantile (see
    {!Telemetry.Histogram.quantile} for the error bound). *)

val lock_wait_quantile : t -> float -> float
val cb_round_quantile : t -> float -> float
val retry_wait_quantile : t -> float -> float
val response_mean : t -> float
val response_ci90 : t -> float
val response_batches : t -> int
val avg_lock_wait : t -> float
val msgs_per_commit : t -> float
