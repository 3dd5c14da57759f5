(** The metric registry: every number a sweep reports about a cell,
    defined once.

    An entry names a column (its CSV header), gives its unit, reads its
    value off a {!Runner.result} and fixes its CSV format, the same in
    every schema.  Counts are read as floats and written ["%.0f"], which
    prints an integer exactly as ["%d"] does.  Tables, detail lines and
    CSV files ({!Report}) take every number from here. *)

type t = {
  name : string;  (** CSV header, e.g. ["resp_p99_ms"] *)
  unit : string;  (** e.g. ["ms"], ["1/s"], ["ratio"], ["count"] *)
  get : Runner.result -> float;
  csv : (float -> string, unit, string) format;
}

val to_csv : t -> Runner.result -> string
(** [Printf.sprintf m.csv (m.get r)]. *)

(** {2 The registry} *)

val throughput : t
val resp_ms : t
val resp_ci_ms : t
val resp_p50_ms : t
val resp_p90_ms : t
val resp_p99_ms : t
val lock_wait_p99_ms : t
val cb_round_p99_ms : t
val commits : t
val aborts : t
val deadlocks : t
val msgs_per_commit : t
val kbytes_per_commit : t
val disk_ios : t
val server_cpu : t
val client_cpu : t
val disk_util : t
val net_util : t
val deescalations : t
val merges : t
val page_grants : t
val object_grants : t
val callback_blocks : t
val servers : t
(** [n_servers] *)

val cb_forwards : t
val edge_exchanges : t
val retries : t
val retry_wait_p99_ms : t
val crashes : t
val crash_aborts : t
val msg_losses : t
val msg_dups : t
val retransmits : t
val disk_stalls : t
val faults_injected : t
val recoveries : t
val recovery_ms : t
val srv_crashes : t
val srv_recoveries : t
val srv_recovery_ms : t
val srv_giveaways : t

val all : t list
(** Every entry above, in that order; names are unique. *)
