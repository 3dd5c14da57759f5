open Simcore

type msg_class =
  | M_read_req
  | M_read_reply
  | M_write_req
  | M_write_reply
  | M_callback
  | M_callback_reply
  | M_deescalate
  | M_deescalate_reply
  | M_dirty_data
  | M_commit_data
  | M_commit
  | M_commit_reply
  | M_abort
  | M_abort_reply
  | M_cb_forward
  | M_edge_exchange
  | M_recover

let msg_class_name = function
  | M_read_req -> "read_req"
  | M_read_reply -> "read_reply"
  | M_write_req -> "write_req"
  | M_write_reply -> "write_reply"
  | M_callback -> "callback"
  | M_callback_reply -> "callback_reply"
  | M_deescalate -> "deescalate"
  | M_deescalate_reply -> "deescalate_reply"
  | M_dirty_data -> "dirty_data"
  | M_commit_data -> "commit_data"
  | M_commit -> "commit"
  | M_commit_reply -> "commit_reply"
  | M_abort -> "abort"
  | M_abort_reply -> "abort_reply"
  | M_cb_forward -> "cb_forward"
  | M_edge_exchange -> "edge_exchange"
  | M_recover -> "recover"

let all_msg_classes =
  [
    M_read_req; M_read_reply; M_write_req; M_write_reply; M_callback;
    M_callback_reply; M_deescalate; M_deescalate_reply; M_dirty_data;
    M_commit_data; M_commit; M_commit_reply; M_abort; M_abort_reply;
    M_cb_forward; M_edge_exchange; M_recover;
  ]

let class_index = function
  | M_read_req -> 0
  | M_read_reply -> 1
  | M_write_req -> 2
  | M_write_reply -> 3
  | M_callback -> 4
  | M_callback_reply -> 5
  | M_deescalate -> 6
  | M_deescalate_reply -> 7
  | M_dirty_data -> 8
  | M_commit_data -> 9
  | M_commit -> 10
  | M_commit_reply -> 11
  | M_abort -> 12
  | M_abort_reply -> 13
  | M_cb_forward -> 14
  | M_edge_exchange -> 15
  | M_recover -> 16

let num_msg_classes = 17

type t = {
  mutable window_start : float;
  msg_counts : int array;
  mutable total_bytes : int;
  mutable commit_count : int;
  mutable abort_count : int;
  mutable merge_count : int;
  mutable merged_objects : int;
  mutable client_merge_count : int;
  mutable deesc_count : int;
  mutable deesc_objects : int;
  mutable pw_grants : int;
  mutable ow_grants : int;
  mutable lock_wait_count : int;
  mutable cb_block_count : int;
  mutable overflow_count : int;
  mutable token_wait_count : int;
  mutable token_bounce_count : int;
  lock_wait_time : Stats.Welford.t;
  mutable responses : Stats.Batch_means.t;
  (* Always-on latency histograms (recording is pure: no allocation,
     no RNG, no events — see lib/telemetry).  Same measurement window
     as the counters: cleared by [reset]. *)
  response_hist : Telemetry.Histogram.t;
  lock_wait_hist : Telemetry.Histogram.t;
  cb_round_hist : Telemetry.Histogram.t;
  msg_latency_hists : Telemetry.Histogram.t array;
  (* Retry accounting for the fault layer: per-class counts of
     timeout-driven resends (loss retransmits and down-server retries)
     and the extra latency a send that needed at least one retry paid
     before finally succeeding. *)
  msg_retries : int array;
  retry_wait_hist : Telemetry.Histogram.t;
}

type hist_snapshot = {
  h_response : Telemetry.Histogram.t;
  h_lock_wait : Telemetry.Histogram.t;
  h_cb_round : Telemetry.Histogram.t;
  h_msg_latency : Telemetry.Histogram.t array;  (** indexed by [class_index] *)
  h_retry_wait : Telemetry.Histogram.t;
  h_msg_retries : int array;  (** per-class retry counts, by [class_index] *)
}

let create () =
  {
    window_start = 0.0;
    msg_counts = Array.make num_msg_classes 0;
    total_bytes = 0;
    commit_count = 0;
    abort_count = 0;
    merge_count = 0;
    merged_objects = 0;
    client_merge_count = 0;
    deesc_count = 0;
    deesc_objects = 0;
    pw_grants = 0;
    ow_grants = 0;
    lock_wait_count = 0;
    cb_block_count = 0;
    overflow_count = 0;
    token_wait_count = 0;
    token_bounce_count = 0;
    lock_wait_time = Stats.Welford.create ();
    responses = Stats.Batch_means.create ~batch_size:25;
    response_hist = Telemetry.Histogram.create ();
    lock_wait_hist = Telemetry.Histogram.create ();
    cb_round_hist = Telemetry.Histogram.create ();
    msg_latency_hists =
      Array.init num_msg_classes (fun _ -> Telemetry.Histogram.create ());
    msg_retries = Array.make num_msg_classes 0;
    retry_wait_hist = Telemetry.Histogram.create ();
  }

let note_msg t cls ~bytes =
  let i = class_index cls in
  t.msg_counts.(i) <- t.msg_counts.(i) + 1;
  t.total_bytes <- t.total_bytes + bytes

let note_commit t ~response =
  t.commit_count <- t.commit_count + 1;
  Stats.Batch_means.add t.responses response;
  Telemetry.Histogram.record t.response_hist response

let note_msg_latency t cls ~duration =
  Telemetry.Histogram.record t.msg_latency_hists.(class_index cls) duration

let note_msg_retry t cls =
  let i = class_index cls in
  t.msg_retries.(i) <- t.msg_retries.(i) + 1

let note_retry_wait t ~duration =
  Telemetry.Histogram.record t.retry_wait_hist duration

let note_cb_round t ~duration =
  Telemetry.Histogram.record t.cb_round_hist duration

let note_abort t = t.abort_count <- t.abort_count + 1

let note_lock_wait t ~duration =
  t.lock_wait_count <- t.lock_wait_count + 1;
  Stats.Welford.add t.lock_wait_time duration;
  Telemetry.Histogram.record t.lock_wait_hist duration

let note_callback_blocked t = t.cb_block_count <- t.cb_block_count + 1

let note_merge t ~objects =
  t.merge_count <- t.merge_count + 1;
  t.merged_objects <- t.merged_objects + objects

let note_client_merge t ~objects =
  ignore objects;
  t.client_merge_count <- t.client_merge_count + 1

let note_deescalation t ~objects =
  t.deesc_count <- t.deesc_count + 1;
  t.deesc_objects <- t.deesc_objects + objects

let note_overflow t = t.overflow_count <- t.overflow_count + 1
let note_token_wait t = t.token_wait_count <- t.token_wait_count + 1
let note_token_bounce t = t.token_bounce_count <- t.token_bounce_count + 1
let note_page_write_grant t = t.pw_grants <- t.pw_grants + 1
let note_object_write_grant t = t.ow_grants <- t.ow_grants + 1

let reset t ~now =
  t.window_start <- now;
  Array.fill t.msg_counts 0 (Array.length t.msg_counts) 0;
  t.total_bytes <- 0;
  t.commit_count <- 0;
  t.abort_count <- 0;
  t.merge_count <- 0;
  t.merged_objects <- 0;
  t.client_merge_count <- 0;
  t.deesc_count <- 0;
  t.deesc_objects <- 0;
  t.pw_grants <- 0;
  t.ow_grants <- 0;
  t.lock_wait_count <- 0;
  t.cb_block_count <- 0;
  t.overflow_count <- 0;
  t.token_wait_count <- 0;
  t.token_bounce_count <- 0;
  Stats.Welford.reset t.lock_wait_time;
  t.responses <- Stats.Batch_means.create ~batch_size:25;
  Telemetry.Histogram.reset t.response_hist;
  Telemetry.Histogram.reset t.lock_wait_hist;
  Telemetry.Histogram.reset t.cb_round_hist;
  Array.iter Telemetry.Histogram.reset t.msg_latency_hists;
  Array.fill t.msg_retries 0 (Array.length t.msg_retries) 0;
  Telemetry.Histogram.reset t.retry_wait_hist

let commits t = t.commit_count
let aborts t = t.abort_count
let messages t = Array.fold_left ( + ) 0 t.msg_counts
let messages_of t cls = t.msg_counts.(class_index cls)
let retries t = Array.fold_left ( + ) 0 t.msg_retries
let bytes t = t.total_bytes
let merges t = t.merge_count
let client_merges t = t.client_merge_count
let deescalations t = t.deesc_count
let page_write_grants t = t.pw_grants
let object_write_grants t = t.ow_grants
let lock_waits t = t.lock_wait_count
let callback_blocks t = t.cb_block_count
let overflows t = t.overflow_count
let token_waits t = t.token_wait_count
let token_bounces t = t.token_bounce_count

let throughput t ~now =
  let span = now -. t.window_start in
  if span <= 0.0 then 0.0 else float_of_int t.commit_count /. span

let snapshot_hists t =
  {
    h_response = Telemetry.Histogram.copy t.response_hist;
    h_lock_wait = Telemetry.Histogram.copy t.lock_wait_hist;
    h_cb_round = Telemetry.Histogram.copy t.cb_round_hist;
    h_msg_latency = Array.map Telemetry.Histogram.copy t.msg_latency_hists;
    h_retry_wait = Telemetry.Histogram.copy t.retry_wait_hist;
    h_msg_retries = Array.copy t.msg_retries;
  }

let response_quantile t q = Telemetry.Histogram.quantile t.response_hist q
let lock_wait_quantile t q = Telemetry.Histogram.quantile t.lock_wait_hist q
let cb_round_quantile t q = Telemetry.Histogram.quantile t.cb_round_hist q
let retry_wait_quantile t q = Telemetry.Histogram.quantile t.retry_wait_hist q

let response_mean t = Stats.Batch_means.mean t.responses
let response_ci90 t = Stats.Batch_means.ci90_half_width t.responses
let response_batches t = Stats.Batch_means.num_batches t.responses
let avg_lock_wait t = Stats.Welford.mean t.lock_wait_time

let msgs_per_commit t =
  if t.commit_count = 0 then 0.0
  else float_of_int (messages t) /. float_of_int t.commit_count
