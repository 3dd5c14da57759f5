(* A canned Runner.result for rendering tests that run no simulation:
   one hand-written result, varied by cell index so that a misplaced
   cell shows in a golden. *)
open Oodb_core

let hists i =
  let h () = Telemetry.Histogram.create () in
  let resp = h () in
  List.iter (Telemetry.Histogram.record resp)
    [ 0.5 +. (0.01 *. float_of_int i); 1.2; 2.0 +. (0.1 *. float_of_int i) ];
  let lock_wait = h () in
  Telemetry.Histogram.record lock_wait 0.02;
  let cb_round = h () in
  Telemetry.Histogram.record cb_round 0.004;
  let classes = List.length Metrics.all_msg_classes in
  {
    Metrics.h_response = resp;
    h_lock_wait = lock_wait;
    h_cb_round = cb_round;
    h_msg_latency = Array.init classes (fun _ -> h ());
    h_retry_wait = h ();
    h_msg_retries = Array.make classes 0;
  }

let result i algo =
  let f = float_of_int i in
  {
    Runner.algo;
    workload = "canned";
    sim_seconds = 120.0;
    throughput = 3.0 +. (0.37 *. f);
    resp_mean = 1.5 +. (0.011 *. f);
    resp_ci90 = 0.2 +. (0.003 *. f);
    resp_batches = 5;
    commits = 300 + (7 * i);
    aborts = i mod 4;
    deadlocks = i mod 3;
    messages = 20000 + (13 * i);
    msgs_per_commit = 60.0 +. (0.7 *. f);
    kbytes_per_commit = 90.0 +. (1.3 *. f);
    disk_ios = 900 + (11 * i);
    server_cpu_util = 0.4 +. (0.005 *. f);
    client_cpu_util = 0.15 +. (0.002 *. f);
    disk_util = 0.7 +. (0.003 *. f);
    net_util = 0.08 +. (0.001 *. f);
    lock_waits = 40 + i;
    avg_lock_wait = 0.3;
    callback_blocks = 20 + (3 * i);
    merges = i;
    deescalations = i / 2;
    page_write_grants = 100 + (5 * i);
    object_write_grants = 7 * i;
    overflows = 0;
    token_waits = 0;
    token_bounces = 0;
    crashes = i mod 5;
    crash_aborts = i mod 2;
    msg_losses = 2 * i;
    msg_dups = i;
    retransmits = 3 * i;
    disk_stalls = i mod 7;
    faults_injected = 4 * i;
    recoveries = i mod 5;
    recovery_mean = 0.8 +. (0.01 *. f);
    srv_crashes = i mod 3;
    srv_giveaways = i;
    srv_recoveries = i mod 3;
    srv_recovery_mean = 2.5 +. (0.02 *. f);
    retries = 5 * i;
    retry_wait_p99 = 0.05 +. (0.001 *. f);
    oracle_commits = 0;
    oracle_ops = 0;
    resp_p50 = 1.2 +. (0.01 *. f);
    resp_p90 = 2.0 +. (0.01 *. f);
    resp_p99 = 3.1 +. (0.02 *. f);
    lock_wait_p99 = 0.25 +. (0.001 *. f);
    cb_round_p99 = 0.012 +. (0.0001 *. f);
    n_servers = 1 + (i mod 4);
    cb_forwards = 2 * i;
    edge_exchanges = i;
    hists = hists i;
    timeline = None;
  }

(* One result per job, in job order: what a sweep of [jobs] would
   return. *)
let results jobs = List.mapi (fun i (j : Job.t) -> result i j.Job.algo) jobs
