open Simcore
open Model

type result = {
  algo : Algo.t;
  workload : string;
  sim_seconds : float;
  throughput : float;
  resp_mean : float;
  resp_ci90 : float;
  resp_batches : int;
  commits : int;
  aborts : int;
  deadlocks : int;
  messages : int;
  msgs_per_commit : float;
  kbytes_per_commit : float;
  disk_ios : int;
  server_cpu_util : float;
  client_cpu_util : float;
  disk_util : float;
  net_util : float;
  lock_waits : int;
  avg_lock_wait : float;
  callback_blocks : int;
  merges : int;
  deescalations : int;
  page_write_grants : int;
  object_write_grants : int;
  overflows : int;
  token_waits : int;
  token_bounces : int;
  crashes : int;
  crash_aborts : int;
  msg_losses : int;
  msg_dups : int;
  retransmits : int;
  disk_stalls : int;
  faults_injected : int;
  recoveries : int;
  recovery_mean : float;
  srv_crashes : int;
  srv_giveaways : int;
  srv_recoveries : int;
  srv_recovery_mean : float;
  retries : int;
  retry_wait_p99 : float;
  oracle_commits : int;
  oracle_ops : int;
  resp_p50 : float;
  resp_p90 : float;
  resp_p99 : float;
  lock_wait_p99 : float;
  cb_round_p99 : float;
  n_servers : int;
  cb_forwards : int;
  edge_exchanges : int;
  hists : Metrics.hist_snapshot;
  timeline : Telemetry.Timeline.t option;
}

exception Oracle_failed of string * string

let () =
  Printexc.register_printer (function
    | Oracle_failed (msg, _dump) -> Some ("Runner.Oracle_failed: " ^ msg)
    | _ -> None)

let reset_resource_stats sys =
  Array.iter
    (fun sv ->
      Resources.Cpu.reset_stats sv.scpu;
      Resources.Disk_array.reset_stats sv.sdisks)
    sys.servers;
  Array.iter Resources.Cpu.reset_stats sys.clients.ccpu;
  Resources.Network.reset_stats sys.net

let total_deadlocks sys =
  Array.fold_left
    (fun acc sv -> acc + Locking.Waits_for.deadlocks sv.wfg)
    0 sys.servers

let run ?(seed = 42) ?max_events ?(warmup = 40.0) ?(measure = 200.0) ~cfg
    ~algo ~params () =
  let sys = Model.create ~cfg ~algo ~params ~seed in
  Netlayer.install_edge_exchange sys;
  Audit.install sys;
  Client.start sys;
  Crash.install sys;
  Engine.run_until ?max_events sys.engine warmup;
  Metrics.reset sys.metrics ~now:warmup;
  reset_resource_stats sys;
  Faults.reset_counters sys.faults;
  let deadlocks_at_warmup = total_deadlocks sys in
  let stop = warmup +. measure in
  Engine.run_until ?max_events sys.engine stop;
  sys.live <- false;
  Audit.check sys ~context:"end-of-run";
  (match sys.oracle with
  | None -> ()
  | Some o -> (
    try Oracle.Checker.check o
    with Oracle.Checker.Violation msg ->
      raise
        (Oracle_failed
           ( Printf.sprintf "serializability oracle: %s [%s/%s, seed %d]" msg
               (Algo.to_string algo) params.Workload.Wparams.name seed,
             Oracle.History.dump o ))));
  let m = sys.metrics in
  let commits = Metrics.commits m in
  let clients_util =
    let s =
      Array.fold_left
        (fun acc ccpu -> acc +. Resources.Cpu.utilization ccpu)
        0.0 sys.clients.ccpu
    in
    s /. float_of_int sys.clients.n
  in
  {
    algo;
    workload = params.Workload.Wparams.name;
    sim_seconds = measure;
    throughput = Metrics.throughput m ~now:stop;
    resp_mean = Metrics.response_mean m;
    resp_ci90 = Metrics.response_ci90 m;
    resp_batches = Metrics.response_batches m;
    commits;
    aborts = Metrics.aborts m;
    deadlocks = total_deadlocks sys - deadlocks_at_warmup;
    messages = Metrics.messages m;
    msgs_per_commit = Metrics.msgs_per_commit m;
    kbytes_per_commit =
      (if commits = 0 then 0.0
       else float_of_int (Metrics.bytes m) /. 1024.0 /. float_of_int commits);
    disk_ios =
      Array.fold_left
        (fun acc sv -> acc + Resources.Disk_array.io_count sv.sdisks)
        0 sys.servers;
    server_cpu_util =
      Array.fold_left
        (fun acc sv -> acc +. Resources.Cpu.utilization sv.scpu)
        0.0 sys.servers
      /. float_of_int (Array.length sys.servers);
    client_cpu_util = clients_util;
    disk_util =
      Array.fold_left
        (fun acc sv -> acc +. Resources.Disk_array.utilization sv.sdisks)
        0.0 sys.servers
      /. float_of_int (Array.length sys.servers);
    net_util = Resources.Network.utilization sys.net;
    lock_waits = Metrics.lock_waits m;
    avg_lock_wait = Metrics.avg_lock_wait m;
    callback_blocks = Metrics.callback_blocks m;
    merges = Metrics.merges m;
    deescalations = Metrics.deescalations m;
    page_write_grants = Metrics.page_write_grants m;
    object_write_grants = Metrics.object_write_grants m;
    overflows = Metrics.overflows m;
    token_waits = Metrics.token_waits m;
    token_bounces = Metrics.token_bounces m;
    crashes = Faults.crashes sys.faults;
    crash_aborts = Faults.crash_aborts sys.faults;
    msg_losses = Faults.msg_losses sys.faults;
    msg_dups = Faults.msg_dups sys.faults;
    retransmits = Faults.retransmits sys.faults;
    disk_stalls = Faults.disk_stalls sys.faults;
    faults_injected = Faults.injected sys.faults;
    recoveries = Faults.recoveries sys.faults;
    recovery_mean = Faults.recovery_mean sys.faults;
    srv_crashes = Faults.srv_crashes sys.faults;
    srv_giveaways = Faults.srv_giveaways sys.faults;
    srv_recoveries = Faults.srv_recoveries sys.faults;
    srv_recovery_mean = Faults.srv_recovery_mean sys.faults;
    retries = Metrics.retries m;
    retry_wait_p99 = Metrics.retry_wait_quantile m 0.99;
    oracle_commits =
      (match sys.oracle with
      | Some o -> Oracle.History.committed_count o
      | None -> 0);
    oracle_ops =
      (match sys.oracle with
      | Some o -> Oracle.History.op_count o
      | None -> 0);
    resp_p50 = Metrics.response_quantile m 0.50;
    resp_p90 = Metrics.response_quantile m 0.90;
    resp_p99 = Metrics.response_quantile m 0.99;
    lock_wait_p99 = Metrics.lock_wait_quantile m 0.99;
    cb_round_p99 = Metrics.cb_round_quantile m 0.99;
    n_servers = Array.length sys.servers;
    cb_forwards = Metrics.messages_of m Metrics.M_cb_forward;
    edge_exchanges = Metrics.messages_of m Metrics.M_edge_exchange;
    hists = Metrics.snapshot_hists m;
    timeline = Option.map Tl.timeline sys.timeline;
  }
