(* The benchmark's mirror of [Runner.run]: the same public calls in the
   same order, each timed (and, when tracing, wrapped in a span), so the
   benchmark can attribute a cell's host time to the layer that spent
   it and read [Engine.events_processed].  The mirror check in
   oodb_bench.ml holds it to [Runner.run]'s results exactly. *)

open Oodb_core
module Engine = Simcore.Engine

(* Model-side outcome of a cell: simulated statistics, a pure function
   of the job, identical whichever way the host runs it. *)
type model = {
  commits : int;
  aborts : int;
  throughput : float;
  messages : int;
  bytes : int;
  disk_ios : int;
  server_util : float;
  disk_util : float;
  net_util : float;
  lock_waits : int;
  deadlocks : int;
  copies_end : int;
  cb_blocks : int;
  faults_injected : int;
  retries : int;
  srv_recoveries : int;
  resp_p99 : float;
}

(* Probes at the cell's end state, timed outside its simulate window. *)
type probes = {
  boundary_us : float;  (** one [Audit.check ~coverage_of] *)
  full_us : float;  (** one full [Audit.check] *)
  gen_us : float;  (** one [Refstring.generate] on the cell's params *)
}

type t = {
  index : int;  (** position in the pass *)
  algo : Algo.t;
  create_s : float;  (** [Model.create] *)
  start_s : float;  (** the install and start calls *)
  sim_s : float;  (** both [Engine.run_until] windows *)
  end_audit_s : float;
  oracle_s : float;  (** the end-of-run oracle step *)
  cell_s : float;
  events : int;
  minor_words : float;
      (** allocated inside the two windows, by the domain that ran them *)
  boundaries : int;  (** commits + aborts over the whole run *)
  txns : int;  (** transactions generated over the whole run *)
  oracle_ops : int;
  model : model;
  probes : probes option;
  spans : Span.t list;
}

let isum sys f = Array.fold_left (fun acc sv -> acc + f sv) 0 sys.Model.servers

let mean_servers sys f =
  Array.fold_left (fun acc sv -> acc +. f sv) 0.0 sys.Model.servers
  /. float_of_int (Array.length sys.Model.servers)

let deadlocks sys = isum sys (fun sv -> Locking.Waits_for.deadlocks sv.Model.wfg)

let model_of sys ~stop ~deadlocks_at_warmup =
  let m = sys.Model.metrics in
  {
    commits = Metrics.commits m;
    aborts = Metrics.aborts m;
    throughput = Metrics.throughput m ~now:stop;
    messages = Metrics.messages m;
    bytes = Metrics.bytes m;
    disk_ios = isum sys (fun sv -> Resources.Disk_array.io_count sv.Model.sdisks);
    server_util = mean_servers sys (fun sv -> Resources.Cpu.utilization sv.Model.scpu);
    disk_util =
      mean_servers sys (fun sv -> Resources.Disk_array.utilization sv.Model.sdisks);
    net_util = Resources.Network.utilization sys.Model.net;
    lock_waits = Metrics.lock_waits m;
    deadlocks = deadlocks sys - deadlocks_at_warmup;
    copies_end =
      isum sys (fun sv ->
          Locking.Copy_table.copies sv.Model.pcopies
          + Locking.Copy_table.copies sv.Model.ocopies);
    cb_blocks = Metrics.callback_blocks m;
    faults_injected = Faults.injected sys.Model.faults;
    retries = Metrics.retries m;
    srv_recoveries = Faults.srv_recoveries sys.Model.faults;
    resp_p99 = Metrics.response_quantile m 0.99;
  }

(* Mean microseconds per call of [f i], over at least [min_calls] calls
   and at least 2 ms. *)
let probe ~min_calls f =
  let t0 = Span.clock () in
  let rec go i =
    f i;
    let dt = Span.clock () -. t0 in
    if i + 1 >= min_calls && dt >= 0.002 then dt *. 1e6 /. float_of_int (i + 1)
    else go (i + 1)
  in
  go 0

let probes_of sys (job : Job.t) ~seed =
  let n = sys.Model.clients.Model.n in
  let rng = Simcore.Rng.create ~seed in
  {
    boundary_us =
      probe ~min_calls:3 (fun i -> Audit.check sys ~coverage_of:(i mod n));
    full_us = probe ~min_calls:3 (fun _ -> Audit.check sys);
    gen_us =
      probe ~min_calls:20 (fun i ->
          ignore
            (Workload.Refstring.generate ~rng ~params:job.Job.params
               ~client:(i mod n)
               ~objects_per_page:job.Job.cfg.Config.objects_per_page));
  }

(* [hook:false] skips [Audit.install] and [oracle:false] forces the
   oracle off: the two differential runs.  Neither changes a simulated
   event.  Returns the cell and its latency histograms, which the caller
   merges over a pass and then drops (they are ~170 KB a cell).  Raises
   on any failure; the caller counts it. *)
let run ?(hook = true) ?(oracle = true) ?(probe = false) ~trace ~cell ~parent
    (job : Job.t) =
  let r = Span.recorder ~on:trace ~cell ~parent in
  let time name f = Span.time r name f in
  let cfg =
    if oracle then job.Job.cfg else { job.Job.cfg with Config.oracle = false }
  in
  let seed = Job.seed job in
  let max_events = job.Job.max_events in
  let warmup = job.Job.warmup in
  let stop = warmup +. job.Job.measure in
  let (c, sys), cell_s =
    time "cell" (fun () ->
        let sys, create_s =
          time "model.create" (fun () ->
              Model.create ~cfg ~algo:job.Job.algo ~params:job.Job.params ~seed)
        in
        let engine = sys.Model.engine in
        let m = sys.Model.metrics in
        let start_s =
          snd (time "netlayer.install_edge_exchange" (fun () ->
                   Netlayer.install_edge_exchange sys))
          +. (if hook then snd (time "audit.install" (fun () -> Audit.install sys))
              else 0.0)
          +. snd (time "client.start" (fun () -> Client.start sys))
          +. snd (time "crash.install" (fun () -> Crash.install sys))
        in
        let words0 = Gc.minor_words () in
        let (), warm_s =
          time "engine.run_until.warmup" (fun () ->
              Engine.run_until ?max_events engine warmup)
        in
        let warm_commits = Metrics.commits m in
        let warm_boundaries = warm_commits + Metrics.aborts m in
        let deadlocks_at_warmup, _ =
          time "stats.reset" (fun () ->
              Metrics.reset m ~now:warmup;
              Array.iter
                (fun sv ->
                  Resources.Cpu.reset_stats sv.Model.scpu;
                  Resources.Disk_array.reset_stats sv.Model.sdisks)
                sys.Model.servers;
              Array.iter Resources.Cpu.reset_stats sys.Model.clients.Model.ccpu;
              Resources.Network.reset_stats sys.Model.net;
              Faults.reset_counters sys.Model.faults;
              deadlocks sys)
        in
        let (), measure_s =
          time "engine.run_until.measure" (fun () ->
              Engine.run_until ?max_events engine stop)
        in
        let minor_words = Gc.minor_words () -. words0 in
        sys.Model.live <- false;
        let (), end_audit_s =
          time "audit.check.end" (fun () -> Audit.check sys ~context:"end-of-run")
        in
        let (), oracle_s =
          time "oracle.check" (fun () ->
              Option.iter Oracle.Checker.check sys.Model.oracle)
        in
        let model = model_of sys ~stop ~deadlocks_at_warmup in
        if model.commits = 0 then failwith "no transaction committed";
        let running =
          Array.fold_left
            (fun acc t -> if Option.is_some t then acc + 1 else acc)
            0 sys.Model.clients.Model.running
        in
        ( {
            index = cell;
            algo = job.Job.algo;
            create_s;
            start_s;
            sim_s = warm_s +. measure_s;
            end_audit_s;
            oracle_s;
            cell_s = 0.0;
            events = Engine.events_processed engine;
            minor_words;
            boundaries = warm_boundaries + model.commits + model.aborts;
            txns = warm_commits + model.commits + running;
            oracle_ops =
              Option.fold ~none:0 ~some:Oracle.History.op_count sys.Model.oracle;
            model;
            probes = None;
            spans = [];
          },
          sys ))
  in
  let hists = Metrics.snapshot_hists sys.Model.metrics in
  let probes = if probe then Some (probes_of sys job ~seed) else None in
  ({ c with cell_s; probes; spans = r.Span.spans }, hists)
