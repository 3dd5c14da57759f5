(* Server crash & recovery tests.

   Five layers of assurance:
   - unit behaviour of the server-fault profile fields (validation
     bounds, deterministic crash schedules, inert knobs staying inert);
   - direct crash orchestration: [Crash.crash_server] leaves no
     volatile state behind (the audit's invariant 7 re-checked by
     hand), the surviving partition keeps committing while the other
     is down, and a restarted server rebuilds its callback state and
     reopens;
   - server-crash-storm conformance: every protocol at 2 and 4
     partitions under a pure server-crash storm with the
     serializability oracle attached and the audit re-run after every
     fault — crashes must actually strike, clients must keep
     committing, and retries must flow;
   - the sabotage knob: restarting without copy-table reconstruction
     must produce a history the oracle rejects (proving the oracle, not
     the state audit, is the backstop for recovery bugs);
   - timeline visibility: a crashing run records the down span and the
     recovery-phase instants (replay, copy-reconstruction, reopen). *)

open Oodb_core

(* --- Profile unit behaviour ----------------------------------------------- *)

let test_validation () =
  Faults.validate
    { Faults.off with Faults.srv_crash_rate = 0.5; log_flush_interval = 0.25 };
  let rejects p what =
    Alcotest.(check bool) what true
      (try
         Faults.validate p;
         false
       with Invalid_argument _ -> true)
  in
  rejects
    { Faults.off with Faults.srv_crash_rate = -0.1 }
    "negative server crash rate rejected";
  rejects
    { Faults.off with Faults.srv_restart_delay = -1.0 }
    "negative server restart delay rejected";
  rejects
    { Faults.off with Faults.log_flush_interval = 0.0 }
    "zero log-flush interval rejected";
  rejects
    { Faults.off with Faults.retrans_giveaway = 0 }
    "zero retransmission giveaway rejected";
  (* The storm extension turns server crashes on, at a quarter of the
     client rate. *)
  Alcotest.(check bool) "storm includes server crashes" true
    ((Faults.storm ~rate:0.04).Faults.srv_crash_rate > 0.0);
  Alcotest.(check bool) "zero-rate storm has no server crashes" true
    ((Faults.storm ~rate:0.0).Faults.srv_crash_rate = 0.0)

let test_srv_delays_deterministic () =
  let delays seed =
    let f =
      Faults.create
        ~profile:{ Faults.off with Faults.srv_crash_rate = 0.5 }
        ~seed
    in
    List.init 50 (fun _ -> Faults.next_srv_crash_delay f)
  in
  Alcotest.(check bool) "reproducible inter-crash times" true
    (delays 4 = delays 4);
  Alcotest.(check bool) "different seed, different schedule" true
    (delays 4 <> delays 5);
  List.iter
    (fun d ->
      if d <= 0.0 then Alcotest.fail "non-positive inter-crash delay")
    (delays 4)

(* With the crash rate at zero the other server-fault knobs are inert:
   no flush fiber, no driver, no extra draw — byte-identical results. *)
let test_inert_knobs_identity () =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg = Experiments.cfg_of spec in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  let mk cfg =
    Job.make ~sweep:"srvfault-ident" ~label:"wp=0.10" ~cfg ~algo:Algo.PS_AA
      ~params ~warmup:3.0 ~measure:12.0 ()
  in
  let plain = Job.run (mk cfg) in
  let tweaked =
    Job.run
      (mk
         {
           cfg with
           Config.faults =
             {
               Faults.off with
               Faults.srv_restart_delay = 9.0;
               log_flush_interval = 0.1;
               retrans_giveaway = 3;
             };
         })
  in
  Alcotest.(check bool)
    "srv knobs without a crash rate leave results byte-identical" true
    (plain = tweaked)

(* --- Crash orchestration -------------------------------------------------- *)

let mk_running_sys ~algo ~servers ~partition ~params_of ~seed =
  let cfg = { Config.default with Config.servers; partition } in
  let params = params_of cfg in
  let sys = Model.create ~cfg ~algo ~params ~seed in
  Netlayer.install_edge_exchange sys;
  Audit.install sys;
  Client.start sys;
  sys

let fig3_params cfg =
  let spec = Option.get (Experiments.find "fig3") in
  ignore spec;
  Workload.Presets.make Workload.Presets.Hotcold
    ~db_pages:cfg.Config.db_pages
    ~objects_per_page:cfg.Config.objects_per_page
    ~num_clients:cfg.Config.num_clients ~locality:Workload.Presets.Low
    ~write_prob:0.1

let test_crash_purges_server () =
  let sys =
    mk_running_sys ~algo:Algo.PS_AA ~servers:2 ~partition:Config.Hash
      ~params_of:fig3_params ~seed:7
  in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  Crash.crash_server sys 1;
  let sv = sys.Model.servers.(1) in
  Alcotest.(check bool) "server down" true (sv.Model.srv_state = Model.Srv_down);
  Alcotest.(check int) "page locks purged" 0
    (Locking.Lock_table.lock_count sv.Model.plocks);
  Alcotest.(check int) "object locks purged" 0
    (Locking.Lock_table.lock_count sv.Model.olocks);
  for cid = 0 to sys.Model.clients.Model.n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "client %d page copies purged" cid)
      0
      (Locking.Copy_table.client_copies sv.Model.pcopies ~client:cid);
    Alcotest.(check int)
      (Printf.sprintf "client %d object copies purged" cid)
      0
      (Locking.Copy_table.client_copies sv.Model.ocopies ~client:cid)
  done;
  Alcotest.(check int) "write tokens returned" 0
    (Hashtbl.length sv.Model.token_owner);
  Alcotest.(check int) "buffer pool cold" 0
    (Storage.Buffer_pool.size sv.Model.sbuffer);
  (* Invariant 7 holds, and the rest of the state is consistent. *)
  Audit.check sys ~context:"unit-srv-crash";
  (* The restart must run inside a fiber: replay and reconstruction
     charge CPU and disk time. *)
  Simcore.Proc.spawn sys.Model.engine (fun () ->
      Simcore.Proc.hold 2.0;
      Crash.restart_server sys 1);
  Simcore.Engine.run_until sys.Model.engine 60.0;
  sys.Model.live <- false;
  Alcotest.(check bool) "server reopened" true
    (sv.Model.srv_state = Model.Srv_up);
  Alcotest.(check bool) "recovery latency recorded" true
    (Faults.srv_recoveries sys.Model.faults >= 1);
  Audit.check sys ~context:"unit-srv-recovered"

(* Partial-partition degradation: each client's accesses are confined
   to one half of the database (PRIVATE's shared cold half would span
   the down partition, so regions are overridden), and the halves map
   one-to-one onto the two range partitions.  Crashing server 1 must
   leave the lower-half clients committing at full speed while the
   upper-half clients stall until the reopen. *)
let test_partition_isolation () =
  let params_of cfg =
    let base =
      Workload.Presets.make Workload.Presets.Private_
        ~db_pages:cfg.Config.db_pages
        ~objects_per_page:cfg.Config.objects_per_page
        ~num_clients:cfg.Config.num_clients ~locality:Workload.Presets.Low
        ~write_prob:0.1
    in
    let half = cfg.Config.db_pages / 2 in
    let clients =
      Array.mapi
        (fun cid (pc : Workload.Wparams.per_client) ->
          let region =
            if cid mod 2 = 0 then { Workload.Wparams.first = 0; last = half - 1 }
            else { Workload.Wparams.first = half; last = cfg.Config.db_pages - 1 }
          in
          {
            pc with
            Workload.Wparams.hot_region = Some region;
            cold_region = region;
            hot_access_prob = 1.0;
          })
        base.Workload.Wparams.clients
    in
    { base with Workload.Wparams.name = "SPLIT"; clients }
  in
  let sys =
    mk_running_sys ~algo:Algo.PS_AA ~servers:2 ~partition:Config.Range
      ~params_of ~seed:8
  in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  let commits_before = Metrics.commits sys.Model.metrics in
  Alcotest.(check bool) "warmed up: commits flowing" true (commits_before > 0);
  Crash.crash_server sys 1;
  Simcore.Engine.run_until sys.Model.engine 25.0;
  let commits_during = Metrics.commits sys.Model.metrics in
  Audit.check sys ~context:"unit-down-window";
  Alcotest.(check bool)
    "surviving partition keeps committing during the outage" true
    (commits_during > commits_before);
  Simcore.Proc.spawn sys.Model.engine (fun () -> Crash.restart_server sys 1);
  Simcore.Engine.run_until sys.Model.engine 60.0;
  let commits_after = Metrics.commits sys.Model.metrics in
  sys.Model.live <- false;
  Alcotest.(check bool) "whole population commits again after reopen" true
    (commits_after > commits_during);
  Audit.check sys ~context:"unit-reopened"

(* --- Server-crash-storm conformance ---------------------------------------- *)

(* Pure server-crash storms (client faults off) over the fig3 workload
   with the serializability oracle attached; the audit hook re-verifies
   every invariant after each crash and each recovery.  [max_events]
   turns a livelock into a loud failure instead of a hang. *)
let srv_storm_run ~algo ~servers ~seed ~rate =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    {
      (Experiments.cfg_of spec) with
      Config.servers;
      oracle = true;
      faults = { Faults.off with Faults.srv_crash_rate = rate };
    }
  in
  let params = Experiments.params_of spec ~write_prob:0.2 in
  Runner.run ~seed ~max_events:5_000_000 ~warmup:5.0 ~measure:40.0 ~cfg ~algo
    ~params ()

let srv_conformance algo () =
  let crashes = ref 0 and recoveries = ref 0 and retries = ref 0 in
  List.iter
    (fun (servers, seed, rate) ->
      let r = srv_storm_run ~algo ~servers ~seed ~rate in
      crashes := !crashes + r.Runner.srv_crashes;
      recoveries := !recoveries + r.Runner.srv_recoveries;
      retries := !retries + r.Runner.retries;
      Alcotest.(check bool)
        (Printf.sprintf "commits at servers=%d rate=%.2f (seed %d)" servers
           rate seed)
        true
        (r.Runner.commits > 0))
    [ (2, 21, 0.05); (4, 22, 0.05) ];
  (* The storm must actually kill servers and force retries, or the
     oracle and audit prove nothing about recovery. *)
  Alcotest.(check bool) "storm crashed servers" true (!crashes > 0);
  Alcotest.(check bool) "servers recovered" true (!recoveries > 0);
  Alcotest.(check bool) "down-server retries flowed" true (!retries > 0)

(* --- Sabotage: the oracle is the backstop ---------------------------------- *)

(* Skipping copy-table reconstruction leaves stale cached copies
   uncovered, so post-recovery writers miss callbacks and the history
   goes non-serializable.  The state-level checks are deliberately
   disarmed under this knob; the serializability oracle must be the
   component that catches it. *)
let test_sabotage_trips_oracle () =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    {
      (Experiments.cfg_of spec) with
      Config.servers = 2;
      oracle = true;
      srv_skip_reconstruction = true;
      faults = { Faults.off with Faults.srv_crash_rate = 0.05 };
    }
  in
  let params = Experiments.params_of spec ~write_prob:0.2 in
  match
    Runner.run ~seed:23 ~max_events:20_000_000 ~warmup:10.0 ~measure:120.0
      ~cfg ~algo:Algo.PS_AA ~params ()
  with
  | _ -> Alcotest.fail "oracle accepted a run without copy reconstruction"
  | exception Runner.Oracle_failed (msg, _dump) ->
    Alcotest.(check bool) "violation names a serializability cycle" true
      (String.length msg > 0)

(* --- Timeline visibility --------------------------------------------------- *)

let test_timeline_records_outage () =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    {
      (Experiments.cfg_of spec) with
      Config.servers = 2;
      timeline = true;
      faults = { Faults.off with Faults.srv_crash_rate = 0.05 };
    }
  in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  let r =
    Runner.run ~seed:24 ~max_events:5_000_000 ~warmup:5.0 ~measure:40.0 ~cfg
      ~algo:Algo.PS_AA ~params ()
  in
  Alcotest.(check bool) "storm crashed a server" true (r.Runner.srv_crashes > 0);
  let tl = Option.get r.Runner.timeline in
  let seen = Hashtbl.create 16 in
  Telemetry.Timeline.iter tl
    (fun ~kind:_ ~track:_ ~name ~arg:_ ~t0:_ ~t1:_ ->
      if name >= 0 then
        Hashtbl.replace seen (Telemetry.Timeline.name_of tl name) ());
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "timeline records %S" n) true
        (Hashtbl.mem seen n))
    [ "crash"; "down"; "replay"; "copy-reconstruction"; "reopen" ]

let suite =
  [
    Alcotest.test_case "profile validation" `Quick test_validation;
    Alcotest.test_case "crash schedule deterministic" `Quick
      test_srv_delays_deterministic;
    Alcotest.test_case "inert knobs byte-identity" `Slow
      test_inert_knobs_identity;
    Alcotest.test_case "crash purges all volatile state" `Quick
      test_crash_purges_server;
    Alcotest.test_case "surviving partition keeps committing" `Quick
      test_partition_isolation;
  ]
  @ List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "server-crash storm, oracle+audit (%s)"
             (Algo.to_string algo))
          `Slow (srv_conformance algo))
      Algo.all
  @ [
      Alcotest.test_case "sabotaged recovery trips the oracle" `Slow
        test_sabotage_trips_oracle;
      Alcotest.test_case "timeline records the outage" `Slow
        test_timeline_records_outage;
    ]
