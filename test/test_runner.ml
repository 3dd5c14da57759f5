(* End-to-end tests of the full closed system: short measured runs for
   every protocol and workload, checking liveness, determinism, and the
   qualitative relationships the paper's analysis relies on.  Windows
   are kept short; the calibrated reproduction lives in bench/. *)

open Oodb_core

let quick_run ?(algo = Algo.PS_AA) ?(which = Workload.Presets.Hotcold)
    ?(locality = Workload.Presets.Low) ?(write_prob = 0.1) ?(seed = 42)
    ?(warmup = 10.0) ?(measure = 30.0) () =
  let cfg = Config.default in
  let params =
    Workload.Presets.make which ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page
      ~num_clients:cfg.Config.num_clients ~locality ~write_prob
  in
  Runner.run ~seed ~warmup ~measure ~cfg ~algo ~params ()

let test_all_protocols_live () =
  List.iter
    (fun algo ->
      let r = quick_run ~algo () in
      Alcotest.(check bool)
        (Algo.to_string algo ^ " commits transactions")
        true (r.Runner.commits > 50);
      Alcotest.(check bool)
        (Algo.to_string algo ^ " throughput positive")
        true
        (r.Runner.throughput > 0.0);
      Alcotest.(check bool)
        (Algo.to_string algo ^ " response sane")
        true
        (r.Runner.resp_mean > 0.0 && r.Runner.resp_mean < 30.0))
    Algo.all

let test_all_workloads_live () =
  List.iter
    (fun which ->
      let r = quick_run ~which ~locality:Workload.Presets.High () in
      Alcotest.(check bool)
        (Workload.Presets.name_to_string which ^ " commits")
        true (r.Runner.commits > 30))
    Workload.Presets.all

let test_determinism () =
  let a = quick_run ~measure:20.0 () and b = quick_run ~measure:20.0 () in
  Alcotest.(check int) "same seed, same commits" a.Runner.commits b.Runner.commits;
  Alcotest.(check int) "same messages" a.Runner.messages b.Runner.messages;
  let c = quick_run ~measure:20.0 ~seed:7 () in
  Alcotest.(check bool) "different seed differs" true
    (c.Runner.commits <> a.Runner.commits || c.Runner.messages <> a.Runner.messages)

let test_read_only_equivalence () =
  (* At write probability 0 every page-transfer protocol degenerates to
     the same behaviour; OS differs only by its object-at-a-time
     fetches (strictly more messages, lower throughput). *)
  let results =
    List.map (fun algo -> (algo, quick_run ~algo ~write_prob:0.0 ())) Algo.all
  in
  let tput a = (List.assoc a results).Runner.throughput in
  let ps = tput Algo.PS in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Algo.to_string a ^ " matches PS when read-only")
        true
        (abs_float (tput a -. ps) /. ps < 0.02))
    [ Algo.PS_OO; Algo.PS_OA; Algo.PS_AA ];
  Alcotest.(check bool) "OS slower when read-only" true (tput Algo.OS < ps);
  List.iter
    (fun (a, r) ->
      Alcotest.(check int)
        (Algo.to_string a ^ " no deadlocks read-only")
        0 r.Runner.deadlocks)
    results

let test_no_contention_private () =
  (* PRIVATE has no data contention: no deadlocks, no callback blocking,
     and PS-AA issues page-grain write grants only. *)
  let r =
    quick_run ~which:Workload.Presets.Private_ ~locality:Workload.Presets.High
      ~write_prob:0.3 ()
  in
  Alcotest.(check int) "no deadlocks" 0 r.Runner.deadlocks;
  Alcotest.(check int) "no aborts" 0 r.Runner.aborts;
  Alcotest.(check int) "no object grants" 0 r.Runner.object_write_grants;
  Alcotest.(check bool) "page grants happen" true (r.Runner.page_write_grants > 0)

let test_ps_aa_beats_ps_under_false_sharing () =
  (* Interleaved PRIVATE is pure false sharing: fine-grained protocols
     must beat the page-grain PS. *)
  let ps =
    quick_run ~algo:Algo.PS ~which:Workload.Presets.Interleaved_private
      ~locality:Workload.Presets.High ~write_prob:0.2 ()
  in
  let oo =
    quick_run ~algo:Algo.PS_OO ~which:Workload.Presets.Interleaved_private
      ~locality:Workload.Presets.High ~write_prob:0.2 ()
  in
  Alcotest.(check bool) "PS-OO beats PS under false sharing" true
    (oo.Runner.throughput > ps.Runner.throughput)

let test_os_message_heavy () =
  (* The object server pays at least one round trip per object: far more
     messages per commit than the page server at decent locality. *)
  let os = quick_run ~algo:Algo.OS ~locality:Workload.Presets.High () in
  let ps = quick_run ~algo:Algo.PS ~locality:Workload.Presets.High () in
  Alcotest.(check bool) "OS needs more messages" true
    (os.Runner.msgs_per_commit > 1.5 *. ps.Runner.msgs_per_commit)

let test_deescalations_only_under_ps_aa () =
  List.iter
    (fun algo ->
      let r = quick_run ~algo ~write_prob:0.2 ~measure:20.0 () in
      if algo = Algo.PS_AA then
        Alcotest.(check bool) "PS-AA de-escalates" true (r.Runner.deescalations > 0)
      else
        Alcotest.(check int)
          (Algo.to_string algo ^ " never de-escalates")
          0 r.Runner.deescalations)
    Algo.all

let test_hicon_contention () =
  (* HICON must show dramatically more data contention than HOTCOLD:
     more blocking per committed transaction and a higher abort ratio. *)
  let hicon = quick_run ~which:Workload.Presets.Hicon ~algo:Algo.PS ~write_prob:0.3 () in
  let hotcold = quick_run ~which:Workload.Presets.Hotcold ~algo:Algo.PS ~write_prob:0.3 () in
  let per_commit (r : Runner.result) what =
    float_of_int what /. float_of_int (max 1 r.Runner.commits)
  in
  Alcotest.(check bool) "more lock waits per commit under HICON" true
    (per_commit hicon hicon.Runner.lock_waits
    > per_commit hotcold hotcold.Runner.lock_waits);
  Alcotest.(check bool) "higher abort ratio under HICON" true
    (per_commit hicon hicon.Runner.aborts
    > per_commit hotcold hotcold.Runner.aborts)

let test_utilizations_bounded () =
  List.iter
    (fun algo ->
      let r = quick_run ~algo ~write_prob:0.2 ~measure:20.0 () in
      List.iter
        (fun (what, v) ->
          if v < 0.0 || v > 1.0 +. 1e-9 then
            Alcotest.failf "%s %s utilization out of range: %f"
              (Algo.to_string algo) what v)
        [
          ("server cpu", r.Runner.server_cpu_util);
          ("client cpu", r.Runner.client_cpu_util);
          ("disk", r.Runner.disk_util);
          ("net", r.Runner.net_util);
        ])
    Algo.all

let test_scaled_config_runs () =
  (* A short scaled (x9) run must work end to end. *)
  let cfg = Config.scaled Config.default ~factor:9 in
  let params =
    Workload.Presets.make Workload.Presets.Hotcold ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page
      ~num_clients:cfg.Config.num_clients ~trans_size:90
      ~locality:Workload.Presets.Low ~write_prob:0.1
  in
  let r =
    Runner.run ~warmup:20.0 ~measure:30.0 ~cfg ~algo:Algo.PS_AA ~params ()
  in
  Alcotest.(check bool) "scaled run commits" true (r.Runner.commits > 5)

(* Event-for-event pins of the think-time path: a scaled-server UNIFORM
   cell of 2000 clients with think time [0.05 * n], so most of the
   population is thinking (or still waiting out its start phase) at any
   instant.  The cell is run step by step like [Runner.run] so the
   engine's event count can be read.  The values are those of clients
   that held a suspended fiber through every think: how a client waits
   is host-side bookkeeping and must not move a single event.  Client
   CPU statistics restart at the end of the warm-up, as in [Runner.run],
   and most clients first run after it: the mean client CPU utilisation
   pins the utilisation origin of a CPU built on first use. *)
type think_pin = {
  t_commits : int;
  t_aborts : int;
  t_messages : int;
  t_resp_p99 : string;  (** [%h] of the p99 response time *)
  t_events : int;
  t_recoveries : int;
  t_client_util : string;  (** [%h] of the mean client CPU utilisation *)
}

let mean_client_util sys =
  let cs = sys.Model.clients in
  Array.fold_left
    (fun acc cpu -> acc +. Resources.Cpu.utilization cpu)
    0.0 cs.Model.ccpu
  /. float_of_int cs.Model.n

let think_setup ?arrival ~clients ~crash_rate () =
  let cfg =
    {
      Config.default with
      Config.num_clients = clients;
      server_mips = 1500.0;
      server_disks = 128;
      network_mbits = 2000.0;
      faults = { Faults.off with Faults.crash_rate };
    }
  in
  let params =
    Workload.Presets.(
      make Uniform ~think_time:(0.05 *. float_of_int clients)
        ~db_pages:cfg.Config.db_pages
        ~objects_per_page:cfg.Config.objects_per_page ~num_clients:clients
        ~locality:Low ~write_prob:0.1)
  in
  (cfg, { params with Workload.Wparams.arrival })

let start_sys ~cfg ~algo ~params =
  let sys = Model.create ~cfg ~algo ~params ~seed:42 in
  Netlayer.install_edge_exchange sys;
  Audit.install sys;
  Client.start sys;
  Crash.install sys;
  sys

let run_think_sys sys ~warmup ~measure =
  let engine = sys.Model.engine and m = sys.Model.metrics in
  Simcore.Engine.run_until engine warmup;
  Metrics.reset m ~now:warmup;
  Array.iter Resources.Cpu.reset_stats sys.Model.clients.Model.ccpu;
  Faults.reset_counters sys.Model.faults;
  Simcore.Engine.run_until engine (warmup +. measure);
  sys.Model.live <- false;
  Audit.check sys ~context:"end-of-run";
  {
    t_commits = Metrics.commits m;
    t_aborts = Metrics.aborts m;
    t_messages = Metrics.messages m;
    t_resp_p99 = Printf.sprintf "%h" (Metrics.response_quantile m 0.99);
    t_events = Simcore.Engine.events_processed engine;
    t_recoveries = Faults.recoveries sys.Model.faults;
    t_client_util = Printf.sprintf "%h" (mean_client_util sys);
  }

let think_cell ?arrival ~clients ~algo ~crash_rate ~warmup ~measure () =
  let cfg, params = think_setup ?arrival ~clients ~crash_rate () in
  run_think_sys (start_sys ~cfg ~algo ~params) ~warmup ~measure

let test_think_pins () =
  let diurnal =
    {
      Workload.Arrival.off with
      Workload.Arrival.diurnal_period = 10.0;
      diurnal_amp = 0.5;
    }
  in
  List.iter
    (fun (clients, arrival, algo, crash_rate, measure, want) ->
      let got =
        think_cell ?arrival ~clients ~algo ~crash_rate ~warmup:2.0 ~measure ()
      in
      let what =
        Printf.sprintf "%d clients %s crash_rate %g" clients
          (Algo.to_string algo) crash_rate
      in
      let check name f = Alcotest.(check int) (what ^ " " ^ name) (f want) (f got) in
      check "commits" (fun p -> p.t_commits);
      check "aborts" (fun p -> p.t_aborts);
      check "messages" (fun p -> p.t_messages);
      check "events" (fun p -> p.t_events);
      check "recoveries" (fun p -> p.t_recoveries);
      Alcotest.(check string) (what ^ " resp p99") want.t_resp_p99 got.t_resp_p99;
      Alcotest.(check string) (what ^ " client cpu util") want.t_client_util
        got.t_client_util;
      if crash_rate > 0.0 then
        Alcotest.(check bool) (what ^ " recovered a crashed client") true
          (got.t_recoveries > 0))
    [
      ( 2000, None, Algo.PS_AA, 0.0, 5.0,
        { t_commits = 95; t_aborts = 4; t_messages = 12320;
          t_resp_p99 = "0x1.30af0e78351d7p+1"; t_events = 205120;
          t_recoveries = 0;
          t_client_util = "0x1.745c7c9b5b463p-9" } );
      ( 2000, None, Algo.PS_OO, 0.0, 5.0,
        { t_commits = 95; t_aborts = 3; t_messages = 13809;
          t_resp_p99 = "0x1.13579348cf211p+1"; t_events = 218997;
          t_recoveries = 0;
          t_client_util = "0x1.8dbdb8723dc5bp-9" } );
      ( 2000, None, Algo.PS_AA, 0.005, 5.0,
        { t_commits = 92; t_aborts = 4; t_messages = 12032;
          t_resp_p99 = "0x1.0c8fca671cd17p+1"; t_events = 204264;
          t_recoveries = 3;
          t_client_util = "0x1.6cfef12822e8dp-9" } );
      ( 2000, None, Algo.PS_OO, 0.005, 5.0,
        { t_commits = 97; t_aborts = 3; t_messages = 13709;
          t_resp_p99 = "0x1.1806015c78e89p+1"; t_events = 220704;
          t_recoveries = 4;
          t_client_util = "0x1.8cfe04e054e91p-9" } );
      (* Think [0.05 * 250] = 12.5 s fits the window, so post-commit
         think timers fire too, under a diurnal arrival profile. *)
      ( 250, Some diurnal, Algo.PS_AA, 0.01, 12.0,
        { t_commits = 213; t_aborts = 17; t_messages = 34815;
          t_resp_p99 = "0x1.8a8c0eebf5d8p+1"; t_events = 474573;
          t_recoveries = 13;
          t_client_util = "0x1.a2acbf89f5323p-6" } );
      ( 250, Some diurnal, Algo.PS_OO, 0.01, 12.0,
        { t_commits = 221; t_aborts = 17; t_messages = 44886;
          t_resp_p99 = "0x1.6d65bfffd60fcp+1"; t_events = 564544;
          t_recoveries = 13;
          t_client_util = "0x1.f1aca57c9ec8ap-6" } );
    ]

(* Lazy per-client state is invisible.  In a 20k-client think cell
   (think 1000 s, 2 s + 5 s) only the first ~140 clients ever start a
   transaction; the rest
   keep the shared idle CPU, which nothing may charge, and empty caches
   that never built a table.  Set-up (model, installs and start timers;
   the workload parameters are built before) stays within a fixed
   number of live words per client. *)
let test_idle_population () =
  let clients = 20_000 in
  let cfg, params = think_setup ~clients ~crash_rate:0.0 () in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let sys = start_sys ~cfg ~algo:Algo.PS_AA ~params in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let per_client = float_of_int (after - before) /. float_of_int clients in
  Alcotest.(check bool)
    (Printf.sprintf "live words per client after start (%.1f) <= 48" per_client)
    true (per_client <= 48.0);
  let cs = sys.Model.clients in
  (* A client began a transaction iff it drew from its stream. *)
  let streams = Array.map Simcore.Rng.copy cs.Model.crng in
  let got = run_think_sys sys ~warmup:2.0 ~measure:5.0 in
  let began = ref 0 in
  Array.iteri
    (fun cid r ->
      if Simcore.Rng.bits64 (Simcore.Rng.copy r)
         <> Simcore.Rng.bits64 (Simcore.Rng.copy cs.Model.crng.(cid))
      then incr began)
    streams;
  Alcotest.(check int) "commits" 95 got.t_commits;
  Alcotest.(check int) "events" 223120 got.t_events;
  Alcotest.(check string) "client cpu util" "0x1.29e396e2af6b6p-12"
    got.t_client_util;
  let idle = cs.Model.idle_cpu in
  Alcotest.(check (float 0.0)) "idle cpu never busy" 0.0
    (Resources.Cpu.utilization idle);
  Alcotest.(check int) "idle cpu has no users" 0 (Resources.Cpu.active_users idle);
  let owners =
    Array.fold_left (fun acc cpu -> if cpu != idle then acc + 1 else acc) 0
      cs.Model.ccpu
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d CPU owners <= %d clients that began a transaction"
       owners !began)
    true
    (owners > 0 && owners <= !began)

(* A client CPU built on first use attaches the client's timeline track
   then: exactly the clients that own a CPU record busy spans on their
   CPU track (every first use is a charge, so each owner has one). *)
let test_lazy_cpu_timeline () =
  let clients = 250 in
  let cfg, params = think_setup ~clients ~crash_rate:0.0 () in
  let cfg = { cfg with Config.timeline = true; timeline_cap = 1 lsl 20 } in
  let sys = start_sys ~cfg ~algo:Algo.PS_AA ~params in
  ignore (run_think_sys sys ~warmup:2.0 ~measure:5.0);
  let tlx = Option.get sys.Model.timeline in
  let tl = Tl.timeline tlx in
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.Timeline.dropped tl);
  let track_client = Hashtbl.create 256 in
  Array.iteri
    (fun cid trk -> Hashtbl.replace track_client trk cid)
    (Tl.trk_client_cpus tlx);
  let busy = Array.make clients false in
  Telemetry.Timeline.iter tl (fun ~kind ~track ~name:_ ~arg:_ ~t0:_ ~t1:_ ->
      match (kind, Hashtbl.find_opt track_client track) with
      | Telemetry.Timeline.Begin, Some cid -> busy.(cid) <- true
      | _ -> ());
  let cs = sys.Model.clients in
  let owners = ref 0 in
  Array.iteri
    (fun cid cpu ->
      let owns = cpu != cs.Model.idle_cpu in
      if owns then incr owners;
      Alcotest.(check bool)
        (Printf.sprintf "client %d: busy spans iff it owns a CPU" cid)
        owns busy.(cid))
    cs.Model.ccpu;
  Alcotest.(check bool) "some clients own a CPU" true (!owners > 0)

let suite =
  [
    Alcotest.test_case "all protocols live" `Slow test_all_protocols_live;
    Alcotest.test_case "all workloads live" `Slow test_all_workloads_live;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "read-only equivalence" `Slow test_read_only_equivalence;
    Alcotest.test_case "PRIVATE: no contention" `Slow test_no_contention_private;
    Alcotest.test_case "false sharing favours fine grain" `Slow
      test_ps_aa_beats_ps_under_false_sharing;
    Alcotest.test_case "OS is message-heavy" `Slow test_os_message_heavy;
    Alcotest.test_case "only PS-AA de-escalates" `Slow
      test_deescalations_only_under_ps_aa;
    Alcotest.test_case "HICON contention" `Slow test_hicon_contention;
    Alcotest.test_case "utilizations bounded" `Slow test_utilizations_bounded;
    Alcotest.test_case "scaled configuration runs" `Slow test_scaled_config_runs;
    Alcotest.test_case "think-time cells pinned" `Slow test_think_pins;
    Alcotest.test_case "idle clients hold no CPU or cache" `Slow
      test_idle_population;
    Alcotest.test_case "lazily built client CPUs record busy spans" `Slow
      test_lazy_cpu_timeline;
  ]
