(* Fault-injection subsystem tests.

   Six layers of assurance:
   - unit behaviour of the [Faults] profiles and streams (off draws
     nothing, storms are deterministic in the seed);
   - the golden byte-identity property: with every fault knob off, a
     reference fig3 cell reproduces the pre-fault-layer output exactly,
     field for field at full float precision;
   - crash-storm fuzzing: under aggressive crash/loss/stall storms every
     protocol keeps committing and the always-on [Audit] (which runs
     after every injected fault) never fires;
   - direct crash orchestration: [Crash.crash_client] reclaims all
     server-side state for the site, and the auditor actually detects
     deliberately corrupted states (the checks are not vacuous);
   - the audit's coverage journal: it agrees with the full sweep under
     storms, and each of its sources catches its own corruption;
   - the scoped invariants 4-6 catch their corruptions without scanning
     the population, and the full audit catches index drift. *)

open Oodb_core
open Storage

(* --- Faults unit behaviour ----------------------------------------------- *)

let test_profiles () =
  Alcotest.(check bool) "off is off" true (Faults.is_off Faults.off);
  Alcotest.(check bool) "zero-rate storm is off" true
    (Faults.is_off (Faults.storm ~rate:0.0));
  Alcotest.(check bool) "storm is on" false
    (Faults.is_off (Faults.storm ~rate:0.01));
  Faults.validate (Faults.storm ~rate:0.1);
  let rejects p what =
    Alcotest.(check bool) what true
      (try
         Faults.validate p;
         false
       with Invalid_argument _ -> true)
  in
  rejects
    { Faults.off with Faults.crash_rate = -1.0 }
    "negative crash rate rejected";
  rejects
    { Faults.off with Faults.msg_loss_prob = 1.0 }
    "certain message loss rejected";
  rejects
    { Faults.off with Faults.retrans_backoff = 0.5 }
    "shrinking backoff rejected"

let test_off_draws_nothing () =
  let f = Faults.create ~profile:Faults.off ~seed:3 in
  Alcotest.(check bool) "off instance disabled" false (Faults.enabled f);
  for _ = 1 to 200 do
    if Faults.draw_msg_loss f || Faults.draw_msg_dup f || Faults.draw_disk_stall f
    then Alcotest.fail "off profile injected a fault"
  done;
  Alcotest.(check int) "no faults counted" 0 (Faults.injected f)

let test_storm_deterministic () =
  let draws seed =
    let f = Faults.create ~profile:(Faults.storm ~rate:0.3) ~seed in
    let ds =
      List.init 300 (fun _ ->
          ( Faults.draw_msg_loss f,
            Faults.draw_msg_dup f,
            Faults.draw_disk_stall f ))
    in
    (ds, Faults.injected f)
  in
  Alcotest.(check bool) "same seed, same fault schedule" true
    (draws 9 = draws 9);
  Alcotest.(check bool) "different seed, different schedule" true
    (draws 9 <> draws 10);
  Alcotest.(check bool) "storm actually injects" true (snd (draws 9) > 0)

let test_crash_delays_deterministic () =
  let delays seed =
    let f = Faults.create ~profile:(Faults.storm ~rate:0.5) ~seed in
    List.init 50 (fun _ -> Faults.next_crash_delay f)
  in
  Alcotest.(check bool) "reproducible inter-crash times" true
    (delays 4 = delays 4);
  List.iter
    (fun d ->
      if d <= 0.0 then Alcotest.fail "non-positive inter-crash delay")
    (delays 4)

(* --- Golden byte-identity with faults off -------------------------------- *)

(* Captured at this exact configuration (fig3 spec restricted to
   wp=0.1, time_scale 0.1, sequential).  Every float is printed at full
   precision: any drift — an extra RNG draw, a reordered event, a
   perturbed metric — shows up here.

   Regenerated when the copy-in-transit race was closed (the server now
   re-checks the page write lock before registering and shipping a
   fetched copy): the PS and PS-AA rows shifted because page-grain
   writers in this cell had been racing fetches; OS, PS-OO and PS-OA
   are byte-identical to the pre-fix capture. *)
let golden_fig3_point =
  "PS|9.75|1.3103009006014497|0.76933195413913524|4|117|8|8|6748|57.675213675213676|94.623931623931625|929|0.46814572330791226|0.17900728535754609|0.76713760644133222|0.094510933333330369|43|0.26475277650992679|36|0|0|1169|0|0|0|0\n\
   OS|6.666666666666667|1.7405722133476869|1.0855214857122097|3|80|1|1|16019|200.23750000000001|69.562890624999994|686|0.95078118072810625|0.24342390421695598|0.56777900794747116|0.047501899999994761|9|0.4599150933235378|7|0|0|0|874|0|0|0\n\
   PS-OO|11.333333333333334|0.95990206930704547|0.43929284268381674|5|136|1|1|9155|67.316176470588232|94.946691176470594|1048|0.61706073277284756|0.22515346424287536|0.87501662049220019|0.11021808149693457|15|0.2738549596729723|11|58|0|0|1652|0|0|0\n\
   PS-OA|12.666666666666666|0.87661233463733779|0.3744948986183555|6|152|0|0|9009|59.26973684210526|89.370065789473685|1062|0.61390277777754232|0.23307217549018344|0.89050642795850599|0.11588876259058682|14|0.19289623704346953|5|44|0|0|1714|0|0|0\n\
   PS-AA|11.583333333333334|0.8764852129696501|0.37620849856466981|5|139|1|1|8466|60.906474820143885|95.370503597122308|1081|0.58151541666645279|0.22004940457101846|0.9093096892565421|0.11312213333333947|13|0.40266025414688056|12|48|47|1410|67|0|0|0\n"

let render_series (series : Experiments.series) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (p : Experiments.point) ->
      List.iter
        (fun (a, (r : Runner.result)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "%s|%.17g|%.17g|%.17g|%d|%d|%d|%d|%d|%.17g|%.17g|%d|%.17g|%.17g|%.17g|%.17g|%d|%.17g|%d|%d|%d|%d|%d|%d|%d|%d\n"
               (Algo.to_string a) r.Runner.throughput r.Runner.resp_mean
               r.Runner.resp_ci90 r.Runner.resp_batches r.Runner.commits
               r.Runner.aborts r.Runner.deadlocks r.Runner.messages
               r.Runner.msgs_per_commit r.Runner.kbytes_per_commit
               r.Runner.disk_ios r.Runner.server_cpu_util
               r.Runner.client_cpu_util r.Runner.disk_util r.Runner.net_util
               r.Runner.lock_waits r.Runner.avg_lock_wait
               r.Runner.callback_blocks r.Runner.merges r.Runner.deescalations
               r.Runner.page_write_grants r.Runner.object_write_grants
               r.Runner.overflows r.Runner.token_waits r.Runner.token_bounces))
        p.Experiments.results)
    series.Experiments.points;
  Buffer.contents buf

let test_fault_free_byte_identity () =
  let series = Grid.run ~jobs:1 (Grid.fig3_point ()) in
  Alcotest.(check string)
    "fault knobs off: fig3 reference point is byte-identical to pre-PR"
    golden_fig3_point (render_series series)

(* The serializability oracle is pure observation: it draws nothing
   from the random streams and schedules nothing, so attaching it must
   leave every figure byte-identical. *)
let test_oracle_on_byte_identity () =
  let series =
    Grid.run ~oracle:true ~jobs:1 (Grid.fig3_point ())
  in
  Alcotest.(check string)
    "oracle on: fig3 reference point is byte-identical to oracle off"
    golden_fig3_point (render_series series)

(* A storm at rate zero is indistinguishable from no fault layer at all:
   no stream consulted, no event scheduled.  The job key ignores the
   configuration, so both jobs use the same seed. *)
let test_zero_rate_storm_identity () =
  let spec = Grid.fig3_point () in
  let cfg = Experiments.cfg_of spec in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  let mk cfg =
    Job.make ~sweep:"fault-ident" ~label:"wp=0.10" ~cfg ~algo:Algo.PS_AA
      ~params ~warmup:3.0 ~measure:12.0 ()
  in
  let plain = Job.run (mk cfg) in
  let zero =
    Job.run (mk { cfg with Config.faults = Faults.storm ~rate:0.0 })
  in
  Alcotest.(check bool) "storm rate 0.0 == faults off, byte for byte" true
    (plain = zero)

(* --- Crash-storm fuzz ----------------------------------------------------- *)

(* Aggressive storms over the fig3 workload: clients crash mid-protocol,
   messages drop and duplicate, disks stall.  The audit hook re-verifies
   every invariant after each injected fault; any violation raises
   [Audit.Violation] and fails the test.  The [max_events] budget turns
   a livelock (e.g. a retransmission that never converges) into a loud
   failure instead of a hang. *)
let storm_run ~algo ~seed ~rate =
  let cfg = { Config.default with Config.faults = Faults.storm ~rate } in
  let spec = Option.get (Experiments.find "fig3") in
  let params = Experiments.params_of spec ~write_prob:0.2 in
  Runner.run ~seed ~max_events:3_000_000 ~warmup:5.0 ~measure:30.0 ~cfg ~algo
    ~params ()

let fuzz_storm algo () =
  let injected = ref 0 and crashes = ref 0 in
  List.iter
    (fun (seed, rate) ->
      let r = storm_run ~algo ~seed ~rate in
      injected := !injected + r.Runner.faults_injected;
      crashes := !crashes + r.Runner.crashes;
      Alcotest.(check bool)
        (Printf.sprintf "commits under storm %.2f (seed %d)" rate seed)
        true
        (r.Runner.commits > 0))
    [ (1, 0.02); (2, 0.05) ];
  (* The storm must actually exercise the fault paths, or the audit
     proves nothing. *)
  Alcotest.(check bool) "storm injected faults" true (!injected > 0);
  Alcotest.(check bool) "storm crashed clients" true (!crashes > 0)

(* --- Crash orchestration and audit sensitivity ---------------------------- *)

let mk_running_sys ~algo ~seed =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg = Experiments.cfg_of spec in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  let sys = Model.create ~cfg ~algo ~params ~seed in
  Audit.install sys;
  Client.start sys;
  sys

let test_crash_reclaims_state () =
  let sys = mk_running_sys ~algo:Algo.PS_AA ~seed:5 in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  Crash.crash_client sys 0;
  let cs = sys.Model.clients in
  Alcotest.(check bool) "client down" false cs.Model.up.(0);
  Alcotest.(check bool)
    "no running transaction" true
    (cs.Model.running.(0) = None);
  Alcotest.(check int) "page cache dropped" 0 (Lru.size cs.Model.cache.(0));
  Alcotest.(check int) "object cache dropped" 0 (Lru.size cs.Model.ocache.(0));
  Alcotest.(check int) "page copies purged" 0
    (Locking.Copy_table.client_copies sys.Model.servers.(0).pcopies ~client:0);
  Alcotest.(check int) "object copies purged" 0
    (Locking.Copy_table.client_copies sys.Model.servers.(0).ocopies ~client:0);
  Audit.check sys ~context:"unit-crash";
  (* The rest of the population keeps running while the site is down. *)
  Simcore.Engine.run_until sys.Model.engine 15.0;
  Audit.check sys ~context:"unit-down-window";
  Crash.restart_client sys 0;
  Simcore.Engine.run_until sys.Model.engine 60.0;
  sys.Model.live <- false;
  (* [crashed_at] is cleared at the first commit of the restarted
     incarnation, so this asserts the client actually recovered. *)
  Alcotest.(check bool) "restarted client committed again" true
    (cs.Model.crashed_at.(0) = None);
  Alcotest.(check bool) "recovery latency recorded" true
    (Faults.recoveries sys.Model.faults >= 1)

let contains msg sub =
  let n = String.length msg and k = String.length sub in
  let rec go i = i + k <= n && (String.sub msg i k = sub || go (i + 1)) in
  go 0

(* The auditor must reject corrupted states, otherwise the storm tests
   are vacuous.  [mentions] pins the invariant that must fire. *)
let expect_violation ?coverage_of ?mentions sys what corrupt restore =
  corrupt ();
  (match Audit.check sys ~context:"negative-test" ?coverage_of with
  | () -> Alcotest.fail ("audit accepted " ^ what)
  | exception Audit.Violation msg -> (
    match mentions with
    | Some sub when not (contains msg sub) ->
      Alcotest.failf "audit rejected %s, but not for %S:\n%s" what sub msg
    | Some _ | None -> ()));
  restore ()

let test_audit_detects_corruption () =
  let sys = mk_running_sys ~algo:Algo.PS_AA ~seed:6 in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  sys.Model.live <- false;
  let cs = sys.Model.clients in
  Alcotest.(check bool)
    "client has cached pages" true
    (Lru.size cs.Model.cache.(0) > 0);
  expect_violation sys "a down client with live state"
    (fun () -> cs.Model.up.(0) <- false)
    (fun () -> cs.Model.up.(0) <- true);
  Audit.check sys ~context:"pre-corruption state was clean (up flag restored)"
    ~coverage_of:1;
  (* Unregistering a live client's copies breaks callback coverage. *)
  expect_violation sys "a cached page with no copy registration"
    (fun () ->
      ignore
        (Locking.Copy_table.purge_client sys.Model.servers.(0).pcopies ~client:0
          : int))
    (fun () -> ());
  (* The boundary scope names client 1, but the journal check covers
     every client, and a failed audit keeps its journal. *)
  expect_violation sys ~coverage_of:1 "the purge at client 0 under scope 1"
    (fun () -> ())
    (fun () -> ())

(* --- Coverage journal ----------------------------------------------------- *)

(* Soundness against the full sweep: under a storm, at every point where
   a transaction ended or a fault struck, the journal check (which has
   already run there inside the simulation) and then the sweep must
   both pass. *)
let journal_vs_sweep algo () =
  List.iter
    (fun servers ->
      let cfg =
        {
          Config.default with
          Config.servers;
          client_buf_frac = 0.05;
          faults =
            { (Faults.storm ~rate:0.05) with Faults.srv_crash_rate = 0.25 };
        }
      in
      let params =
        Workload.Presets.make Workload.Presets.Hotcold
          ~db_pages:cfg.Config.db_pages
          ~objects_per_page:cfg.Config.objects_per_page
          ~num_clients:cfg.Config.num_clients ~locality:Workload.Presets.Low
          ~write_prob:0.2
      in
      let sys = Model.create ~cfg ~algo ~params ~seed:11 in
      Netlayer.install_edge_exchange sys;
      Audit.install sys;
      Client.start sys;
      Crash.install sys;
      let engine = sys.Model.engine and m = sys.Model.metrics in
      let last = ref (0, 0) in
      while
        Simcore.Engine.now engine < 12.0
        && Simcore.Engine.step ~max_events:2_000_000 engine
      do
        let seen =
          ( Metrics.commits m + Metrics.aborts m,
            Faults.injected sys.Model.faults )
        in
        if seen <> !last then begin
          last := seen;
          Audit.check sys ~context:"journal" ~coverage_of:0;
          Audit.check sys ~context:"sweep"
        end
      done;
      sys.Model.live <- false;
      Alcotest.(check bool)
        (Printf.sprintf "faults struck (%d servers)" servers)
        true
        (Faults.injected sys.Model.faults > 0);
      Alcotest.(check bool)
        (Printf.sprintf "a server reopened (%d servers)" servers)
        true
        (Faults.srv_recoveries sys.Model.faults > 0);
      Alcotest.(check bool)
        (Printf.sprintf "transactions ended (%d servers)" servers)
        true
        (Metrics.commits m > 0))
    [ 1; 2 ]

(* A cached page of client [cid] that is fully registered. *)
let registered_page sys cid =
  let cs = sys.Model.clients in
  Lru.fold cs.Model.cache.(cid) ~init:None ~f:(fun acc p _ ->
      match acc with
      | Some _ -> acc
      | None ->
        if
          Locking.Copy_table.holds (Model.server_of sys p).Model.pcopies p
            ~client:cid
        then Some p
        else None)
  |> Option.get

(* Source 1: a registration dropping to zero.  The page belongs to
   client 0, a bystander to the boundary scope (client 1). *)
let test_journal_catches_unregister () =
  let sys = mk_running_sys ~algo:Algo.PS_AA ~seed:6 in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  sys.Model.live <- false;
  Audit.check sys ~context:"clean" ~coverage_of:1;
  let p = registered_page sys 0 in
  let table = (Model.server_of sys p).Model.pcopies in
  expect_violation sys ~coverage_of:1 "a bystander's unregistered page"
    (fun () ->
      while Locking.Copy_table.holds table p ~client:0 do
        Locking.Copy_table.unregister table p ~client:0
      done)
    (fun () -> ())

(* Source 2: a site's registrations purged wholesale. *)
let test_journal_catches_purge () =
  let sys = mk_running_sys ~algo:Algo.OS ~seed:6 in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  sys.Model.live <- false;
  Audit.check sys ~context:"clean" ~coverage_of:1;
  Alcotest.(check bool)
    "client 0 caches objects" true
    (Lru.size sys.Model.clients.Model.ocache.(0) > 0);
  expect_violation sys ~coverage_of:1 "a bystander's purged registrations"
    (fun () ->
      ignore
        (Locking.Copy_table.purge_client sys.Model.servers.(0).ocopies
           ~client:0
          : int))
    (fun () -> ())

(* A two-client system whose clients have not started: tests install
   exactly the state they need. *)
let idle_sys ~algo =
  let cfg = { Config.default with Config.num_clients = 2 } in
  let params =
    Workload.Presets.make Workload.Presets.Uniform ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page ~num_clients:2
      ~locality:Workload.Presets.Low ~write_prob:0.0
  in
  Model.create ~cfg ~algo ~params ~seed:3

let mk_txn sys ~client =
  {
    Model.tid = Model.fresh_tid sys;
    client;
    epoch = sys.Model.clients.Model.epoch.(client);
    ops = [||];
    started = 0.0;
    first_started = 0.0;
    restarts = 0;
    read_pages = Ids.Page_set.empty;
    read_objs = Ids.Oid_set.empty;
    wpages = Ids.Page_set.empty;
    wobjs = Ids.Oid_set.empty;
    updated = Ids.Oid_set.empty;
    doomed = false;
    rpc_sid = -1;
  }

(* Source 3: a PS-OO page refresh makes a slot available again, and the
   shipment that carried it registered every slot but that one.  No
   registration dropped to zero, so only the install journal sees it. *)
let test_journal_catches_install () =
  let sys = idle_sys ~algo:Algo.PS_OO in
  let txn = mk_txn sys ~client:0 in
  let p = 5 and gap = 3 in
  let ship ~except =
    Locking.Copy_table.register ~skip:(Ids.Int_set.singleton except)
      sys.Model.servers.(0).pcopies p ~client:0
  in
  ship ~except:gap;
  ignore
    (Cache_ops.install_page sys 0 txn p ~unavailable:(Ids.Int_set.singleton gap)
       ~version:0);
  Audit.check sys ~context:"clean" ~coverage_of:1;
  expect_violation sys ~coverage_of:1 ~mentions:"available object 5.3"
    "an available slot with no registration"
    (fun () ->
      ship ~except:gap;
      ignore
        (Cache_ops.install_page sys 0 txn p ~unavailable:Ids.Int_set.empty
           ~version:1))
    (fun () -> ())

(* --- Scoped audits: invariants 4-6 walk indexes ---------------------------- *)

(* Boundary audits find down clients through [down_clients] and running
   transactions through [by_tid].  Each state below is reached through
   the same calls the simulator makes, and a scoped audit must reject
   it. *)

(* Invariant 4: a page shipped to a site after it crashed. *)
let test_scoped_catches_crashed_client () =
  let sys = mk_running_sys ~algo:Algo.PS_AA ~seed:6 in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  sys.Model.live <- false;
  Crash.crash_client sys 0;
  Audit.check sys ~context:"clean" ~coverage_of:1;
  expect_violation sys ~coverage_of:1 ~mentions:"crashed client 0 retains"
    "a crashed client with a cached page"
    (fun () ->
      ignore
        (Cache_ops.install_page sys 0 (mk_txn sys ~client:0) 5
           ~unavailable:Ids.Int_set.empty ~version:0))
    (fun () -> ())

(* Invariant 5: a 2-cycle whose edges were added without running
   deadlock detection. *)
let test_scoped_catches_cycle () =
  let sys = idle_sys ~algo:Algo.PS in
  let a = mk_txn sys ~client:0 and b = mk_txn sys ~client:1 in
  Model.set_running sys 0 a;
  Model.set_running sys 1 b;
  let wfg = sys.Model.servers.(0).Model.wfg in
  Audit.check sys ~context:"clean" ~coverage_of:0;
  expect_violation sys ~coverage_of:0 ~mentions:"waits-for cycle"
    "an unbroken waits-for cycle"
    (fun () ->
      Locking.Waits_for.set_wait wfg a.Model.tid ~blockers:[ b.Model.tid ]
        ~cancel:(fun () -> ());
      Locking.Waits_for.set_wait wfg b.Model.tid ~blockers:[ a.Model.tid ]
        ~cancel:(fun () -> ()))
    (fun () -> ())

(* Invariant 6: two running transactions updating the same object. *)
let test_scoped_catches_shared_update () =
  let sys = idle_sys ~algo:Algo.PS in
  let a = mk_txn sys ~client:0 and b = mk_txn sys ~client:1 in
  Model.set_running sys 0 a;
  Model.set_running sys 1 b;
  let update (t : Model.txn) o =
    t.Model.updated <- Ids.Oid_set.add o t.Model.updated;
    Model.note_updater sys t o
  in
  update a (Ids.Oid.make ~page:3 ~slot:1);
  update b (Ids.Oid.make ~page:3 ~slot:2);
  Audit.check sys ~context:"clean" ~coverage_of:0;
  expect_violation sys ~coverage_of:0 ~mentions:"updated by both"
    "an object in two running update sets"
    (fun () -> update b (Ids.Oid.make ~page:3 ~slot:1))
    (fun () -> ())

(* Index drift: a running transaction missing from [by_tid] is invisible
   to the scoped invariant 6, so the full audit must catch the drift. *)
let test_full_audit_catches_index_drift () =
  let sys = idle_sys ~algo:Algo.PS in
  let a = mk_txn sys ~client:0 in
  Model.set_running sys 0 a;
  Audit.check sys ~context:"clean";
  expect_violation sys ~mentions:"tid index" "a running txn missing from by_tid"
    (fun () -> Hashtbl.remove sys.Model.by_tid a.Model.tid)
    (fun () -> ())

(* A client-crash cell must drain once the run ends: every crash driver
   checks [live] before it re-arms, and every client loop checks it
   before its next transaction, so with [live] off the queue empties
   instead of ticking on forever.  The event budget turns a driver that
   re-arms regardless into a failure rather than a hang. *)
let test_crash_cell_drains algo () =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    {
      (Experiments.cfg_of spec) with
      Config.faults = { Faults.off with Faults.crash_rate = 0.05 };
    }
  in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  let sys = Model.create ~cfg ~algo ~params ~seed:42 in
  Audit.install sys;
  Client.start sys;
  Crash.install sys;
  let engine = sys.Model.engine in
  Simcore.Engine.run_until engine 30.0;
  Alcotest.(check bool) "clients crashed" true
    (Faults.injected sys.Model.faults > 0);
  sys.Model.live <- false;
  Simcore.Engine.run
    ~max_events:(Simcore.Engine.events_processed engine + 100_000)
    engine;
  Alcotest.(check int) "no event left" 0 (Simcore.Engine.pending engine)

let suite =
  [
    Alcotest.test_case "profiles and validation" `Quick test_profiles;
    Alcotest.test_case "off profile draws nothing" `Quick
      test_off_draws_nothing;
    Alcotest.test_case "storm schedule deterministic" `Quick
      test_storm_deterministic;
    Alcotest.test_case "crash delays deterministic" `Quick
      test_crash_delays_deterministic;
    Alcotest.test_case "fault-free golden byte-identity" `Slow
      test_fault_free_byte_identity;
    Alcotest.test_case "oracle-on golden byte-identity" `Slow
      test_oracle_on_byte_identity;
    Alcotest.test_case "zero-rate storm identity" `Slow
      test_zero_rate_storm_identity;
  ]
  @ List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "crash storm, audited (%s)" (Algo.to_string algo))
          `Slow (fuzz_storm algo))
      Algo.all
  @ [
      Alcotest.test_case "crash reclaims server state" `Quick
        test_crash_reclaims_state;
      Alcotest.test_case "audit detects corruption" `Quick
        test_audit_detects_corruption;
      Alcotest.test_case "journal catches unregister" `Quick
        test_journal_catches_unregister;
      Alcotest.test_case "journal catches purge" `Quick
        test_journal_catches_purge;
      Alcotest.test_case "journal catches install" `Quick
        test_journal_catches_install;
      Alcotest.test_case "scoped audit catches crashed-client state" `Quick
        test_scoped_catches_crashed_client;
      Alcotest.test_case "scoped audit catches waits-for cycle" `Quick
        test_scoped_catches_cycle;
      Alcotest.test_case "scoped audit catches shared update" `Quick
        test_scoped_catches_shared_update;
      Alcotest.test_case "full audit catches index drift" `Quick
        test_full_audit_catches_index_drift;
    ]
  @ List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "journal vs sweep, storm (%s)"
             (Algo.to_string algo))
          `Quick (journal_vs_sweep algo))
      Algo.all
  @ List.map
      (fun algo ->
        Alcotest.test_case
          (Printf.sprintf "client-crash cell drains (%s)" (Algo.to_string algo))
          `Quick (test_crash_cell_drains algo))
      Algo.all
