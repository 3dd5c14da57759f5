(* Fault-injection subsystem tests.

   Four layers of assurance:
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
     deliberately corrupted states (the checks are not vacuous). *)

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

(* The auditor must reject corrupted states, otherwise the storm tests
   are vacuous. *)
let test_audit_detects_corruption () =
  let sys = mk_running_sys ~algo:Algo.PS_AA ~seed:6 in
  Simcore.Engine.run_until sys.Model.engine 10.0;
  sys.Model.live <- false;
  let expect_violation what corrupt restore =
    corrupt ();
    (match Audit.check sys ~context:"negative-test" with
    | () -> Alcotest.fail ("audit accepted " ^ what)
    | exception Audit.Violation _ -> ());
    restore ()
  in
  let cs = sys.Model.clients in
  Alcotest.(check bool)
    "client has cached pages" true
    (Lru.size cs.Model.cache.(0) > 0);
  expect_violation "a down client with live state"
    (fun () -> cs.Model.up.(0) <- false)
    (fun () -> cs.Model.up.(0) <- true);
  (* Unregistering a live client's copies breaks callback coverage. *)
  expect_violation "a cached page with no copy registration"
    (fun () ->
      ignore
        (Locking.Copy_table.purge_client sys.Model.servers.(0).pcopies ~client:0
          : int))
    (fun () -> ());
  Audit.check sys ~context:"pre-corruption state was clean (up flag restored)"
    ~coverage_of:1

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
    ]
