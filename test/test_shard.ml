(* The partitioned-server topology: distributed deadlock detection over
   linked per-server waits-for graphs, cross-partition cancel/purge,
   edge-exchange accounting, and end-to-end conformance of sharded runs
   (oracle + audit, with and without fault storms).  servers=1 identity
   against the singleton topology is covered here too; the byte-level
   goldens in Test_faults/Test_telemetry pin it against the seed. *)

open Oodb_core

(* --- Distributed deadlock detection (unit) -------------------------------- *)

(* A two-transaction cycle split across two partitions: txn 1 waits at
   server 0 for txn 2, which waits at server 1 for txn 1.  Neither
   graph alone contains a cycle — each holds a single edge — so only
   the union traversal can find it. *)
let test_cross_server_cycle () =
  let open Locking.Waits_for in
  (* Unlinked control: the same two edges in two solo graphs are
     invisible to per-graph detection. *)
  let s0 = create () and s1 = create () in
  List.iter
    (fun g ->
      begin_txn g 1 ~start:1.0;
      begin_txn g 2 ~start:2.0)
    [ s0; s1 ];
  set_wait s0 1 ~blockers:[ 2 ] ~cancel:(fun () -> ());
  set_wait s1 2 ~blockers:[ 1 ] ~cancel:(fun () -> ());
  Alcotest.(check int) "solo graph 0 sees no cycle" 0
    (check_deadlock s0 ~from:1);
  Alcotest.(check int) "solo graph 1 sees no cycle" 0
    (check_deadlock s1 ~from:2);
  Alcotest.(check bool) "solo any_cycle blind to the split cycle" true
    (any_cycle s0 = None && any_cycle s1 = None);
  (* Linked cluster: the same state, now detected and broken. *)
  let g0 = create () and g1 = create () in
  link [| g0; g1 |];
  List.iter
    (fun g ->
      begin_txn g 1 ~start:1.0;
      begin_txn g 2 ~start:2.0)
    [ g0; g1 ];
  let cancelled = ref [] in
  set_wait g0 1 ~blockers:[ 2 ] ~cancel:(fun () -> cancelled := 1 :: !cancelled);
  Alcotest.(check int) "half a cycle is not a deadlock" 0
    (check_deadlock g0 ~from:1);
  set_wait g1 2 ~blockers:[ 1 ] ~cancel:(fun () -> cancelled := 2 :: !cancelled);
  Alcotest.(check int) "closing edge detected across partitions" 1
    (check_deadlock g1 ~from:2);
  (* Youngest (txn 2, started later) loses; its wait was at g1, so the
     victim is attributed to that partition. *)
  Alcotest.(check (list int)) "youngest transaction cancelled" [ 2 ] !cancelled;
  Alcotest.(check int) "victim counted at its partition" 1 (deadlocks g1);
  Alcotest.(check int) "no victim charged to the other partition" 0
    (deadlocks g0);
  Alcotest.(check bool) "survivor still waiting" true (is_waiting g0 1);
  Alcotest.(check bool) "victim's wait gone cluster-wide" false
    (is_waiting g0 2)

(* A cycle confined to one partition behaves exactly as in the solo
   topology, link or no link. *)
let test_single_server_cycle_unchanged () =
  let open Locking.Waits_for in
  let run mk =
    let g, detect_on, members = mk () in
    (* Start times are replicated to every member, as Client does. *)
    List.iter
      (fun m ->
        begin_txn m 1 ~start:1.0;
        begin_txn m 2 ~start:2.0)
      members;
    let cancelled = ref [] in
    set_wait g 1 ~blockers:[ 2 ] ~cancel:(fun () ->
        cancelled := 1 :: !cancelled);
    set_wait g 2 ~blockers:[ 1 ] ~cancel:(fun () ->
        cancelled := 2 :: !cancelled);
    let victims = check_deadlock detect_on ~from:2 in
    (victims, !cancelled)
  in
  let solo = run (fun () -> let g = create () in (g, g, [ g ])) in
  let linked =
    run (fun () ->
        let g0 = create () and g1 = create () in
        link [| g0; g1 |];
        (* Both waits land in g0; detection may run from either member. *)
        (g0, g1, [ g0; g1 ]))
  in
  Alcotest.(check bool) "linked cluster = solo graph on a local cycle" true
    (solo = linked);
  Alcotest.(check (pair int (list int))) "one victim, the youngest"
    (1, [ 2 ]) solo

let test_cancel_and_clear_across_partitions () =
  let open Locking.Waits_for in
  let g0 = create () and g1 = create () in
  link [| g0; g1 |];
  List.iter
    (fun g ->
      begin_txn g 1 ~start:1.0;
      begin_txn g 2 ~start:2.0)
    [ g0; g1 ];
  let cancelled = ref false in
  set_wait g1 1 ~blockers:[ 2 ] ~cancel:(fun () -> cancelled := true);
  (* Crash recovery cancels through whatever member it holds — here g0,
     while the wait is registered at g1. *)
  Alcotest.(check bool) "wait visible through the peer" true (is_waiting g0 1);
  cancel_wait g0 1;
  Alcotest.(check bool) "cancel thunk ran" true !cancelled;
  Alcotest.(check bool) "wait gone from the owning partition" false
    (is_waiting g1 1);
  Alcotest.(check int) "owning graph empty" 0 (waiting_count g1);
  (* clear_wait (grant path) also resolves through the union, without
     invoking the cancel thunk. *)
  let cancelled2 = ref false in
  set_wait g1 2 ~blockers:[ 1 ] ~cancel:(fun () -> cancelled2 := true);
  clear_wait g0 2;
  Alcotest.(check bool) "grant does not run the cancel thunk" false !cancelled2;
  Alcotest.(check bool) "granted wait gone" false (is_waiting g1 2)

(* The edge-exchange hook fires once per edge actually gained by the
   hooked graph: on set_wait, on a novel add_blocker, never on a
   duplicate, and never for edges landing on a peer. *)
let test_edge_exchange_hook () =
  let open Locking.Waits_for in
  let g0 = create () and g1 = create () in
  link [| g0; g1 |];
  List.iter
    (fun g ->
      begin_txn g 1 ~start:1.0;
      begin_txn g 2 ~start:2.0;
      begin_txn g 3 ~start:3.0)
    [ g0; g1 ];
  let fired = ref 0 in
  set_exchange_hook g1 (fun _ -> incr fired);
  set_wait g0 1 ~blockers:[ 2 ] ~cancel:(fun () -> ());
  Alcotest.(check int) "peer edge does not fire the hook" 0 !fired;
  set_wait g1 2 ~blockers:[ 3 ] ~cancel:(fun () -> ());
  Alcotest.(check int) "set_wait fires once" 1 !fired;
  (* add_blocker routes to the graph owning the wait, whichever member
     receives the call. *)
  add_blocker g0 2 1;
  Alcotest.(check int) "novel blocker fires once" 2 !fired;
  add_blocker g0 2 1;
  Alcotest.(check int) "duplicate blocker is silent" 2 !fired;
  add_blocker g0 1 3;
  Alcotest.(check int) "peer add_blocker still silent" 2 !fired

(* --- servers=1 identity ---------------------------------------------------- *)

let fig3_cell ~servers ~partition =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    { (Experiments.cfg_of spec) with Config.servers; partition }
  in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  Job.run
    (Job.make ~sweep:"shard-test" ~label:"cell" ~cfg ~algo:Algo.PS_AA ~params
       ~warmup:4.0 ~measure:12.0 ())

(* At one server every page maps to partition 0 under either policy, so
   the placement knob must be invisible — same event schedule, same
   result record. *)
let test_servers1_hash_eq_range () =
  let hash = fig3_cell ~servers:1 ~partition:Config.Hash in
  let range = fig3_cell ~servers:1 ~partition:Config.Range in
  Alcotest.(check bool) "servers=1: hash == range, field for field" true
    (hash = range)

(* --- Parallel-harness identity at servers>1 ------------------------------- *)

let test_sharded_jobs_identity () =
  let spec = Grid.fig3_point () in
  let seq = Grid.run ~servers:3 ~jobs:1 spec in
  let par = Grid.run ~servers:3 ~jobs:4 spec in
  Alcotest.(check bool)
    "servers=3: --jobs 1 and --jobs 4 give identical results" true
    (Grid.results seq = Grid.results par)

(* --- Sharded conformance --------------------------------------------------- *)

(* The full correctness net over a partitioned server: serializability
   oracle on, audit re-checked after every injected fault, crash/loss/
   dup/stall storms raging.  Any invariant breach or non-serializable
   history raises and fails the test. *)
let storm_run ~algo ~servers ~partition ~seed ~rate =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    {
      (Experiments.cfg_of spec) with
      Config.servers;
      partition;
      oracle = true;
      faults = Faults.storm ~rate;
    }
  in
  let params = Experiments.params_of spec ~write_prob:0.2 in
  Runner.run ~seed ~max_events:3_000_000 ~warmup:5.0 ~measure:30.0 ~cfg ~algo
    ~params ()

let conformance algo () =
  let forwards = ref 0 and exchanges = ref 0 and injected = ref 0 in
  List.iter
    (fun (servers, partition, seed, rate) ->
      let r = storm_run ~algo ~servers ~partition ~seed ~rate in
      forwards := !forwards + r.Runner.cb_forwards;
      exchanges := !exchanges + r.Runner.edge_exchanges;
      injected := !injected + r.Runner.faults_injected;
      Alcotest.(check bool)
        (Printf.sprintf "commits at servers=%d rate=%.2f (seed %d)" servers
           rate seed)
        true
        (r.Runner.commits > 0);
      Alcotest.(check int)
        (Printf.sprintf "result reports %d servers" servers)
        servers r.Runner.n_servers)
    [
      (2, Config.Hash, 11, 0.0);
      (2, Config.Hash, 12, 0.02);
      (3, Config.Range, 13, 0.02);
      (4, Config.Hash, 14, 0.05);
    ];
  (* The sweep must actually exercise the cross-server paths, or the
     oracle and audit prove nothing about them. *)
  Alcotest.(check bool) "callbacks crossed partitions" true (!forwards > 0);
  Alcotest.(check bool) "edge exchanges reached the coordinator" true
    (!exchanges > 0);
  Alcotest.(check bool) "storms injected faults" true (!injected > 0)

(* End-to-end: a contended sharded run detects and breaks deadlocks
   while the audit holds every graph acyclic between events — detection
   over the union is keeping pace with cross-partition waits. *)
let test_sharded_deadlocks_broken () =
  let spec = Option.get (Experiments.find "fig8") in
  (* HICON: 90% of accesses hit one shared hot page *)
  let cfg =
    { (Experiments.cfg_of spec) with Config.servers = 2; oracle = true }
  in
  let params = Experiments.params_of spec ~write_prob:0.5 in
  let r =
    Runner.run ~seed:9 ~max_events:3_000_000 ~warmup:5.0 ~measure:40.0 ~cfg
      ~algo:Algo.PS_OO ~params ()
  in
  Alcotest.(check bool) "run makes progress" true (r.Runner.commits > 0);
  Alcotest.(check bool) "deadlocks detected and broken" true
    (r.Runner.deadlocks > 0)

let suite =
  [
    Alcotest.test_case "cross-server cycle found only by the union" `Quick
      test_cross_server_cycle;
    Alcotest.test_case "single-server cycle unchanged by linking" `Quick
      test_single_server_cycle_unchanged;
    Alcotest.test_case "cancel/clear resolve across partitions" `Quick
      test_cancel_and_clear_across_partitions;
    Alcotest.test_case "edge-exchange hook per novel edge" `Quick
      test_edge_exchange_hook;
    Alcotest.test_case "servers=1: hash == range" `Slow
      test_servers1_hash_eq_range;
    Alcotest.test_case "servers=3: jobs=1 == jobs=4" `Slow
      test_sharded_jobs_identity;
    Alcotest.test_case "sharded conformance: PS-AA under storms" `Slow
      (conformance Algo.PS_AA);
    Alcotest.test_case "sharded conformance: PS-OO under storms" `Slow
      (conformance Algo.PS_OO);
    Alcotest.test_case "sharded conformance: OS under storms" `Slow
      (conformance Algo.OS);
    Alcotest.test_case "sharded run breaks deadlocks" `Slow
      test_sharded_deadlocks_broken;
  ]
