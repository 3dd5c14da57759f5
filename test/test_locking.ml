open Simcore
open Locking
open Lock_types

let mk () =
  let e = Engine.create () in
  let wfg = Waits_for.create () in
  let lt = Lock_table.create e ~waits_for:wfg ~lock_name:"t" in
  (e, wfg, lt)

(* --- Copy table --------------------------------------------------------- *)

let test_copy_register () =
  let ct = Copy_table.create ~clients:4 in
  Copy_table.register ct "p1" ~client:0;
  Copy_table.register ct "p1" ~client:2;
  Copy_table.register ct "p1" ~client:2;
  (* idempotent *)
  Alcotest.(check (list int)) "holders" [ 0; 2 ] (Copy_table.holders ct "p1");
  Alcotest.(check int) "total" 2 (Copy_table.copies ct);
  Alcotest.(check (list int)) "except requester" [ 0 ]
    (Copy_table.holders_except ct "p1" ~client:2)

let test_copy_unregister () =
  let ct = Copy_table.create ~clients:4 in
  Copy_table.register ct "p1" ~client:1;
  Copy_table.unregister ct "p1" ~client:1;
  Copy_table.unregister ct "p1" ~client:1;
  (* idempotent *)
  Alcotest.(check (list int)) "empty" [] (Copy_table.holders ct "p1");
  Alcotest.(check int) "total" 0 (Copy_table.copies ct);
  Alcotest.(check bool) "holds" false (Copy_table.holds ct "p1" ~client:1)

let journal_pairs j =
  List.init (Journal.length j) (fun i -> (Journal.item j i, Journal.site j i))

(* Only a refcount reaching zero is logged, from either release path. *)
let test_copy_zeroed_journal () =
  let ct = Copy_table.create ~clients:4 in
  Copy_table.register ct "p1" ~client:1;
  Copy_table.register ct "p1" ~client:1;
  Copy_table.register ct "p2" ~client:3;
  Copy_table.unregister ct "p1" ~client:1;
  Alcotest.(check (list (pair string int)))
    "1 -> 0 only" [] (journal_pairs (Copy_table.zeroed ct));
  Copy_table.unregister ct "p1" ~client:1;
  ignore (Copy_table.purge_client ct ~client:3 : int);
  Alcotest.(check (list (pair string int)))
    "unregister then purge"
    [ ("p1", 1); ("p2", 3) ]
    (journal_pairs (Copy_table.zeroed ct))

(* Past its capacity a journal forgets its entries and reports the
   overflow until cleared, so an undrained journal stays bounded. *)
let test_journal_overflow () =
  let j = Journal.create () in
  for i = 1 to Journal.capacity do
    Journal.push j i ~site:0
  done;
  Alcotest.(check bool) "at capacity" false (Journal.overflowed j);
  Alcotest.(check int) "entries kept" Journal.capacity
    (List.length (journal_pairs j));
  Journal.push j 0 ~site:0;
  Journal.push j 0 ~site:0;
  Alcotest.(check bool) "overflowed" true (Journal.overflowed j);
  Alcotest.(check int) "entries dropped" 0 (List.length (journal_pairs j));
  Journal.clear j;
  Journal.push j 7 ~site:2;
  Alcotest.(check bool) "clear resets" false (Journal.overflowed j);
  Alcotest.(check (list (pair int int)))
    "logs again" [ (7, 2) ] (journal_pairs j)

(* --- Lock table: grants -------------------------------------------------- *)

let test_immediate_grant () =
  let e, _, lt = mk () in
  let g = ref None in
  Proc.spawn e (fun () -> g := Some (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock));
  Engine.run e;
  Alcotest.(check bool) "granted" true (!g = Some Granted);
  Alcotest.(check bool) "held" true (Lock_table.held_by lt "a" ~txn:1);
  Alcotest.(check (list string)) "locks_of" [ "a" ] (Lock_table.locks_of lt ~txn:1)

let test_reacquire_held () =
  let e, _, lt = mk () in
  let g = ref 0 in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      if Lock_table.acquire lt "a" ~txn:1 ~kind:Lock = Granted then incr g;
      if Lock_table.acquire lt "a" ~txn:1 ~kind:Probe = Granted then incr g);
  Engine.run e;
  Alcotest.(check int) "self re-acquire instant" 2 !g

let test_probe_free_item () =
  let e, _, lt = mk () in
  let g = ref None in
  Proc.spawn e (fun () -> g := Some (Lock_table.acquire lt "a" ~txn:1 ~kind:Probe));
  Engine.run e;
  Alcotest.(check bool) "probe granted" true (!g = Some Granted);
  Alcotest.(check bool) "probe holds nothing" true
    (Lock_table.holder lt "a" = None)

let test_conflict_blocks_until_release () =
  let e, _, lt = mk () in
  let order = ref [] in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      order := "t1 locked" :: !order;
      Proc.hold e 1.0;
      Lock_table.release lt "a" ~txn:1;
      order := "t1 released" :: !order);
  Proc.spawn e (fun () ->
      Proc.hold e 0.1;
      ignore (Lock_table.acquire lt "a" ~txn:2 ~kind:Lock);
      order := "t2 locked" :: !order);
  Engine.run e;
  Alcotest.(check (list string)) "blocking order"
    [ "t1 locked"; "t1 released"; "t2 locked" ]
    (List.rev !order);
  Alcotest.(check bool) "t2 holds now" true (Lock_table.held_by lt "a" ~txn:2)

let test_fifo_queue () =
  let e, _, lt = mk () in
  let order = ref [] in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      Proc.hold e 1.0;
      Lock_table.release lt "a" ~txn:1);
  List.iter
    (fun (txn, delay) ->
      Proc.spawn e (fun () ->
          Proc.hold e delay;
          ignore (Lock_table.acquire lt "a" ~txn ~kind:Lock);
          order := txn :: !order;
          Lock_table.release lt "a" ~txn))
    [ (2, 0.1); (3, 0.2); (4, 0.3) ];
  Engine.run e;
  Alcotest.(check (list int)) "FIFO grants" [ 2; 3; 4 ] (List.rev !order)

let test_probes_share () =
  let e, _, lt = mk () in
  let granted_at = ref [] in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      Proc.hold e 1.0;
      Lock_table.release lt "a" ~txn:1);
  for txn = 2 to 4 do
    Proc.spawn e (fun () ->
        Proc.hold e 0.1;
        ignore (Lock_table.acquire lt "a" ~txn ~kind:Probe);
        granted_at := Engine.now e :: !granted_at)
  done;
  Engine.run e;
  Alcotest.(check int) "all probes granted" 3 (List.length !granted_at);
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "at release time" 1.0 t)
    !granted_at

let test_release_all () =
  let e, _, lt = mk () in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      ignore (Lock_table.acquire lt "b" ~txn:1 ~kind:Lock));
  Engine.run e;
  Lock_table.release_all lt ~txn:1;
  Alcotest.(check bool) "a free" true (Lock_table.holder lt "a" = None);
  Alcotest.(check bool) "b free" true (Lock_table.holder lt "b" = None);
  Alcotest.(check (list string)) "locks_of empty" [] (Lock_table.locks_of lt ~txn:1)

let test_force_grant () =
  let e, _, lt = mk () in
  ignore e;
  Lock_table.force_grant lt "a" ~txn:5;
  Alcotest.(check bool) "held" true (Lock_table.held_by lt "a" ~txn:5);
  Lock_table.force_grant lt "a" ~txn:5;
  (* idempotent *)
  Alcotest.(check bool) "conflicting force rejected" true
    (try
       Lock_table.force_grant lt "a" ~txn:6;
       false
     with Invalid_argument _ -> true);
  Lock_table.release_all lt ~txn:5;
  Alcotest.(check bool) "released" true (Lock_table.holder lt "a" = None)

let test_try_acquire () =
  let e, _, lt = mk () in
  ignore e;
  Alcotest.(check bool) "free grants" true
    (Lock_table.try_acquire lt "a" ~txn:1 ~kind:Lock);
  Alcotest.(check bool) "conflict fails" false
    (Lock_table.try_acquire lt "a" ~txn:2 ~kind:Lock);
  Alcotest.(check bool) "self succeeds" true
    (Lock_table.try_acquire lt "a" ~txn:1 ~kind:Lock)

(* --- Deadlock detection -------------------------------------------------- *)

let test_two_txn_deadlock () =
  let e, wfg, lt = mk () in
  Waits_for.begin_txn wfg 1 ~start:0.0;
  Waits_for.begin_txn wfg 2 ~start:1.0;
  let outcomes = Hashtbl.create 4 in
  (* t1 locks a then wants b; t2 locks b then wants a. *)
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      Proc.hold e 0.5;
      Hashtbl.replace outcomes 1 (Lock_table.acquire lt "b" ~txn:1 ~kind:Lock));
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "b" ~txn:2 ~kind:Lock);
      Proc.hold e 0.6;
      Hashtbl.replace outcomes 2 (Lock_table.acquire lt "a" ~txn:2 ~kind:Lock));
  Engine.run e;
  (* Youngest (txn 2, started later) must be the victim. *)
  Alcotest.(check bool) "t2 aborted" true (Hashtbl.find outcomes 2 = Aborted);
  Alcotest.(check int) "one deadlock" 1 (Waits_for.deadlocks wfg);
  (* t1 is still waiting for b, which aborted t2 still holds -- the
     abort protocol must release it (simulating the client abort): *)
  Lock_table.release_all lt ~txn:2;
  Engine.run e;
  Alcotest.(check bool) "t1 granted after victim release" true
    (Hashtbl.find outcomes 1 = Granted)

let test_victim_is_youngest () =
  let e, wfg, lt = mk () in
  Waits_for.begin_txn wfg 1 ~start:5.0;
  (* older start = 1 is YOUNGER? no: larger start = younger *)
  Waits_for.begin_txn wfg 2 ~start:1.0;
  let outcomes = Hashtbl.create 4 in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      Proc.hold e 0.5;
      Hashtbl.replace outcomes 1 (Lock_table.acquire lt "b" ~txn:1 ~kind:Lock));
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "b" ~txn:2 ~kind:Lock);
      Proc.hold e 0.6;
      Hashtbl.replace outcomes 2 (Lock_table.acquire lt "a" ~txn:2 ~kind:Lock));
  Engine.run e;
  (* txn 1 started at 5.0 (younger) -> victim. *)
  Alcotest.(check bool) "t1 aborted" true (Hashtbl.find outcomes 1 = Aborted)

let test_three_txn_cycle () =
  let e, wfg, lt = mk () in
  List.iteri (fun i t -> Waits_for.begin_txn wfg t ~start:(float_of_int i)) [ 1; 2; 3 ];
  let aborted = ref [] in
  let spawn_chain txn own want delay =
    Proc.spawn e (fun () ->
        ignore (Lock_table.acquire lt own ~txn ~kind:Lock);
        Proc.hold e delay;
        match Lock_table.acquire lt want ~txn ~kind:Lock with
        | Aborted -> aborted := txn :: !aborted
        | Granted -> ())
  in
  spawn_chain 1 "a" "b" 0.5;
  spawn_chain 2 "b" "c" 0.6;
  spawn_chain 3 "c" "a" 0.7;
  Engine.run e;
  Alcotest.(check (list int)) "youngest (3) aborted" [ 3 ] !aborted;
  Alcotest.(check int) "one deadlock" 1 (Waits_for.deadlocks wfg)

let test_no_false_deadlock () =
  let e, wfg, lt = mk () in
  Waits_for.begin_txn wfg 1 ~start:0.0;
  Waits_for.begin_txn wfg 2 ~start:1.0;
  let ok = ref 0 in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      Proc.hold e 1.0;
      Lock_table.release lt "a" ~txn:1;
      incr ok);
  Proc.spawn e (fun () ->
      Proc.hold e 0.2;
      if Lock_table.acquire lt "a" ~txn:2 ~kind:Lock = Granted then incr ok);
  Engine.run e;
  Alcotest.(check int) "both fine" 2 !ok;
  Alcotest.(check int) "no deadlocks" 0 (Waits_for.deadlocks wfg)

let test_callback_style_cycle () =
  (* A cycle through a manual (gather-style) wait plus a lock wait, the
     shape that arises between a writer waiting for callbacks and a
     reader blocked at the server. *)
  let e, wfg, lt = mk () in
  Waits_for.begin_txn wfg 1 ~start:0.0;
  Waits_for.begin_txn wfg 2 ~start:1.0;
  let w_aborted = ref false in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "p" ~txn:1 ~kind:Lock);
      (* writer txn 1 now "waits for callbacks" *)
      let r =
        Proc.suspend e (fun resume ->
            Waits_for.set_wait wfg 1 ~blockers:[] ~cancel:(fun () ->
                resume (Ok `Aborted)))
      in
      if r = `Aborted then w_aborted := true);
  Proc.spawn e (fun () ->
      Proc.hold e 0.1;
      (* reader txn 2 blocks on the page lock: edge 2 -> 1 *)
      ignore (Lock_table.acquire lt "p" ~txn:2 ~kind:Probe));
  Proc.spawn e (fun () ->
      Proc.hold e 0.2;
      (* the callback reaches txn 2's client and blocks: edge 1 -> 2 *)
      Waits_for.add_blocker wfg 1 2;
      ignore (Waits_for.check_deadlock wfg ~from:1));
  Engine.run e;
  Alcotest.(check int) "deadlock found" 1 (Waits_for.deadlocks wfg);
  Alcotest.(check bool) "younger txn 2 was victim, writer survives" false
    !w_aborted

let test_cancelled_waiter_unblocks_queue () =
  let e, wfg, lt = mk () in
  List.iteri (fun i t -> Waits_for.begin_txn wfg t ~start:(float_of_int i)) [ 1; 2; 3 ];
  let g3 = ref None in
  Proc.spawn e (fun () -> ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock));
  (* txn 2 queues a Lock behind txn 1... *)
  let r2 = ref None in
  Proc.spawn e (fun () ->
      Proc.hold e 0.1;
      r2 := Some (Lock_table.acquire lt "a" ~txn:2 ~kind:Lock));
  (* ...txn 3 queues a probe behind txn 2 *)
  Proc.spawn e (fun () ->
      Proc.hold e 0.2;
      g3 := Some (Lock_table.acquire lt "a" ~txn:3 ~kind:Probe));
  Engine.run e;
  (* Abort txn 2 via an artificial cycle: 2 waits on 1; make 1 wait on 2. *)
  Waits_for.set_wait wfg 1 ~blockers:[ 2 ] ~cancel:(fun () -> ());
  ignore (Waits_for.check_deadlock wfg ~from:1);
  Engine.run e;
  Alcotest.(check bool) "t2 aborted" true (!r2 = Some Aborted);
  (* Now release txn 1: probe of txn 3 must be granted despite the
     cancelled Lock request that used to sit ahead of it. *)
  Waits_for.clear_wait wfg 1;
  Lock_table.release_all lt ~txn:1;
  Engine.run e;
  Alcotest.(check bool) "t3 probe granted" true (!g3 = Some Granted)

(* --- Lock conversion edge cases ------------------------------------------ *)

(* A probe confers no ownership, so probe-then-lock must go through the
   full acquire path; lock-then-probe must short-circuit. *)
let test_probe_then_lock_upgrade () =
  let e, _, lt = mk () in
  let steps = ref [] in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Probe);
      steps := "probed" :: !steps;
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      steps := "locked" :: !steps);
  Engine.run e;
  Alcotest.(check (list string)) "upgrade order" [ "probed"; "locked" ]
    (List.rev !steps);
  Alcotest.(check bool) "held after upgrade" true
    (Lock_table.held_by lt "a" ~txn:1)

(* force_grant (PS-AA de-escalation conversion) must not jump over the
   FIFO queue's memory: waiters queued behind the converted lock drain
   in order once it is released. *)
let test_force_grant_with_queued_waiters () =
  let e, _, lt = mk () in
  let order = ref [] in
  Proc.spawn e (fun () ->
      ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock);
      Proc.hold e 1.0;
      (* conversion while txns 2 and 3 sit in the queue *)
      Lock_table.force_grant lt "a" ~txn:1;
      Alcotest.(check bool) "still held by converter" true
        (Lock_table.held_by lt "a" ~txn:1);
      Proc.hold e 1.0;
      Lock_table.release lt "a" ~txn:1);
  List.iter
    (fun txn ->
      Proc.spawn e (fun () ->
          Proc.hold e (0.1 *. float_of_int txn);
          ignore (Lock_table.acquire lt "a" ~txn ~kind:Lock);
          order := txn :: !order;
          Lock_table.release lt "a" ~txn))
    [ 2; 3 ];
  Engine.run e;
  Alcotest.(check (list int)) "FIFO preserved across conversion" [ 2; 3 ]
    (List.rev !order)

(* Releasing a lock the transaction does not hold must not disturb the
   real holder. *)
let test_release_not_held_noop () =
  let e, _, lt = mk () in
  Proc.spawn e (fun () -> ignore (Lock_table.acquire lt "a" ~txn:1 ~kind:Lock));
  Engine.run e;
  Lock_table.release lt "a" ~txn:2;
  Lock_table.release_all lt ~txn:3;
  Alcotest.(check bool) "holder untouched" true
    (Lock_table.held_by lt "a" ~txn:1)

(* --- any_cycle vs brute-force reachability -------------------------------- *)

(* Install an arbitrary waits-for graph and compare the incremental
   detector's verdict against transitive-closure reachability; when a
   witness comes back, replay it edge by edge against the graph. *)
let prop_any_cycle_vs_reachability =
  let txns = [ 1; 2; 3; 4; 5; 6 ] in
  QCheck.Test.make ~name:"any_cycle agrees with brute-force reachability"
    ~count:500
    QCheck.(list_of_size (Gen.int_range 0 14) (pair (int_range 1 6) (int_range 1 6)))
    (fun pairs ->
      let edges = List.filter (fun (a, b) -> a <> b) pairs in
      let blockers_of w =
        List.sort_uniq compare
          (List.filter_map (fun (a, b) -> if a = w then Some b else None) edges)
      in
      let wfg = Waits_for.create () in
      List.iter (fun t -> Waits_for.begin_txn wfg t ~start:(float_of_int t)) txns;
      List.iter
        (fun w ->
          match blockers_of w with
          | [] -> ()
          | blockers -> Waits_for.set_wait wfg w ~blockers ~cancel:(fun () -> ()))
        txns;
      (* Brute force: a cycle exists iff some transaction reaches itself. *)
      let reaches src dst =
        let seen = Hashtbl.create 8 in
        let rec go u =
          List.exists
            (fun v ->
              v = dst
              || (not (Hashtbl.mem seen v))
                 && (Hashtbl.add seen v ();
                     go v))
            (blockers_of u)
        in
        go src
      in
      let expected = List.exists (fun t -> reaches t t) txns in
      match Waits_for.any_cycle wfg with
      | None -> not expected
      | Some cyc ->
        (* witness sanity: consecutive elements of the reversed path are
           waits-for edges, and the last closes back on the first *)
        let path = List.rev cyc in
        let rec edges_ok = function
          | a :: (b :: _ as rest) ->
            List.mem b (blockers_of a) && edges_ok rest
          | [ last ] -> List.mem (List.hd path) (blockers_of last)
          | [] -> false
        in
        expected && path <> [] && edges_ok path)

let suite =
  [
    Alcotest.test_case "copy table register" `Quick test_copy_register;
    Alcotest.test_case "copy table unregister" `Quick test_copy_unregister;
    Alcotest.test_case "copy table zeroed journal" `Quick
      test_copy_zeroed_journal;
    Alcotest.test_case "journal overflow" `Quick test_journal_overflow;
    Alcotest.test_case "immediate grant" `Quick test_immediate_grant;
    Alcotest.test_case "re-acquire held lock" `Quick test_reacquire_held;
    Alcotest.test_case "probe on free item" `Quick test_probe_free_item;
    Alcotest.test_case "conflict blocks until release" `Quick
      test_conflict_blocks_until_release;
    Alcotest.test_case "FIFO queue" `Quick test_fifo_queue;
    Alcotest.test_case "probes share" `Quick test_probes_share;
    Alcotest.test_case "release_all" `Quick test_release_all;
    Alcotest.test_case "force_grant" `Quick test_force_grant;
    Alcotest.test_case "try_acquire" `Quick test_try_acquire;
    Alcotest.test_case "two-txn deadlock" `Quick test_two_txn_deadlock;
    Alcotest.test_case "victim is youngest" `Quick test_victim_is_youngest;
    Alcotest.test_case "three-txn cycle" `Quick test_three_txn_cycle;
    Alcotest.test_case "no false deadlock" `Quick test_no_false_deadlock;
    Alcotest.test_case "callback-style cycle" `Quick test_callback_style_cycle;
    Alcotest.test_case "cancelled waiter unblocks queue" `Quick
      test_cancelled_waiter_unblocks_queue;
    Alcotest.test_case "probe-then-lock upgrade" `Quick
      test_probe_then_lock_upgrade;
    Alcotest.test_case "force_grant keeps FIFO queue" `Quick
      test_force_grant_with_queued_waiters;
    Alcotest.test_case "release of non-held lock is a no-op" `Quick
      test_release_not_held_noop;
    QCheck_alcotest.to_alcotest prop_any_cycle_vs_reachability;
  ]
