(* Randomized stress testing of the full protocol stack.

   For each protocol (and the extension modes), run many short random
   workloads with hand-generated transaction mixes and verify:
   - the system quiesces (every submitted transaction commits),
   - the kernel's update invariants never fired (they raise),
   - the post-quiescence audit holds (no locks, no waiters, copy tables
     exactly mirroring the caches).

   The transaction generator deliberately concentrates accesses on a
   tiny page range to force heavy conflicts, callbacks, de-escalations,
   merges, and deadlocks — far denser contention than the paper's
   workloads. *)

open Oodb_core
open Storage
open Simcore

let mk_sys ~algo ~clients ~cfg ~seed =
  let cfg = { cfg with Config.num_clients = clients } in
  let params =
    Workload.Presets.make Workload.Presets.Uniform ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page ~num_clients:clients
      ~locality:Workload.Presets.Low ~write_prob:0.0
  in
  Model.create ~cfg ~algo ~params ~seed

(* A short transaction over a hot 4-page range: high collision odds. *)
let random_txn rng =
  let n_ops = 1 + Rng.int rng 10 in
  Array.init n_ops (fun _ ->
      let page = Rng.int rng 4 in
      let slot = Rng.int rng 6 in
      {
        Workload.Refstring.oid = Ids.Oid.make ~page ~slot;
        write = Rng.bool rng ~p:0.4;
      })

(* Reference strings access each object once; dedup per transaction. *)
let dedup ops =
  let seen = Hashtbl.create 16 in
  Array.of_list
    (List.filter
       (fun (op : Workload.Refstring.op) ->
         if Hashtbl.mem seen op.oid then false
         else begin
           Hashtbl.add seen op.oid ();
           true
         end)
       (Array.to_list ops))

let audit sys =
  if Locking.Lock_table.lock_count sys.Model.servers.(0).plocks <> 0 then
    failwith "audit: page locks leaked";
  if Locking.Lock_table.lock_count sys.Model.servers.(0).olocks <> 0 then
    failwith "audit: object locks leaked";
  if
    Locking.Lock_table.waiter_count sys.Model.servers.(0).plocks
    + Locking.Lock_table.waiter_count sys.Model.servers.(0).olocks
    <> 0
  then failwith "audit: queued requests leaked";
  if Locking.Waits_for.waiting_count sys.Model.servers.(0).wfg <> 0 then
    failwith "audit: waits-for entries leaked";
  let cached_pages = ref 0 and cached_objects = ref 0 in
  let cs = sys.Model.clients in
  for cid = 0 to cs.Model.n - 1 do
    if cs.Model.running.(cid) <> None then failwith "audit: transaction stuck";
    if Algo.page_grain_copies sys.Model.algo then
      Lru.iter cs.Model.cache.(cid) (fun p _ ->
          incr cached_pages;
          (* At quiescence the copy tables are an exact mirror: one
             reference per cached copy, none in flight. *)
          if
            Locking.Copy_table.refs sys.Model.servers.(0).pcopies p ~slot:0
              ~client:cid
            <> 1
          then failwith "audit: cached page not registered exactly once")
    else if sys.Model.algo = Algo.OS then
      Lru.iter cs.Model.ocache.(cid) (fun o _ ->
          incr cached_objects;
          if
            Locking.Copy_table.refs sys.Model.servers.(0).ocopies o ~slot:0
              ~client:cid
            <> 1
          then failwith "audit: cached object not registered exactly once")
    else
      (* PS-OO: every available object of every cached page holds
         exactly one reference; marked slots hold none. *)
      Lru.iter cs.Model.cache.(cid) (fun p entry ->
          for slot = 0 to sys.Model.cfg.Config.objects_per_page - 1 do
            let expect =
              if Ids.Int_set.mem slot entry.Model.unavailable then 0 else 1
            in
            incr cached_objects;
            let got =
              Locking.Copy_table.refs sys.Model.servers.(0).pcopies p ~slot
                ~client:cid
            in
            if got <> expect then
              failwith
                (Printf.sprintf
                   "audit: PS-OO object %d.%d at client %d has %d refs, \
                    expected %d"
                   p slot cid got expect)
          done)
  done;
  (* No registrations beyond the cached copies. *)
  if Algo.page_grain_copies sys.Model.algo then begin
    if Locking.Copy_table.copies sys.Model.servers.(0).pcopies <> !cached_pages then
      failwith "audit: stale page registrations"
  end

let fuzz_once ~algo ~cfg ~seed =
  let clients = 6 in
  let sys = mk_sys ~algo ~clients ~cfg ~seed in
  let rng = Rng.create ~seed:(seed * 7919) in
  let remaining = ref 0 in
  (* Each client runs its transactions strictly one after another (the
     model's single-transaction-per-client discipline), with random
     pauses; clients overlap with each other freely. *)
  for client = 0 to clients - 1 do
    let txns =
      List.filter
        (fun ops -> Array.length ops > 0)
        (List.init 10 (fun _ -> dedup (random_txn rng)))
    in
    remaining := !remaining + List.length txns;
    let delays = List.map (fun _ -> Rng.float rng 0.3) txns in
    let rec submit = function
      | [] -> ()
      | (ops, delay) :: rest ->
        Engine.schedule_after sys.Model.engine delay (fun () ->
            Client.run_one sys ~client ops (fun () ->
                decr remaining;
                submit rest))
    in
    submit (List.combine txns delays)
  done;
  (* The conflict storm should settle in well under a million events; a
     runaway protocol bug fails loudly via the budget guard instead of
     hanging the suite. *)
  Engine.run_until ~max_events:2_000_000 sys.Model.engine 300.0;
  if !remaining <> 0 then
    failwith
      (Printf.sprintf "fuzz: %d transactions never finished (algo %s seed %d)"
         !remaining (Algo.to_string algo) seed);
  audit sys;
  (* Evidence that the storm actually produced protocol activity. *)
  Metrics.callback_blocks sys.Model.metrics
  + Array.fold_left
      (fun acc sv -> acc + Locking.Waits_for.deadlocks sv.Model.wfg)
      0 sys.Model.servers
  + Metrics.lock_waits sys.Model.metrics
  + Metrics.merges sys.Model.metrics
  + Metrics.client_merges sys.Model.metrics

let fuzz_algo algo () =
  let activity = ref 0 in
  for seed = 1 to 25 do
    activity := !activity + fuzz_once ~algo ~cfg:Config.default ~seed
  done;
  (* The conflict storm must actually have caused contention events,
     otherwise the harness is not testing anything. *)
  Alcotest.(check bool) "storm produced contention" true (!activity > 50)

let fuzz_extension_modes () =
  let configs =
    [
      ("redo", { Config.default with Config.commit_mode = Config.Redo_at_server });
      ("token", { Config.default with Config.update_mode = Config.Write_token });
      ( "overflow",
        { Config.default with Config.size_change_prob = 0.5; overflow_prob = 0.3 }
      );
      ("group", { Config.default with Config.os_group_size = 10 });
    ]
  in
  List.iter
    (fun (label, cfg) ->
      List.iter
        (fun algo ->
          for seed = 1 to 8 do
            try ignore (fuzz_once ~algo ~cfg ~seed : int)
            with Failure msg ->
              failwith
                (Printf.sprintf "%s [mode %s, algo %s, seed %d]" msg label
                   (Algo.to_string algo) seed)
          done)
        Algo.all)
    configs

let fuzz_tiny_caches () =
  (* A pathologically small client cache forces constant dirty
     evictions and refetches mid-transaction. *)
  let cfg = { Config.default with Config.client_buf_frac = 0.004 (* 5 pages *) } in
  List.iter
    (fun algo ->
      for seed = 1 to 10 do
        ignore (fuzz_once ~algo ~cfg ~seed : int)
      done)
    Algo.all

let suite =
  List.map
    (fun algo ->
      Alcotest.test_case
        (Printf.sprintf "random conflict storm (%s)" (Algo.to_string algo))
        `Quick (fuzz_algo algo))
    Algo.all
  @ [
      Alcotest.test_case "extension modes under storm" `Slow
        fuzz_extension_modes;
      Alcotest.test_case "tiny client caches" `Slow fuzz_tiny_caches;
    ]
