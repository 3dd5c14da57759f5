open Storage
open Simcore
open Model

let local_lock_charge sys cid =
  Resources.Cpu.system sys.clients.ccpu.(cid) sys.cfg.Config.lock_inst

(* Zombie guard: a fiber that resumed from a non-cancellable suspension
   (CPU, disk, network) after its client crashed must not touch caches,
   locks, or metrics — the crash handler already reclaimed its state.
   Checked after every suspension that is followed by a state change. *)
let check_live sys txn =
  if not (Model.txn_live sys txn) then raise Client_crashed

(* How many times a read retries when its target keeps becoming
   unavailable between server reply and local install; each retry
   blocks at the server behind the new writer, so in practice one or
   two rounds suffice. *)
let max_read_retries = 64

(* State mutations must precede the CPU charge for them: charging
   suspends the fiber, and a callback arriving in that window must
   already see the lock (otherwise it would mark/purge an object the
   transaction is about to use). *)
let record_read_locks sys cid txn oid =
  if not (Ids.Oid_set.mem oid txn.read_objs) then begin
    txn.read_objs <- Ids.Oid_set.add oid txn.read_objs;
    txn.read_pages <- Ids.Page_set.add oid.Ids.Oid.page txn.read_pages;
    Model.oracle_hook sys (fun o -> Oracle.History.read o ~tid:txn.tid ~oid);
    local_lock_charge sys cid
  end

(* --- Read access ------------------------------------------------------ *)

let rec fetch_page sys cid txn oid ~tries =
  if tries > max_read_retries then
    failwith "Client: read livelock (unavailable after many refetches)";
  match Srv.read_rpc sys txn oid with
  | Srv.R_aborted -> raise Txn_aborted
  | Srv.R_objs _ -> assert false
  | Srv.R_page { unavailable; version } ->
    check_live sys txn;
    (* The owning server may have crashed while the reply was in
       transit: the copy is registered in no table, so installing it
       would leave a stale, never-called-back page. *)
    if txn.doomed then raise Txn_aborted;
    (match Cache_ops.install_page sys cid txn oid.Ids.Oid.page ~unavailable ~version with
    | Some (victim, dirty, fetch_version) ->
      (* Under redo-at-server the log carries the updates, so dirty
         evictions need not ship the page. *)
      if sys.cfg.Config.commit_mode = Config.Ship_pages then
        Srv.ship_dirty_page sys txn victim ~dirty ~fetch_version
          ~at_commit:false
    | None -> ());
    (* The shipped copy can mark our target unavailable if a writer
       slipped in between the lock probe and the reply; ask again (the
       probe will now block behind that writer). *)
    if Ids.Int_set.mem oid.Ids.Oid.slot unavailable then
      fetch_page sys cid txn oid ~tries:(tries + 1)

let read_access sys cid txn oid =
  let cs = sys.clients in
  match sys.algo with
  | Algo.OS ->
    if not (Lru.mem cs.ocache.(cid) oid) then begin
      match Srv.read_rpc sys txn oid with
      | Srv.R_aborted -> raise Txn_aborted
      | Srv.R_page _ -> assert false
      | Srv.R_objs group ->
        check_live sys txn;
        (* See [fetch_page]: never install a copy from a server that
           crashed after shipping it. *)
        if txn.doomed then raise Txn_aborted;
        List.iter
          (fun o ->
            match Cache_ops.install_object sys cid o with
            | Some victim ->
              if sys.cfg.Config.commit_mode = Config.Ship_pages then
                Srv.ship_dirty_objs sys txn [ victim ] ~at_commit:false
            | None -> ())
          group
    end
    else Lru.touch cs.ocache.(cid) oid;
    record_read_locks sys cid txn oid
  | Algo.PS | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA ->
    let available =
      match Lru.find cs.cache.(cid) oid.Ids.Oid.page with
      | Some entry -> not (Ids.Int_set.mem oid.Ids.Oid.slot entry.unavailable)
      | None -> false
    in
    if not available then fetch_page sys cid txn oid ~tries:0;
    record_read_locks sys cid txn oid

(* --- Write access ----------------------------------------------------- *)

let have_write_permission sys txn oid =
  match sys.algo with
  | Algo.PS -> Ids.Page_set.mem oid.Ids.Oid.page txn.wpages
  | Algo.OS | Algo.PS_OO | Algo.PS_OA -> Ids.Oid_set.mem oid txn.wobjs
  | Algo.PS_AA ->
    Ids.Page_set.mem oid.Ids.Oid.page txn.wpages
    || Ids.Oid_set.mem oid txn.wobjs

(* Protocol safety invariants, checked on every update:
   1. no two live transactions hold uncommitted updates to one object;
   2. the updater holds the server-side write lock that covers the
      object (the page lock, the object lock, or either for PS-AA).
   A protocol bug that loses mutual exclusion trips these instantly.
   Check 1 consults the [sys.updaters] index instead of scanning every
   client, so its cost is O(updaters of this object) — in a correct
   run, zero or one entry.

   Disabled under the [srv_skip_reconstruction] sabotage: skipping the
   copy-table rebuild deliberately breaks callback-based mutual
   exclusion, and the knob exists to prove the serializability oracle —
   the history-level checker — catches the damage end to end.  Leaving
   this state-level assertion armed would catch it first. *)
let assert_update_invariants sys cid txn oid =
  if sys.cfg.Config.srv_skip_reconstruction then ()
  else begin
  List.iter
    (fun (t : Model.txn) ->
      (* A doomed transaction can only abort: its updates are already
         discarded in spirit and its covering locks died with the
         crashed server, so a post-recovery writer may overlap it. *)
      if t != txn && not t.doomed then
        failwith
          (Printf.sprintf
             "invariant violation: object %d.%d updated concurrently by \
              txn %d (client %d) and txn %d (client %d)"
             oid.Ids.Oid.page oid.Ids.Oid.slot txn.tid cid t.tid t.client))
    (Model.updaters_of sys oid);
  let sv = Model.server_of sys oid.Ids.Oid.page in
  let holds_page =
    Locking.Lock_table.held_by sv.plocks oid.Ids.Oid.page ~txn:txn.tid
  in
  let holds_obj = Locking.Lock_table.held_by sv.olocks oid ~txn:txn.tid in
  let covered =
    match sys.algo with
    | Algo.PS -> holds_page
    | Algo.OS | Algo.PS_OO | Algo.PS_OA -> holds_obj
    | Algo.PS_AA -> holds_page || holds_obj
  in
  if not covered then
    failwith
      (Printf.sprintf
         "invariant violation: txn %d updates %d.%d without a covering \
          server write lock"
         txn.tid oid.Ids.Oid.page oid.Ids.Oid.slot)
  end

let mark_updated sys cid txn oid =
  assert_update_invariants sys cid txn oid;
  if not (Ids.Oid_set.mem oid txn.updated) then begin
    Model.oracle_hook sys (fun o -> Oracle.History.write o ~tid:txn.tid ~oid);
    Model.note_updater sys txn oid
  end;
  txn.updated <- Ids.Oid_set.add oid txn.updated;
  let cs = sys.clients in
  match sys.algo with
  | Algo.OS -> (
    match Lru.peek cs.ocache.(cid) oid with
    | Some entry -> entry.odirty <- true
    | None ->
      (* The object was read moments ago and callbacks against in-use
         objects block, so it must still be cached. *)
      assert false)
  | Algo.PS | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA -> (
    match Lru.peek cs.cache.(cid) oid.Ids.Oid.page with
    | Some entry ->
      (* Invariant: the read lock recorded before this write blocks any
         callback that would mark the target. *)
      if Ids.Int_set.mem oid.Ids.Oid.slot entry.unavailable then
        failwith
          (Printf.sprintf
             "invariant violation: txn %d writes %d.%d which a callback \
              marked unavailable despite the read lock"
             txn.tid oid.Ids.Oid.page oid.Ids.Oid.slot);
      entry.dirty <- Ids.Int_set.add oid.Ids.Oid.slot entry.dirty
    | None -> assert false)

let write_access sys cid txn oid =
  if not (have_write_permission sys txn oid) then begin
    match Srv.write_rpc sys txn oid with
    | Srv.W_aborted -> raise Txn_aborted
    | Srv.W_page ->
      check_live sys txn;
      txn.wpages <- Ids.Page_set.add oid.Ids.Oid.page txn.wpages;
      (* Under PS-AA the server acquired the object lock on the way to
         escalating; mirror it so release covers both. *)
      if sys.algo = Algo.PS_AA then txn.wobjs <- Ids.Oid_set.add oid txn.wobjs
    | Srv.W_obj ->
      check_live sys txn;
      txn.wobjs <- Ids.Oid_set.add oid txn.wobjs
  end;
  (* A server crash between the grant and this point purged the
     covering lock; recording the update would trip the isolation
     invariants against a post-recovery writer. *)
  if txn.doomed then raise Txn_aborted;
  mark_updated sys cid txn oid;
  local_lock_charge sys cid

(* --- Operations ------------------------------------------------------- *)

let exec_op sys cid txn (op : Workload.Refstring.op) =
  check_live sys txn;
  if txn.doomed then raise Txn_aborted;
  read_access sys cid txn op.oid;
  if op.write then write_access sys cid txn op.oid;
  let cost =
    if op.write then sys.params.Workload.Wparams.per_object_write_instr
    else sys.params.Workload.Wparams.per_object_read_instr
  in
  Resources.Cpu.user sys.clients.ccpu.(cid) cost

(* --- Transaction termination ------------------------------------------ *)

let finish_txn sys cid =
  ignore (Model.clear_running sys cid);
  let cs = sys.clients in
  let hooks = cs.end_hooks.(cid) in
  cs.end_hooks.(cid) <- [];
  List.iter (fun resume -> resume ()) hooks

let updated_pages txn =
  Ids.Oid_set.fold
    (fun o acc -> Ids.Page_set.add o.Ids.Oid.page acc)
    txn.updated Ids.Page_set.empty

let commit sys cid txn =
  let cs = sys.clients in
  check_live sys txn;
  (* A doomed transaction must not ship updates: the crashed server
     lost its locks, so the data would install without coverage. *)
  if txn.doomed then raise Txn_aborted;
  (match sys.cfg.Config.commit_mode with
  | Config.Redo_at_server -> Srv.ship_redo_log sys txn
  | Config.Ship_pages ->
  match sys.algo with
  | Algo.OS ->
    let dirty =
      Ids.Oid_set.fold
        (fun o acc ->
          match Lru.peek cs.ocache.(cid) o with
          | Some entry when entry.odirty -> o :: acc
          | Some _ | None -> acc)
        txn.updated []
    in
    Srv.ship_dirty_objs sys txn dirty ~at_commit:true
  | Algo.PS | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA ->
    Ids.Page_set.iter
      (fun p ->
        match Lru.peek cs.cache.(cid) p with
        | Some entry when not (Ids.Int_set.is_empty entry.dirty) ->
          Srv.ship_dirty_page sys txn p ~dirty:entry.dirty
            ~fetch_version:entry.fetch_version ~at_commit:true
        | Some _ | None -> ())
      (updated_pages txn));
  let committed = Srv.commit_rpc sys txn in
  (* A client crash during the commit round trip aborts the transaction:
     the server skipped the version bumps, so it must not count as a
     commit here.  Likewise presumed abort: when a participant crashed
     mid-flight or never heard the commit, [commit_rpc] reports failure
     and the client resolves the in-doubt outcome as an abort. *)
  check_live sys txn;
  if not committed then raise Txn_aborted;
  (* Updates are durable at the server; retain the pages/objects as
     clean cached copies and let blocked callbacks proceed. *)
  (match sys.algo with
  | Algo.OS ->
    Ids.Oid_set.iter
      (fun o ->
        match Lru.peek cs.ocache.(cid) o with
        | Some entry -> entry.odirty <- false
        | None -> ())
      txn.updated
  | Algo.PS | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA ->
    Ids.Page_set.iter
      (fun p ->
        match Lru.peek cs.cache.(cid) p with
        | Some entry ->
          entry.dirty <- Ids.Int_set.empty;
          entry.fetch_version <- Model.page_version sys p
        | None -> ())
      (updated_pages txn));
  finish_txn sys cid

let abort_cleanup sys cid txn =
  Model.oracle_hook sys (fun o -> Oracle.History.abort o ~tid:txn.tid);
  Model.tl_hook sys (fun x ->
      Tl.txn_abort x ~client:cid ~tid:txn.tid ~now:(Engine.now sys.engine));
  (* Purge uncommitted updates from the cache (purge-at-client,
     Section 3.1 / footnote 2), unblock any pending callbacks, then let
     the server release the transaction's locks. *)
  (match sys.algo with
  | Algo.OS -> Ids.Oid_set.iter (Cache_ops.drop_object sys cid) txn.updated
  | Algo.PS | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA ->
    Ids.Page_set.iter
      (fun p -> Cache_ops.drop_page sys cid p ~discard_dirty:true)
      (updated_pages txn));
  finish_txn sys cid;
  Srv.abort_rpc sys txn;
  Metrics.note_abort sys.metrics

(* --- The per-client transaction source -------------------------------- *)

let make_txn sys ~client ~ops ~first_started =
  let now = Engine.now sys.engine in
  {
    tid = fresh_tid sys;
    client;
    epoch = sys.clients.epoch.(client);
    ops;
    started = now;
    first_started;
    restarts = 0;
    read_pages = Ids.Page_set.empty;
    read_objs = Ids.Oid_set.empty;
    wpages = Ids.Page_set.empty;
    wobjs = Ids.Oid_set.empty;
    updated = Ids.Oid_set.empty;
    doomed = false;
    rpc_sid = -1;
  }

let restart_delay sys cid =
  let hist = sys.clients.resp_history.(cid) in
  let mean =
    if Stats.Welford.count hist > 0 then Stats.Welford.mean hist else 0.25
  in
  Rng.exponential sys.clients.crng.(cid) ~mean

let rec attempt sys cid ops ~first_started ~restarts =
  let txn = make_txn sys ~client:cid ~ops ~first_started in
  txn.restarts <- restarts;
  Model.set_running sys cid txn;
  Model.oracle_hook sys (fun o ->
      Oracle.History.begin_txn o ~tid:txn.tid ~client:cid);
  Model.tl_hook sys (fun x ->
      Tl.txn_begin x ~client:cid ~tid:txn.tid ~now:txn.started);
  (* Start times are replicated on every server's graph so any of them
     can pick a deadlock victim locally (see Waits_for.link). *)
  let start = Engine.now sys.engine in
  Array.iter
    (fun sv -> Locking.Waits_for.begin_txn sv.wfg txn.tid ~start)
    sys.servers;
  match
    Array.iter (exec_op sys cid txn) ops;
    commit sys cid txn
  with
  | () ->
    let now = Engine.now sys.engine in
    let response = now -. first_started in
    Metrics.note_commit sys.metrics ~response;
    Model.tl_hook sys (fun x -> Tl.txn_commit x ~client:cid ~tid:txn.tid ~now);
    Stats.Welford.add sys.clients.resp_history.(cid) response;
    (* First commit after a cold restart ends the outage window. *)
    (match sys.clients.crashed_at.(cid) with
    | Some t0 ->
      Faults.note_recovery sys.faults ~latency:(now -. t0);
      sys.clients.crashed_at.(cid) <- None
    | None -> ());
    Audit.check sys ~context:"commit" ~coverage_of:cid
  | exception Txn_aborted ->
    (* A deadlock abort that raced with a crash of this client belongs
       to the crash handler: everything is already reclaimed. *)
    check_live sys txn;
    abort_cleanup sys cid txn;
    Audit.check sys ~context:"abort" ~coverage_of:cid;
    Proc.hold sys.engine (restart_delay sys cid);
    (* The client may have crashed during the back-off; the replacement
       incarnation resubmits, not this fiber. *)
    check_live sys txn;
    attempt sys cid ops ~first_started ~restarts:(restarts + 1)

let run_one sys ~client ops k =
  Proc.spawn sys.engine (fun () ->
      (try
         attempt sys client ops ~first_started:(Engine.now sys.engine)
           ~restarts:0
       with Client_crashed -> ());
      k ())

(* A thinking client holds no fiber: the think is an engine timer whose
   event spawns the client's next fiber, and the fiber that finished the
   transaction returns.  This is event-for-event [Proc.hold]: hold pushes
   a timer event and, when it fires, a same-instant hop that continues
   the fiber; here the timer fires [Proc.spawn], whose start event is
   that hop.  A crash during the think bumps the epoch, so the spawned
   fiber fails the guard at the top of [client_loop] and exits where a
   held fiber would have on resuming. *)
let rec wake_after sys cid ~epoch dt =
  Engine.schedule_after sys.engine dt (fun () ->
      Proc.spawn sys.engine (fun () -> client_loop sys cid ~epoch))

and client_loop sys cid ~epoch =
  (* Iterative so the fiber stack stays flat across thousands of
     transactions when think_time is zero.  The loop belongs to one
     client incarnation: a crash bumps the epoch, so this fiber winds
     down (wherever it was) and the restart spawns a fresh loop. *)
  let cs = sys.clients in
  let thinking = ref false in
  while
    (not !thinking) && sys.live && cs.up.(cid) && cs.epoch.(cid) = epoch
  do
    try
      let ops =
        Workload.Refstring.generate ~rng:cs.crng.(cid) ~params:sys.params
          ~client:cid ~objects_per_page:sys.cfg.Config.objects_per_page
      in
      attempt sys cid ops ~first_started:(Engine.now sys.engine) ~restarts:0;
      let think = sys.params.Workload.Wparams.think_time in
      (* Traffic-shape modulation only applies when an arrival profile is
         set, so the default path thinks for exactly [think]. *)
      let think =
        match sys.params.Workload.Wparams.arrival with
        | None -> think
        | Some a ->
          Workload.Arrival.think a ~base:think ~now:(Engine.now sys.engine)
      in
      if think > 0.0 then begin
        thinking := true;
        wake_after sys cid ~epoch think
      end
      else Proc.yield sys.engine
    with Client_crashed -> ()
  done

let start_one sys cid =
  let cs = sys.clients in
  let epoch = cs.epoch.(cid) in
  (* Large-population runs bound concurrency with think_time; phase the
     population across one think interval so simulated time zero is not
     a thundering herd of [n] simultaneous transactions.  No RNG draw,
     and no timer at all when the phase is zero, so the paper-scale
     schedules are untouched.  The same-instant hop before the timer is
     the start event a fiber holding for the phase would have had. *)
  let think = sys.params.Workload.Wparams.think_time in
  let phase =
    if think > 0.0 then think *. float_of_int cid /. float_of_int cs.n else 0.0
  in
  if phase > 0.0 then
    Engine.schedule_now sys.engine (fun () -> wake_after sys cid ~epoch phase)
  else Proc.spawn sys.engine (fun () -> client_loop sys cid ~epoch)

let start sys =
  for cid = 0 to sys.clients.n - 1 do
    start_one sys cid
  done
