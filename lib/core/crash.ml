open Storage
open Simcore
open Model
open Locking

let crash_client sys cid =
  let cs = sys.clients in
  if cs.up.(cid) then begin
    (* Bump the epoch first: every fiber of the old incarnation is
       suspended right now (this runs in the driver fiber), and the
       liveness guards it hits on resume must already see the change. *)
    cs.up.(cid) <- false;
    cs.epoch.(cid) <- cs.epoch.(cid) + 1;
    if cs.crashed_at.(cid) = None then
      cs.crashed_at.(cid) <- Some (Engine.now sys.engine);
    Faults.note_crash sys.faults;
    (* Closes any open txn span, then opens the "down" recovery-epoch
       span, ended by the restart hook below. *)
    Model.tl_hook sys (fun x ->
        Tl.crash x ~client:cid ~now:(Engine.now sys.engine));
    (match cs.running.(cid) with
    | Some txn ->
      Faults.note_crash_abort sys.faults;
      (* No-op if the server already committed the transaction (the
         crash then only lost the reply): committed outcomes stick. *)
      Model.oracle_hook sys (fun o -> Oracle.History.abort o ~tid:txn.tid);
      (* The wait must be cancelled before the transaction is ended:
         cancellation dequeues its pending lock/callback/token request
         and schedules the fiber's abort resumption.  The graphs are
         linked, so cancelling through any member finds the wait
         wherever it is registered. *)
      Waits_for.cancel_wait sys.servers.(0).wfg txn.tid;
      Srv.release_txn_locks sys txn;
      ignore (Model.clear_running sys cid)
    | None -> ());
    (* Callbacks blocked on the dead transaction retry immediately. *)
    let hooks = cs.end_hooks.(cid) in
    cs.end_hooks.(cid) <- [];
    List.iter (fun resume -> resume ()) hooks;
    (* The buffer pool is volatile: every cached copy is gone.  Raw
       removal, not Cache_ops.drop_* — those piggyback deregistration
       messages, but a dead workstation sends nothing; the server purges
       its registrations unilaterally below. *)
    List.iter
      (fun (p, _) -> ignore (Lru.remove cs.cache.(cid) p))
      (Lru.to_list cs.cache.(cid));
    List.iter
      (fun (o, _) -> ignore (Lru.remove cs.ocache.(cid) o))
      (Lru.to_list cs.ocache.(cid));
    Model.oracle_hook sys (fun o -> Oracle.History.purge_client o ~client:cid);
    (* Purging also clears references for copies still in transit, so a
       pending callback's resend loop terminates instead of re-calling a
       site that will never install the copy.  Every partition may hold
       registrations for the site, so sweep them all. *)
    Array.iter
      (fun sv ->
        ignore (Copy_table.purge_client sv.pcopies ~client:cid);
        ignore (Copy_table.purge_client sv.ocopies ~client:cid);
        (* Write tokens owned by the site return to the server pool. *)
        let owned =
          Hashtbl.fold
            (fun p (oc, _) acc -> if oc = cid then p :: acc else acc)
            sv.token_owner []
        in
        List.iter (Hashtbl.remove sv.token_owner) owned)
      sys.servers;
    Faults.run_hook sys.faults "client-crash"
  end

let restart_client sys cid =
  let cs = sys.clients in
  if not cs.up.(cid) then begin
    cs.up.(cid) <- true;
    sys.sweep_pending <- true;
    Model.tl_hook sys (fun x ->
        Tl.restart x ~client:cid ~now:(Engine.now sys.engine));
    Client.start_one sys cid
  end

(* --- Server failure ---------------------------------------------------- *)

(* A server crash loses everything volatile — buffer pool, lock tables,
   copy tables, token ownership, its waits-for partition — and keeps
   only the durable page images plus the redo-log prefix ([versions]
   and [log_records] survive).  Every transaction with in-flight or
   recorded state at the server is doomed: its next server interaction
   observes the doom and aborts locally (presumed abort), unwinding
   through the client's normal abort-and-retry path. *)
let crash_server sys sid =
  let sv = sys.servers.(sid) in
  if sv.srv_state = Srv_up then begin
    sv.srv_state <- Srv_down;
    sv.srv_crashed_at <- Engine.now sys.engine;
    Faults.note_srv_crash sys.faults;
    Model.tl_hook sys (fun x -> Tl.srv_crash x ~sid ~now:(Engine.now sys.engine));
    (* Doom every transaction that touched the server — pages read or
       written there (it may hold purged locks or rely on purged
       registrations), or an RPC currently executing there.  The wait
       must be cancelled before the tables are purged: cancellation
       dequeues the pending lock/callback/token request, so the
       releases below wake nobody doomed. *)
    (* Client-array order, not hashtable order: cancelling a wait
       schedules the victim fiber's resumption, so the iteration order
       here is part of the event schedule and must stay deterministic. *)
    let cs = sys.clients in
    for cid = 0 to cs.n - 1 do
      match cs.running.(cid) with
      | Some txn
        when (not txn.doomed)
             && (txn.rpc_sid = sid || List.mem sid (Srv.participants sys txn))
        ->
        txn.doomed <- true;
        Waits_for.cancel_wait sys.servers.(0).wfg txn.tid
      | Some _ | None -> ()
    done;
    (* Purge the volatile tables.  Lock holders are swept through the
       table's own per-transaction maps (the object-lock index entries
       of cancelled waiters unwind in their own fibers).  All queues
       are empty of waiters by now, so the releases grant nothing. *)
    let holders table =
      let acc = ref [] in
      Lock_table.iter_holders table (fun _ h -> acc := h :: !acc);
      List.sort_uniq compare !acc
    in
    List.iter
      (fun tid ->
        List.iter
          (fun o -> unindex_obj_lock sv o)
          (Lock_table.locks_of sv.olocks ~txn:tid);
        Lock_table.release_all sv.olocks ~txn:tid)
      (holders sv.olocks);
    List.iter
      (fun tid -> Lock_table.release_all sv.plocks ~txn:tid)
      (holders sv.plocks);
    Hashtbl.reset sv.token_owner;
    for cid = 0 to cs.n - 1 do
      ignore (Copy_table.purge_client sv.pcopies ~client:cid);
      ignore (Copy_table.purge_client sv.ocopies ~client:cid)
    done;
    Buffer_pool.reset sv.sbuffer;
    Faults.run_hook sys.faults "server-crash"
  end

(* Count (and, unless sabotaged, re-register) the copies an up client
   caches from the crashed server's partition, mirroring exactly the
   coverage the audit's invariant 3 demands.  No suspension occurs
   inside: the enumeration and the registrations form one atomic
   snapshot of the client's cache, so a copy installed or dropped later
   is handled by the normal install/drop bookkeeping. *)
let reconstruct_client_copies sys sv cid =
  let cs = sys.clients in
  let register = not sys.cfg.Config.srv_skip_reconstruction in
  let rows = ref 0 in
  let owned p = Model.owner_sid sys p = sv.sid in
  if Algo.page_grain_copies sys.algo then
    Lru.iter cs.cache.(cid) (fun p _ ->
        if owned p then begin
          incr rows;
          if register then Copy_table.register sv.pcopies p ~client:cid
        end)
  else if sys.algo = Algo.OS then
    Lru.iter cs.ocache.(cid) (fun o _ ->
        if owned o.Ids.Oid.page then begin
          incr rows;
          if register then Copy_table.register sv.ocopies o ~client:cid
        end)
  else
    (* PS-OO: object-grain registrations for the available slots of
       each cached page. *)
    Lru.iter cs.cache.(cid) (fun p entry ->
        if owned p then
          for slot = 0 to sys.cfg.Config.objects_per_page - 1 do
            if not (Ids.Int_set.mem slot entry.unavailable) then begin
              incr rows;
              if register then
                Copy_table.register sv.ocopies
                  (Ids.Oid.make ~page:p ~slot)
                  ~client:cid
            end
          done);
  !rows

(* Restart: replay the redo-log tail bounded by the last flush, then
   rebuild the callback state with the surviving clients' help — each
   reconnects and re-ships its copy-table rows for the partition —
   and only then reopen for normal traffic.  During the recovery the
   server admits nothing but [M_recover] messages, so no grant can
   race the reconstruction. *)
let restart_server sys sid =
  let sv = sys.servers.(sid) in
  if sv.srv_state = Srv_down then begin
    sv.srv_state <- Srv_recovering;
    (* Phase 1: redo.  One log-device read plus per-record replay CPU;
       the flush cadence bounds how much tail can have accumulated. *)
    let records = sv.log_records in
    Model.tl_hook sys (fun x ->
        Tl.srv_replay x ~sid ~records ~now:(Engine.now sys.engine));
    Resources.Cpu.system sv.scpu sys.cfg.Config.disk_overhead_inst;
    Resources.Disk_array.io sv.sdisks;
    if records > 0 then
      Resources.Cpu.system sv.scpu
        (float_of_int records *. sys.cfg.Config.redo_per_object_inst);
    sv.log_records <- 0;
    (* Phase 2: client-assisted callback reconstruction.  Each up
       client is asked to reconnect and re-ship its copy-table rows;
       the registration batch is atomic with the report. *)
    let total = ref 0 in
    let cs = sys.clients in
    for cid = 0 to cs.n - 1 do
      if cs.up.(cid) then begin
        Netlayer.control sys ~cls:Metrics.M_recover ~src:(Netlayer.Server sid)
          ~dst:(Netlayer.Client cid);
        let rows = reconstruct_client_copies sys sv cid in
        total := !total + rows;
        Netlayer.objs_data sys ~cls:Metrics.M_recover
          ~src:(Netlayer.Client cid) ~dst:(Netlayer.Server sid) ~count:rows;
        if rows > 0 then
          Resources.Cpu.system sv.scpu
            (float_of_int rows *. sys.cfg.Config.register_copy_inst)
      end
    done;
    Model.tl_hook sys (fun x ->
        Tl.srv_reconstruct x ~sid ~rows:!total ~now:(Engine.now sys.engine));
    (* Phase 3: reopen.  Every cached copy of the partition is covered
       again from here on, which the audit's journal cannot express. *)
    sv.srv_state <- Srv_up;
    sys.sweep_pending <- true;
    let now = Engine.now sys.engine in
    Faults.note_srv_recovery sys.faults ~latency:(now -. sv.srv_crashed_at);
    Model.tl_hook sys (fun x -> Tl.srv_reopen x ~sid ~now);
    Faults.run_hook sys.faults "server-restart"
  end

let install sys =
  let f = sys.faults in
  if Faults.crash_faults f then begin
    let cs = sys.clients in
    for cid = 0 to cs.n - 1 do
      Proc.spawn sys.engine (fun () ->
          let restart_delay = (Faults.profile f).Faults.restart_delay in
          while sys.live do
            Proc.hold sys.engine (Faults.next_crash_delay f);
            if sys.live && cs.up.(cid) then begin
              crash_client sys cid;
              Proc.hold sys.engine restart_delay;
              if sys.live then restart_client sys cid
            end
          done)
    done
  end;
  if Faults.srv_faults f then
    Array.iter
      (fun sv ->
        (* Log-flush fiber: the durability point.  Every interval the
           accumulated redo tail is forced to disk (one I/O), bounding
           what a crash can leave to replay.  The counter is zeroed at
           the force point; records arriving during the I/O belong to
           the next window. *)
        Proc.spawn sys.engine (fun () ->
            let dt = (Faults.profile f).Faults.log_flush_interval in
            while sys.live do
              Proc.hold sys.engine dt;
              if sys.live && sv.srv_state = Srv_up && sv.log_records > 0 then begin
                sv.log_records <- 0;
                Resources.Cpu.system sv.scpu sys.cfg.Config.disk_overhead_inst;
                Resources.Disk_array.io sv.sdisks
              end
            done);
        (* Crash/restart driver: crashes only strike an up server, so a
           recovery is never itself interrupted and down spans stay
           serialized per server. *)
        Proc.spawn sys.engine (fun () ->
            let restart_delay = (Faults.profile f).Faults.srv_restart_delay in
            while sys.live do
              Proc.hold sys.engine (Faults.next_srv_crash_delay f);
              if sys.live && sv.srv_state = Srv_up then begin
                crash_server sys sv.sid;
                Proc.hold sys.engine restart_delay;
                if sys.live then restart_server sys sv.sid
              end
            done))
      sys.servers
