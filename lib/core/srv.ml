open Storage
open Simcore
open Model
open Locking

type read_reply =
  | R_page of { unavailable : Ids.Int_set.t; version : int }
  | R_objs of Ids.Oid.t list
  | R_aborted

type write_reply = W_page | W_obj | W_aborted

let scharge sv instr = Resources.Cpu.system sv.scpu instr

(* Server-side zombie guard.  An RPC executes in the requesting client's
   fiber; if that client crashes while the fiber is suspended on a
   server resource, the crash handler has already reclaimed the
   transaction (locks, copies, waits-for entry).  The resumed fiber must
   then acquire nothing new — a lock granted to the ended transaction
   would leak forever.  Checked after suspension points that precede a
   grant or a registration.  A doomed transaction — one that touched a
   server that crashed while it ran — is equally dead: its state at the
   crashed server is gone, so nothing may be granted in its name. *)
let txn_dead sys txn = txn.doomed || not (Model.txn_live sys txn)

(* One physical I/O: initiation CPU then the disk itself. *)
let disk_io sys sv =
  scharge sv sys.cfg.Config.disk_overhead_inst;
  Resources.Disk_array.io sv.sdisks

(* Ensure a page is resident at its owning server, paying the read (and
   any dirty write-back).  [read_from_disk:false] installs a full
   incoming page copy, which needs no read.  Nothing installs into the
   memory of a failed machine: if the owner crashed while the calling
   fiber was suspended, the access is silently dropped (the caller's
   transaction is doomed and aborts at its next liveness check). *)
let buffer_page sys p ~read_from_disk =
  let sv = server_of sys p in
  if sv.srv_state <> Srv_up then ()
  else
  match Buffer_pool.access sv.sbuffer p with
  | Buffer_pool.Hit -> ()
  | Buffer_pool.Miss evicted ->
    (match evicted with
    | Some (_victim, true) -> disk_io sys sv (* write back dirty victim *)
    | Some (_, false) | None -> ());
    if read_from_disk then disk_io sys sv

(* Release from the lock tables' own per-transaction maps, not the
   client's mirror: a deadlock victim may hold locks the server granted
   moments before the abort reply, which the client never recorded.
   Idempotent, so it is safe both as normal termination and as the
   cleanup path for a transaction whose locks crash recovery already
   reclaimed.  Sweeps every partition: a transaction may hold locks at
   any server whose pages it touched. *)
let release_txn_locks sys txn =
  Array.iter
    (fun sv ->
      List.iter
        (fun o -> unindex_obj_lock sv o)
        (Lock_table.locks_of sv.olocks ~txn:txn.tid);
      Lock_table.release_all sv.olocks ~txn:txn.tid;
      Lock_table.release_all sv.plocks ~txn:txn.tid;
      Waits_for.end_txn sv.wfg txn.tid)
    sys.servers

(* Blocking lock-table request with wait-time accounting.  A doomed
   transaction gets nothing: a crash already reclaimed its state, and a
   grant now would outlive its abort. *)
let locked_acquire sys table item ~txn ~kind =
  if txn.doomed then Lock_types.Aborted
  else
  let t0 = Engine.now sys.engine in
  let g = Lock_table.acquire table item ~txn:txn.tid ~kind in
  let dt = Engine.now sys.engine -. t0 in
  if dt > 0.0 then Metrics.note_lock_wait sys.metrics ~duration:dt;
  g

(* --- Callbacks ------------------------------------------------------- *)

let page_of_kind = function
  | Cb.Purge_page p -> p
  | Cb.Purge_obj o | Cb.Mark_obj o | Cb.Adaptive o -> o.Ids.Oid.page

(* The copy tables are maintained exactly and exclusively by the
   client-side cache operations (install/drop/mark, with piggybacked
   deregistration), so a callback acknowledgement never mutates them:
   updating the table at ack time would race with the target refetching
   the item while the ack is in transit, erasing a registration the
   client legitimately holds. *)
let copy_registered sys kind target =
  let sv = server_of sys (page_of_kind kind) in
  match kind with
  | Cb.Purge_page p -> Copy_table.holds sv.pcopies p ~client:target
  | Cb.Adaptive o -> Copy_table.holds sv.pcopies o.Ids.Oid.page ~client:target
  | Cb.Purge_obj o | Cb.Mark_obj o -> Copy_table.holds sv.ocopies o ~client:target

(* Issue callbacks to [targets] and wait for all acknowledgements.  The
   writer's wait is registered in the owning server's waits-for graph
   (the per-client handlers add the actual edges as they discover local
   conflicts); if the writer is chosen as a deadlock victim meanwhile,
   the wait resolves to [`Aborted] and the stragglers complete
   harmlessly in the background.

   When a target's home server differs from the owning server (only
   possible at servers > 1), the callback is forwarded: the owner sends
   an [M_cb_forward] control message to the home server, which relays
   the callback to the client over its session channel and ships the
   acknowledgement back the same way, charging [forward_inst] relay CPU.
   At servers=1 owner and home always coincide and the path is
   byte-identical to the singleton transport.

   A [Not_cached] result while the server still has the target
   registered means the copy was in transit to the client when the
   callback arrived; the callback is re-sent so the conflict is resolved
   against the installed copy rather than silently ignored. *)
let do_callbacks sys sv ~writer ~kind ~targets =
  (* Sabotage knob for oracle negative tests: silently skip every Nth
     callback target, leaving its stale copy registered and readable —
     exactly the class of protocol bug the serializability oracle
     exists to catch.  Off ([cb_drop_every = 0]) outside those tests. *)
  let targets =
    let every = sys.cfg.Config.cb_drop_every in
    if every <= 0 then targets
    else
      List.filter
        (fun _ ->
          sv.cb_drop_clock <- sv.cb_drop_clock + 1;
          sv.cb_drop_clock mod every <> 0)
        targets
  in
  if targets = [] then `Acks []
  else begin
    let engine = sys.engine in
    let owner = sv.sid in
    let gather = Gather.create engine (List.length targets) in
    let outcome = Ivar.create engine in
    Waits_for.set_wait ~info:"callback-gather" sv.wfg writer ~blockers:[]
      ~cancel:(fun () ->
        if not (Ivar.is_full outcome) then Ivar.fill outcome `Aborted);
    List.iter
      (fun target ->
        Proc.spawn engine (fun () ->
            let home = home_sid sys target in
            let t0 = Engine.now engine in
            Model.tl_hook sys (fun x ->
                Tl.callback_sent x ~sid:owner ~target ~now:t0);
            (* The three server-destined legs are persistent sends:
               callback delivery is a correctness requirement, so a leg
               addressed to a crashed relay retries until the restart
               driver reopens it rather than giving the message away. *)
            let rec round () =
              if home <> owner then begin
                (* Cross-partition leg: owner -> home relay. *)
                ignore
                  (Netlayer.control_checked ~persist:true sys
                     ~cls:Metrics.M_cb_forward ~src:(Netlayer.Server owner)
                     ~dst:(Netlayer.Server home));
                Resources.Cpu.system sys.servers.(home).scpu
                  sys.cfg.Config.forward_inst;
                Model.tl_hook sys (fun x ->
                    Tl.callback_forward x ~sid:home ~target
                      ~now:(Engine.now engine))
              end;
              Netlayer.control sys ~cls:Metrics.M_callback
                ~src:(Netlayer.Server home) ~dst:(Netlayer.Client target);
              let result = Cb.handle sys ~sv ~client:target ~writer kind in
              ignore
                (Netlayer.control_checked ~persist:true sys
                   ~cls:Metrics.M_callback_reply ~src:(Netlayer.Client target)
                   ~dst:(Netlayer.Server home));
              if home <> owner then
                ignore
                  (Netlayer.control_checked ~persist:true sys
                     ~cls:Metrics.M_cb_forward ~src:(Netlayer.Server home)
                     ~dst:(Netlayer.Server owner));
              scharge sv sys.cfg.Config.register_copy_inst;
              match result with
              | Cb.Not_cached when copy_registered sys kind target ->
                round ()
              | result ->
                (* One full round-trip per target: post to processed
                   ack, re-sends and blocking at the target included —
                   the latency a writer actually waits out. *)
                let now = Engine.now engine in
                Metrics.note_cb_round sys.metrics ~duration:(now -. t0);
                Model.tl_hook sys (fun x ->
                    Tl.callback_ack x ~sid:owner ~target ~now);
                Gather.add gather (target, result)
            in
            round ()))
      targets;
    Proc.spawn engine (fun () ->
        let results = Gather.wait gather in
        if not (Ivar.is_full outcome) then Ivar.fill outcome (`Acks results));
    let r = Ivar.read outcome in
    (match r with
    | `Acks _ -> Waits_for.clear_wait sv.wfg writer
    | `Aborted -> ());
    r
  end

(* Size-changing update model (Section 6.1): each installed update may
   have grown its object; a grown object overflows its page with some
   probability, costing forwarding work and an extra I/O to update the
   anchor page of the forwarded object. *)
let maybe_overflow sys sv ~objects =
  let cfg = sys.cfg in
  let p_over = cfg.Config.size_change_prob *. cfg.Config.overflow_prob in
  if p_over > 0.0 then
    for _ = 1 to objects do
      if Rng.bool sv.srv_rng ~p:p_over then begin
        Metrics.note_overflow sys.metrics;
        scharge sv cfg.Config.forward_inst;
        disk_io sys sv
      end
    done

(* --- PS-AA de-escalation --------------------------------------------- *)

(* Ask the holder of a page write lock to de-escalate: it registers
   object write locks for the objects it has updated on the page and
   gives up the page lock (Section 3.3.3).  Runs at the page's owning
   server. *)
let deescalate_page sys p holder =
  let sv = server_of sys p in
  match Hashtbl.find_opt sv.deesc_inflight p with
  | Some inflight ->
    (* Another request already triggered this de-escalation; just wait
       for it to finish. *)
    Ivar.read inflight
  | None -> (
    match Model.txn_of_tid sys holder with
    | None -> () (* holder finished in the meantime *)
    | Some ht ->
      let hcid = ht.client in
      let inflight = Ivar.create sys.engine in
      Hashtbl.replace sv.deesc_inflight p inflight;
      Netlayer.control sys ~cls:Metrics.M_deescalate
        ~src:(Netlayer.Server sv.sid) ~dst:(Netlayer.Client hcid);
      (* Client side: atomically convert the local bookkeeping so any
         further updates at the holder request proper object locks. *)
      Resources.Cpu.system sys.clients.ccpu.(hcid) sys.cfg.Config.lock_inst;
      (* Re-resolve after the suspensions above: the holder may have
         ended (or its client started a new transaction) while the
         message and CPU charge were in flight. *)
      let objs =
        match Model.txn_of_tid sys holder with
        | Some t when Ids.Page_set.mem p t.wpages ->
          let objs =
            Ids.Oid_set.filter (fun o -> o.Ids.Oid.page = p) t.updated
          in
          t.wpages <- Ids.Page_set.remove p t.wpages;
          t.wobjs <- Ids.Oid_set.union objs t.wobjs;
          objs
        | Some _ | None -> Ids.Oid_set.empty
      in
      Netlayer.control sys ~cls:Metrics.M_deescalate_reply
        ~src:(Netlayer.Client hcid) ~dst:(Netlayer.Server sv.sid);
      let n = Ids.Oid_set.cardinal objs in
      if n > 0 then begin
        scharge sv (float_of_int n *. sys.cfg.Config.deescalate_inst);
        (* The holder may have committed or aborted while the reply (or
           the CPU charge above) was pending — its server-side locks are
           then already gone even though the client-side [running] field
           lingers until the commit reply returns.  Converting locks for
           such a transaction would leak them forever, so the precise
           guard is that the page write lock is still held; no suspension
           can occur between this check and the lock surgery below. *)
        let holder_alive = Lock_table.holder sv.plocks p = Some holder in
        if holder_alive then begin
          Ids.Oid_set.iter
            (fun o ->
              Lock_table.force_grant sv.olocks o ~txn:holder;
              index_obj_lock sv o)
            objs;
          Lock_table.release sv.plocks p ~txn:holder;
          Metrics.note_deescalation sys.metrics ~objects:n;
          Model.tl_hook sys (fun x ->
              Tl.deescalate x ~sid:sv.sid ~page:p ~now:(Engine.now sys.engine))
        end
      end;
      Hashtbl.remove sv.deesc_inflight p;
      Ivar.fill inflight ())

(* Repeat until the page carries no foreign page-grain write lock.  Each
   round either converts the current holder's lock, observes that it is
   gone, or — when the holder is mid-commit/mid-abort (its client no
   longer runs the transaction but the server has not yet processed the
   release) — waits behind the lock with a read probe rather than
   spinning at the same simulated instant.  Returns [Aborted] if the
   requester loses a deadlock while probing. *)
let rec deescalate_loop sys txn p =
  let sv = server_of sys p in
  match Lock_table.holder sv.plocks p with
  | Some h when h <> txn.tid -> (
    match Model.txn_of_tid sys h with
    | Some _ ->
      deescalate_page sys p h;
      deescalate_loop sys txn p
    | None -> (
      match locked_acquire sys sv.plocks p ~txn ~kind:Lock_types.Probe with
      | Lock_types.Aborted -> Lock_types.Aborted
      | Lock_types.Granted -> deescalate_loop sys txn p))
  | Some _ | None -> Lock_types.Granted

(* --- Write-token page updates (Section 6.1 alternative) ---------------- *)

(* Under [Config.Write_token] a page has at most one updater at a time:
   a writer must own the page's update token.  Taking the token from a
   transaction with uncommitted updates on the page blocks until that
   transaction terminates (with a deadlock-detectable wait); taking it
   from an idle owner bounces the page through its owning server — the
   communication cost the paper cites as the approach's weakness. *)
let acquire_token sys txn p =
  let sv = server_of sys p in
  let rec go () =
    match Hashtbl.find_opt sv.token_owner p with
    | Some (owner_client, owner_tid) when owner_client <> txn.client -> (
      (* The owning transaction counts as live as long as it runs: its
         first update may not be recorded yet when its lock grant and a
         competitor's token request race, and stealing the token in that
         window would let two transactions update the page at once. *)
      let live_owner =
        match client_txn sys owner_client with
        | Some t when t.tid = owner_tid -> Some t
        | Some _ | None -> None
      in
      match live_owner with
      | Some t -> (
        (* Owner still has uncommitted updates: wait for its end. *)
        Metrics.note_token_wait sys.metrics;
        let outcome =
          Proc.suspend sys.engine (fun resume ->
              let fired = ref false in
              let fire r =
                if not !fired then begin
                  fired := true;
                  resume (Ok r)
                end
              in
              let hooks = sys.clients.end_hooks in
              hooks.(owner_client) <- (fun () -> fire `Retry) :: hooks.(owner_client);
              Waits_for.set_wait ~info:"token" sv.wfg txn.tid
                ~blockers:[ t.tid ] ~cancel:(fun () -> fire `Aborted);
              ignore (Waits_for.check_deadlock sv.wfg ~from:txn.tid))
        in
        match outcome with
        | `Aborted -> Lock_types.Aborted
        | `Retry ->
          Waits_for.clear_wait sv.wfg txn.tid;
          go ())
      | None ->
        (* Idle owner: bounce the latest copy of the page through the
           server to the new owner. *)
        Metrics.note_token_bounce sys.metrics;
        Netlayer.page_data sys ~cls:Metrics.M_dirty_data
          ~src:(Netlayer.Client owner_client) ~dst:(Netlayer.Server sv.sid);
        buffer_page sys p ~read_from_disk:false;
        Netlayer.page_data sys ~cls:Metrics.M_dirty_data
          ~src:(Netlayer.Server sv.sid) ~dst:(Netlayer.Client txn.client);
        if txn_dead sys txn then Lock_types.Aborted
        else begin
          (* The bounce refreshed the new owner's copy. *)
          (match Lru.peek sys.clients.cache.(txn.client) p with
          | Some entry ->
            entry.fetch_version <- page_version sys p;
            Cache_ops.oracle_note_page_copy sys txn.client p entry
          | None -> ());
          Hashtbl.replace sv.token_owner p (txn.client, txn.tid);
          Lock_types.Granted
        end)
    | Some _ | None ->
      if txn_dead sys txn then Lock_types.Aborted
      else begin
        Hashtbl.replace sv.token_owner p (txn.client, txn.tid);
        Lock_types.Granted
      end
  in
  if sys.cfg.Config.update_mode = Config.Merge then Lock_types.Granted
  else go ()

(* --- Read requests ---------------------------------------------------- *)

let reply_abort_read sys sv txn =
  Netlayer.control sys ~cls:Metrics.M_read_reply ~src:(Netlayer.Server sv.sid)
    ~dst:(Netlayer.Client txn.client);
  R_aborted

(* Registration must not happen for a crashed requester: the copy table
   would name a site whose cache no longer exists. *)
let rec reply_page_live sys txn p =
  let sv = server_of sys p in
  scharge sv sys.cfg.Config.register_copy_inst;
  (* The registration charge suspends the server fiber, so the
     requester can crash (and be purged) during it — re-check before
     registering, or the copy table would name a site whose cache no
     longer exists. *)
  if txn_dead sys txn then reply_abort_read sys sv txn
  else if Lock_table.conflicts sv.plocks p ~txn:txn.tid then begin
    (* A page-grain writer won its lock while the copy was being
       prepared (disk read, CPU charges) and collected its callback
       targets from the copy table — which cannot name this requester
       yet.  Shipping now would hand out a copy nobody will ever call
       back: wait for the writer to drain and rebuild the reply from
       the post-write state. *)
    match locked_acquire sys sv.plocks p ~txn ~kind:Lock_types.Probe with
    | Lock_types.Aborted -> reply_abort_read sys sv txn
    | Lock_types.Granted ->
      if txn_dead sys txn then reply_abort_read sys sv txn
      else reply_page_live sys txn p
  end
  else begin
    (* From here to the reply there is no suspension: the availability
       mask, the copy registration and the shipped content form one
       atomic snapshot.  Any writer arriving later finds the
       registration and calls this client back (a callback beating the
       page to the client re-sends until the copy is installed). *)
    let unavailable =
      match sys.algo with
      | Algo.PS -> Ids.Int_set.empty
      | Algo.OS -> assert false
      | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA ->
        foreign_locked_slots sys p ~tid:txn.tid
    in
    (match sys.algo with
    | Algo.PS | Algo.PS_OA | Algo.PS_AA ->
      Copy_table.register sv.pcopies p ~client:txn.client
    | Algo.PS_OO ->
      (* Object-grain copy tracking: register every available object the
         page copy confers, before the reply leaves the server, so a
         writer that wins its lock while the copy is in transit still
         calls this client back. *)
      for slot = 0 to sys.cfg.Config.objects_per_page - 1 do
        if not (Ids.Int_set.mem slot unavailable) then
          Copy_table.register sv.ocopies (Ids.Oid.make ~page:p ~slot)
            ~client:txn.client
      done
    | Algo.OS -> assert false);
    let version = page_version sys p in
    Netlayer.page_data sys ~cls:Metrics.M_read_reply
      ~src:(Netlayer.Server sv.sid) ~dst:(Netlayer.Client txn.client);
    R_page { unavailable; version }
  end

let reply_page sys txn p =
  if txn_dead sys txn then reply_abort_read sys (server_of sys p) txn
  else reply_page_live sys txn p

let read_rpc sys txn oid =
  let p = oid.Ids.Oid.page in
  let sv = server_of sys p in
  (* From the moment the request leaves the client until the reply is
     built, the transaction has in-flight state at [sv] that no table
     records yet; [rpc_sid] lets a crash of [sv] anywhere in that
     window doom it.  It must be set before the send: the transport
     checks the server's state only once at entry, so a crash striking
     mid-transfer would otherwise deliver the request to a machine
     whose purge swept right past this transaction. *)
  txn.rpc_sid <- sv.sid;
  (* The request leg is checked: a down server swallows it, the client
     times out, retries with backoff, and eventually gives the request
     away — no server-side processing, no reply, a local abort. *)
  if
    not
      (Netlayer.control_checked sys ~cls:Metrics.M_read_req
         ~src:(Netlayer.Client txn.client) ~dst:(Netlayer.Server sv.sid))
  then begin
    txn.rpc_sid <- -1;
    R_aborted
  end
  else begin
    let serve () =
  scharge sv sys.cfg.Config.lock_inst;
  if txn_dead sys txn then reply_abort_read sys sv txn
  else
  match sys.algo with
  | Algo.PS -> (
    match locked_acquire sys sv.plocks p ~txn ~kind:Lock_types.Probe with
    | Lock_types.Aborted -> reply_abort_read sys sv txn
    | Lock_types.Granted ->
      buffer_page sys p ~read_from_disk:true;
      reply_page sys txn p)
  | Algo.OS -> (
    match locked_acquire sys sv.olocks oid ~txn ~kind:Lock_types.Probe with
    | Lock_types.Aborted -> reply_abort_read sys sv txn
    | Lock_types.Granted when txn_dead sys txn -> reply_abort_read sys sv txn
    | Lock_types.Granted ->
      buffer_page sys p ~read_from_disk:true;
      let rec reply_objs () =
        scharge sv sys.cfg.Config.register_copy_inst;
        (* The charge suspends; re-check before registering (see
           [reply_page]). *)
        if txn_dead sys txn then reply_abort_read sys sv txn
        else if Lock_table.conflicts sv.olocks oid ~txn:txn.tid then begin
          (* A writer of the requested object won its lock during the
             disk read or the charge and has already collected its
             callback targets; this in-transit copy would never be
             called back.  Wait for the writer to drain and rebuild. *)
          match
            locked_acquire sys sv.olocks oid ~txn ~kind:Lock_types.Probe
          with
          | Lock_types.Aborted -> reply_abort_read sys sv txn
          | Lock_types.Granted ->
            if txn_dead sys txn then reply_abort_read sys sv txn
            else reply_objs ()
        end
        else begin
          (* No suspension from here to the reply: the group snapshot,
             the registrations and the shipped content are atomic.
             With os_group_size > 1 the server ships the whole static
             group around the requested object (a grouped-object
             server, Section 6.2), skipping members write-locked
             elsewhere. *)
          let group =
            let g = sys.cfg.Config.os_group_size in
            if g <= 1 then [ oid ]
            else begin
              let base = oid.Ids.Oid.slot / g * g in
              List.filter_map
                (fun i ->
                  let slot = base + i in
                  if slot >= sys.cfg.Config.objects_per_page then None
                  else
                    let o = Ids.Oid.make ~page:p ~slot in
                    if Ids.Oid.equal o oid then Some o
                    else if Lock_table.conflicts sv.olocks o ~txn:txn.tid then
                      None
                    else Some o)
                (List.init g Fun.id)
            end
          in
          List.iter
            (fun o -> Copy_table.register sv.ocopies o ~client:txn.client)
            group;
          Netlayer.objs_data sys ~cls:Metrics.M_read_reply
            ~src:(Netlayer.Server sv.sid) ~dst:(Netlayer.Client txn.client)
            ~count:(List.length group);
          R_objs group
        end
      in
      reply_objs ())
  | Algo.PS_OO | Algo.PS_OA -> (
    match locked_acquire sys sv.olocks oid ~txn ~kind:Lock_types.Probe with
    | Lock_types.Aborted -> reply_abort_read sys sv txn
    | Lock_types.Granted ->
      buffer_page sys p ~read_from_disk:true;
      reply_page sys txn p)
  | Algo.PS_AA -> (
    match deescalate_loop sys txn p with
    | Lock_types.Aborted -> reply_abort_read sys sv txn
    | Lock_types.Granted -> (
      match locked_acquire sys sv.olocks oid ~txn ~kind:Lock_types.Probe with
      | Lock_types.Aborted -> reply_abort_read sys sv txn
      | Lock_types.Granted -> (
        (* A fresh page-grain lock cannot normally appear while we were
           queued (our requested object was free), but stay defensive. *)
        match deescalate_loop sys txn p with
        | Lock_types.Aborted -> reply_abort_read sys sv txn
        | Lock_types.Granted ->
          buffer_page sys p ~read_from_disk:true;
          reply_page sys txn p)))
    in
    let r = serve () in
    txn.rpc_sid <- -1;
    r
  end

(* --- Write requests ---------------------------------------------------- *)

let reply_write sys sv txn cls reply =
  Netlayer.control sys ~cls ~src:(Netlayer.Server sv.sid)
    ~dst:(Netlayer.Client txn.client);
  reply

(* The index entry is added before the (possibly blocking) acquire:
   marks consult the lock table's holder, so a pending entry changes
   nothing, while a freshly granted lock is immediately visible to any
   reply computed in the same instant — there is no window between the
   queue grant and the indexing. *)
let acquire_obj_lock sys sv txn oid =
  index_obj_lock sv oid;
  match locked_acquire sys sv.olocks oid ~txn ~kind:Lock_types.Lock with
  | Lock_types.Aborted ->
    unindex_obj_lock sv oid;
    false
  | Lock_types.Granted -> true

let write_rpc sys txn oid =
  let p = oid.Ids.Oid.page in
  let sv = server_of sys p in
  (* Checked request leg and in-flight marker set before the send:
     see [read_rpc]. *)
  txn.rpc_sid <- sv.sid;
  if
    not
      (Netlayer.control_checked sys ~cls:Metrics.M_write_req
         ~src:(Netlayer.Client txn.client) ~dst:(Netlayer.Server sv.sid))
  then begin
    txn.rpc_sid <- -1;
    W_aborted
  end
  else begin
    let serve () =
  scharge sv sys.cfg.Config.lock_inst;
  let reply = reply_write sys sv txn Metrics.M_write_reply in
  (* A write grant that lands after the requester crashed would leak the
     lock forever: the crash already released the transaction's locks,
     and nothing will release this one.  Undo and report an abort. *)
  let reply_dead () =
    release_txn_locks sys txn;
    reply W_aborted
  in
  if txn_dead sys txn then reply W_aborted
  else
  match sys.algo with
  | Algo.PS -> (
    match locked_acquire sys sv.plocks p ~txn ~kind:Lock_types.Lock with
    | Lock_types.Aborted -> reply W_aborted
    | Lock_types.Granted when txn_dead sys txn -> reply_dead ()
    | Lock_types.Granted -> (
      let targets =
        Copy_table.holders_except sv.pcopies p ~client:txn.client
      in
      match
        do_callbacks sys sv ~writer:txn.tid ~kind:(Cb.Purge_page p) ~targets
      with
      | `Aborted -> reply W_aborted
      | `Acks _ when txn_dead sys txn -> reply_dead ()
      | `Acks _ ->
        Metrics.note_page_write_grant sys.metrics;
        Model.tl_hook sys (fun x ->
            Tl.page_write_grant x ~sid:sv.sid ~tid:txn.tid
              ~now:(Engine.now sys.engine));
        reply W_page))
  | Algo.OS -> (
    if not (acquire_obj_lock sys sv txn oid) then reply W_aborted
    else if txn_dead sys txn then reply_dead ()
    else
      let targets =
        Copy_table.holders_except sv.ocopies oid ~client:txn.client
      in
      match
        do_callbacks sys sv ~writer:txn.tid ~kind:(Cb.Purge_obj oid) ~targets
      with
      | `Aborted -> reply W_aborted
      | `Acks _ when txn_dead sys txn -> reply_dead ()
      | `Acks _ ->
        Metrics.note_object_write_grant sys.metrics;
        Model.tl_hook sys (fun x ->
            Tl.object_write_grant x ~sid:sv.sid ~tid:txn.tid
              ~now:(Engine.now sys.engine));
        reply W_obj)
  | Algo.PS_OO -> (
    if not (acquire_obj_lock sys sv txn oid) then reply W_aborted
    else if txn_dead sys txn then reply_dead ()
    else if acquire_token sys txn p = Lock_types.Aborted then reply W_aborted
    else
      let targets =
        Copy_table.holders_except sv.ocopies oid ~client:txn.client
      in
      match
        do_callbacks sys sv ~writer:txn.tid ~kind:(Cb.Mark_obj oid) ~targets
      with
      | `Aborted -> reply W_aborted
      | `Acks _ when txn_dead sys txn -> reply_dead ()
      | `Acks _ ->
        Metrics.note_object_write_grant sys.metrics;
        Model.tl_hook sys (fun x ->
            Tl.object_write_grant x ~sid:sv.sid ~tid:txn.tid
              ~now:(Engine.now sys.engine));
        reply W_obj)
  | Algo.PS_OA -> (
    if not (acquire_obj_lock sys sv txn oid) then reply W_aborted
    else if txn_dead sys txn then reply_dead ()
    else if acquire_token sys txn p = Lock_types.Aborted then reply W_aborted
    else
      let targets =
        Copy_table.holders_except sv.pcopies p ~client:txn.client
      in
      match
        do_callbacks sys sv ~writer:txn.tid ~kind:(Cb.Adaptive oid) ~targets
      with
      | `Aborted -> reply W_aborted
      | `Acks _ when txn_dead sys txn -> reply_dead ()
      | `Acks _ ->
        Metrics.note_object_write_grant sys.metrics;
        Model.tl_hook sys (fun x ->
            Tl.object_write_grant x ~sid:sv.sid ~tid:txn.tid
              ~now:(Engine.now sys.engine));
        reply W_obj)
  | Algo.PS_AA -> (
    match deescalate_loop sys txn p with
    | Lock_types.Aborted -> reply W_aborted
    | Lock_types.Granted ->
    if txn_dead sys txn then reply_dead ()
    else if not (acquire_obj_lock sys sv txn oid) then reply W_aborted
    else if txn_dead sys txn then reply_dead ()
    else if acquire_token sys txn p = Lock_types.Aborted then reply W_aborted
    else begin
      match deescalate_loop sys txn p with
      | Lock_types.Aborted -> reply W_aborted
      | Lock_types.Granted ->
      if txn_dead sys txn then reply_dead ()
      else
      let targets =
        Copy_table.holders_except sv.pcopies p ~client:txn.client
      in
      match
        do_callbacks sys sv ~writer:txn.tid ~kind:(Cb.Adaptive oid) ~targets
      with
      | `Aborted -> reply W_aborted
      | `Acks _ when txn_dead sys txn -> reply_dead ()
      | `Acks results ->
        let all_purged =
          List.for_all
            (fun (_, r) -> match r with
              | Cb.Purged | Cb.Not_cached -> true
              | Cb.Marked -> false)
            results
        in
        if
          all_purged
          && Copy_table.holders_except sv.pcopies p ~client:txn.client = []
          && (not (page_has_foreign_obj_lock sys p ~tid:txn.tid))
          && Lock_table.try_acquire sv.plocks p ~txn:txn.tid
               ~kind:Lock_types.Lock
        then begin
          (* Nobody was using the page: escalate to a page write lock
             (this is also how the protocol re-escalates once earlier
             contention has dissipated). *)
          Metrics.note_page_write_grant sys.metrics;
          Model.tl_hook sys (fun x ->
              Tl.escalate x ~sid:sv.sid ~page:p ~now:(Engine.now sys.engine));
          reply W_page
        end
        else begin
          Metrics.note_object_write_grant sys.metrics;
          Model.tl_hook sys (fun x ->
              Tl.object_write_grant x ~sid:sv.sid ~tid:txn.tid
                ~now:(Engine.now sys.engine));
          reply W_obj
        end
    end)
    in
    let r = serve () in
    txn.rpc_sid <- -1;
    r
  end

(* --- Update installation and transaction termination ------------------ *)

let ship_dirty_page sys txn p ~dirty ~fetch_version ~at_commit =
  let sv = server_of sys p in
  (* The owner may have crashed while this fiber was suspended earlier
     in the commit/eviction sequence; a dead machine receives nothing
     and the doomed transaction aborts at its next check. *)
  if sv.srv_state <> Srv_up then ()
  else begin
  Model.oracle_hook sys (fun o ->
      Ids.Int_set.iter
        (fun slot ->
          Oracle.History.ship o ~tid:txn.tid ~oid:(Ids.Oid.make ~page:p ~slot))
        dirty);
  let cls = if at_commit then Metrics.M_commit_data else Metrics.M_dirty_data in
  Netlayer.page_data sys ~cls ~src:(Netlayer.Client txn.client)
    ~dst:(Netlayer.Server sv.sid);
  let n = Ids.Int_set.cardinal dirty in
  let merge_needed =
    (* Under the write-token discipline only one client at a time
       updates a page, and token transfer refreshes the new owner's
       copy, so incoming pages never diverge from the server's. *)
    sys.cfg.Config.update_mode = Config.Merge
    && (page_version sys p > fetch_version
       || page_has_foreign_obj_lock sys p ~tid:txn.tid)
  in
  if merge_needed then begin
    (* Another transaction updated the page since this copy was
       fetched: merge object by object against the server's copy. *)
    buffer_page sys p ~read_from_disk:true;
    scharge sv (sys.cfg.Config.copy_merge_inst *. float_of_int n);
    Metrics.note_merge sys.metrics ~objects:n
  end
  else buffer_page sys p ~read_from_disk:false;
  (* The crash window again: the owner can die during the transfer or
     the merge I/O above, purging its pool mid-install. *)
  if sv.srv_state = Srv_up then begin
    Buffer_pool.mark_dirty sv.sbuffer p;
    maybe_overflow sys sv ~objects:n
  end
  end

let ship_dirty_objs sys txn oids ~at_commit =
  match oids with
  | [] -> ()
  | _ ->
    Model.oracle_hook sys (fun o ->
        List.iter (fun oid -> Oracle.History.ship o ~tid:txn.tid ~oid) oids);
    let cls =
      if at_commit then Metrics.M_commit_data else Metrics.M_dirty_data
    in
    (* One message per owning server (one total in the singleton
       topology), each carrying that partition's objects. *)
    let by_server = Hashtbl.create 4 in
    List.iter
      (fun o ->
        let sid = owner_sid sys o.Ids.Oid.page in
        let prev =
          match Hashtbl.find_opt by_server sid with Some l -> l | None -> []
        in
        Hashtbl.replace by_server sid (o :: prev))
      oids;
    let sids =
      List.sort_uniq compare (List.map (fun o -> owner_sid sys o.Ids.Oid.page) oids)
    in
    List.iter
      (fun sid ->
        let sv = sys.servers.(sid) in
        (* A crashed partition receives nothing (see [ship_dirty_page]);
           the doomed sender aborts at its next liveness check. *)
        if sv.srv_state = Srv_up then begin
          let group = List.rev (Hashtbl.find by_server sid) in
          Netlayer.objs_data sys ~cls ~src:(Netlayer.Client txn.client)
            ~dst:(Netlayer.Server sid) ~count:(List.length group);
          let pages =
            List.sort_uniq compare (List.map (fun o -> o.Ids.Oid.page) group)
          in
          List.iter
            (fun p ->
              if sv.srv_state = Srv_up then begin
                (* Installing an object into a page requires the page
                   frame. *)
                buffer_page sys p ~read_from_disk:true;
                Buffer_pool.mark_dirty sv.sbuffer p
              end)
            pages;
          if sv.srv_state = Srv_up then
            maybe_overflow sys sv ~objects:(List.length group)
        end)
      sids

(* Redo-at-server commit processing: the client ships log records, not
   pages, and each owning server replays the updates of its partition
   onto its own copy.  This saves the page-sized commit messages but
   moves the update CPU work onto the servers (the data-shipping
   offload concern of Section 6.1). *)
let ship_redo_log sys txn =
  let n = Ids.Oid_set.cardinal txn.updated in
  if n > 0 then begin
    Model.oracle_hook sys (fun o ->
        Ids.Oid_set.iter
          (fun oid -> Oracle.History.ship o ~tid:txn.tid ~oid)
          txn.updated);
    let by_page = Hashtbl.create 16 in
    Ids.Oid_set.iter
      (fun o ->
        let p = o.Ids.Oid.page in
        Hashtbl.replace by_page p
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_page p)))
      txn.updated;
    (* Table order, partitioned by owner while preserving the relative
       page order within each partition — with one server this is
       exactly the historical single-message, table-order replay. *)
    let page_counts =
      List.rev (Hashtbl.fold (fun p c acc -> (p, c) :: acc) by_page [])
    in
    let sids =
      List.sort_uniq compare
        (List.map (fun (p, _) -> owner_sid sys p) page_counts)
    in
    List.iter
      (fun sid ->
        let sv = sys.servers.(sid) in
        (* A crashed partition receives nothing (see [ship_dirty_page]). *)
        if sv.srv_state = Srv_up then begin
          let mine =
            List.filter (fun (p, _) -> owner_sid sys p = sid) page_counts
          in
          let objs = List.fold_left (fun acc (_, c) -> acc + c) 0 mine in
          let bytes =
            (objs * sys.cfg.Config.log_record_bytes)
            + Config.control_bytes sys.cfg
          in
          Netlayer.send sys ~cls:Metrics.M_commit_data
            ~src:(Netlayer.Client txn.client) ~dst:(Netlayer.Server sid) ~bytes;
          List.iter
            (fun (p, count) ->
              if sv.srv_state = Srv_up then begin
                buffer_page sys p ~read_from_disk:true;
                scharge sv
                  (float_of_int count *. sys.cfg.Config.redo_per_object_inst);
                Buffer_pool.mark_dirty sv.sbuffer p
              end)
            mine;
          if sv.srv_state = Srv_up then maybe_overflow sys sv ~objects:objs
        end)
      sids
  end

let bump_versions sys txn =
  let counts = Hashtbl.create 16 in
  Ids.Oid_set.iter
    (fun o ->
      let p = o.Ids.Oid.page in
      Hashtbl.replace counts p
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
    txn.updated;
  Hashtbl.iter
    (fun p n ->
      bump_page_version sys p ~by:n;
      (* Each committed object update appends one redo record to the
         owning server's log; the periodic log flush (and a crash's
         restart replay) consumes the counter. *)
      let sv = server_of sys p in
      sv.log_records <- sv.log_records + n)
    counts

(* Commit/abort participants: every server owning a page the transaction
   touched (read or write, either grain), in server order.  A
   transaction that never got far enough to touch anything still
   notifies its client's home server, preserving the historical
   one-round-trip termination; at servers=1 the participant list is
   always [[0]]. *)
let participants sys txn =
  let n = Array.length sys.servers in
  let hit = Array.make n false in
  let add p = hit.(owner_sid sys p) <- true in
  let addo o = add o.Ids.Oid.page in
  Ids.Page_set.iter add txn.read_pages;
  Ids.Page_set.iter add txn.wpages;
  Ids.Oid_set.iter addo txn.read_objs;
  Ids.Oid_set.iter addo txn.wobjs;
  Ids.Oid_set.iter addo txn.updated;
  let out = ref [] in
  for sid = n - 1 downto 0 do
    if hit.(sid) then out := sid :: !out
  done;
  if !out = [] then [ home_sid sys txn.client ] else !out

let commit_rpc sys txn =
  let parts = participants sys txn in
  let legs =
    List.map
      (fun sid ->
        let ok =
          Netlayer.control_checked sys ~cls:Metrics.M_commit
            ~src:(Netlayer.Client txn.client) ~dst:(Netlayer.Server sid)
        in
        if ok then scharge sys.servers.(sid) sys.cfg.Config.lock_inst;
        (sid, ok))
      parts
  in
  (* Presumed abort: the transaction commits only if every participant
     heard the commit and none of them (nor the client) failed while it
     ran.  A transaction whose client crashed mid-commit, or that was
     doomed by a participant crash, does not commit: its updates are
     discarded (no version bumps).  Its locks are still released —
     crash reclamation usually already did, in which case this is a
     no-op. *)
  let committed =
    (not (txn_dead sys txn)) && List.for_all snd legs
  in
  if committed then begin
    bump_versions sys txn;
    (* The commit point: recorded before the locks go, so every later
       conflicting operation is also later in the oracle's commit
       order. *)
    Model.oracle_hook sys (fun o -> Oracle.History.commit o ~tid:txn.tid)
  end;
  release_txn_locks sys txn;
  List.iter
    (fun (sid, ok) ->
      (* A participant that never heard the request, or died before
         answering, sends nothing: the in-doubt client resolves the
         outcome locally by presumed abort. *)
      if ok && sys.servers.(sid).srv_state = Srv_up then
        Netlayer.control sys ~cls:Metrics.M_commit_reply
          ~src:(Netlayer.Server sid) ~dst:(Netlayer.Client txn.client))
    legs;
  committed

let abort_rpc sys txn =
  let parts = participants sys txn in
  let legs =
    List.map
      (fun sid ->
        (* A crashed participant lost the transaction's state with its
           volatile tables, so an abort notice it never hears is moot:
           give it away after the usual retries. *)
        let ok =
          Netlayer.control_checked sys ~cls:Metrics.M_abort
            ~src:(Netlayer.Client txn.client) ~dst:(Netlayer.Server sid)
        in
        if ok then scharge sys.servers.(sid) sys.cfg.Config.lock_inst;
        (sid, ok))
      parts
  in
  release_txn_locks sys txn;
  List.iter
    (fun (sid, ok) ->
      if ok && sys.servers.(sid).srv_state = Srv_up then
        Netlayer.control sys ~cls:Metrics.M_abort_reply
          ~src:(Netlayer.Server sid) ~dst:(Netlayer.Client txn.client))
    legs
