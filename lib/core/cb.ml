open Storage
open Simcore
open Model

type kind =
  | Purge_page of Ids.page
  | Purge_obj of Ids.Oid.t
  | Mark_obj of Ids.Oid.t
  | Adaptive of Ids.Oid.t

type result = Purged | Marked | Not_cached

(* Block behind the client's running transaction: the remote writer now
   waits (transitively) on it, which the deadlock detector must see.
   The edge lands in the writing server's graph ([sv], the owner of the
   contested page); detection runs on the cluster union, so a cycle
   closed through another partition's graph is still found. *)
let wait_for_txn_end sys sv cid ~writer ~blocking =
  Metrics.note_callback_blocked sys.metrics;
  Model.tl_hook sys (fun x ->
      Tl.cb_blocked x ~client:cid ~writer ~now:(Engine.now sys.engine));
  Locking.Waits_for.add_blocker sv.Model.wfg writer blocking;
  ignore (Locking.Waits_for.check_deadlock sv.Model.wfg ~from:writer);
  Proc.suspend (fun w ->
      sys.clients.end_hooks.(cid) <-
        (fun () -> Proc.resume w (Ok ())) :: sys.clients.end_hooks.(cid))

let handle sys ~sv ~client:cid ~writer kind =
  let cs = sys.clients in
  Resources.Cpu.system (Model.client_cpu sys cid) sys.cfg.Config.lock_inst;
  let rec attempt () =
    match kind with
    | Purge_page p -> (
      if not (Lru.mem cs.cache.(cid) p) then Not_cached
      else
        match cs.running.(cid) with
        | Some txn when page_in_use txn p ->
          wait_for_txn_end sys sv cid ~writer ~blocking:txn.tid;
          attempt ()
        | Some _ | None ->
          Cache_ops.drop_page sys cid p ~discard_dirty:false;
          Purged)
    | Purge_obj o -> (
      if not (Lru.mem cs.ocache.(cid) o) then Not_cached
      else
        match cs.running.(cid) with
        | Some txn when obj_in_use txn o ->
          wait_for_txn_end sys sv cid ~writer ~blocking:txn.tid;
          attempt ()
        | Some _ | None ->
          Cache_ops.drop_object sys cid o;
          Purged)
    | Mark_obj o -> (
      match cs.running.(cid) with
      | Some txn when obj_in_use txn o ->
        wait_for_txn_end sys sv cid ~writer ~blocking:txn.tid;
        attempt ()
      | Some _ | None ->
        if Lru.mem cs.cache.(cid) o.Ids.Oid.page then begin
          Cache_ops.mark_unavailable sys cid o;
          Marked
        end
        else Not_cached)
    | Adaptive o -> (
      let p = o.Ids.Oid.page in
      if not (Lru.mem cs.cache.(cid) p) then Not_cached
      else
        match cs.running.(cid) with
        | Some txn when obj_in_use txn o ->
          wait_for_txn_end sys sv cid ~writer ~blocking:txn.tid;
          attempt ()
        | Some txn when page_in_use txn p ->
          (* Another object on the page is in use: de-escalated
             callback — mark only the requested object. *)
          Cache_ops.mark_unavailable sys cid o;
          Marked
        | Some _ | None ->
          Cache_ops.drop_page sys cid p ~discard_dirty:false;
          Purged)
  in
  attempt ()
