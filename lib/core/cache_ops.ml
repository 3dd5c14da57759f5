open Storage
open Model

(* Release the copy-table references held by a resident page copy: its
   page reference under page-grain copy tracking, or one reference per
   available slot under PS-OO.  The matching [register] happens
   server-side when the copy is shipped (Srv.reply_page), so a fresh
   copy in transit keeps its own reference even while its predecessor
   is being dropped. *)
let release_page_copy_refs sys cid p (entry : page_entry) =
  Locking.Copy_table.unregister
    ~skip:(Model.unregistered_slots sys entry.unavailable)
    (Model.server_of sys p).pcopies p ~client:cid

(* Mirror cache traffic into the oracle's shadow store.  A slot marked
   unavailable is not a readable copy, and a dirty slot holds the local
   transaction's pending version, which the server's copy must not
   overwrite. *)
let oracle_note_page_copy sys cid p (entry : page_entry) =
  Model.oracle_hook sys (fun o ->
      for slot = 0 to sys.cfg.Config.objects_per_page - 1 do
        let oid = Ids.Oid.make ~page:p ~slot in
        if Ids.Int_set.mem slot entry.unavailable then
          Oracle.History.drop_copy o ~client:cid ~oid
        else if not (Ids.Int_set.mem slot entry.dirty) then
          Oracle.History.install_copy o ~client:cid ~oid
      done)

let oracle_forget_page sys cid p =
  Model.oracle_hook sys (fun o ->
      for slot = 0 to sys.cfg.Config.objects_per_page - 1 do
        Oracle.History.drop_copy o ~client:cid ~oid:(Ids.Oid.make ~page:p ~slot)
      done)

let drop_page sys cid p ~discard_dirty =
  match Lru.remove sys.clients.cache.(cid) p with
  | None -> ()
  | Some entry ->
    if (not discard_dirty) && not (Ids.Int_set.is_empty entry.dirty) then
      invalid_arg "Cache_ops.drop_page: dropping uncommitted updates";
    release_page_copy_refs sys cid p entry;
    oracle_forget_page sys cid p

let drop_object sys cid oid =
  match Lru.remove sys.clients.ocache.(cid) oid with
  | None -> ()
  | Some _ ->
    Locking.Copy_table.unregister
      (Model.server_of sys oid.Ids.Oid.page).ocopies oid ~client:cid;
    Model.oracle_hook sys (fun o ->
        Oracle.History.drop_copy o ~client:cid ~oid)

let mark_unavailable sys cid oid =
  match Lru.peek sys.clients.cache.(cid) oid.Ids.Oid.page with
  | None -> ()
  | Some entry ->
    if not (Ids.Int_set.mem oid.Ids.Oid.slot entry.unavailable) then begin
      entry.unavailable <- Ids.Int_set.add oid.Ids.Oid.slot entry.unavailable;
      (* Under PS-OO the mark retires this copy's reference for the
         object's slot. *)
      if not (Algo.page_grain_copies sys.algo) then
        Locking.Copy_table.unregister_slot
          (Model.server_of sys oid.Ids.Oid.page).pcopies oid.Ids.Oid.page
          ~slot:oid.Ids.Oid.slot ~client:cid;
      Model.oracle_hook sys (fun o ->
          Oracle.History.drop_copy o ~client:cid ~oid)
    end

let install_page sys cid txn p ~unavailable ~version =
  (* Both branches can add coverage obligations: a new copy, or a
     refresh whose slots become available again. *)
  Locking.Journal.push sys.page_installs p ~site:cid;
  match Lru.find sys.clients.cache.(cid) p with
  | Some entry ->
    (* Re-receiving a page we still cache: the incoming copy replaces
       the old one (releasing the old copy's registrations — the ones
       made when the incoming copy was shipped take over), merging so
       our own uncommitted updates stay visible and available. *)
    release_page_copy_refs sys cid p entry;
    if not (Ids.Int_set.is_empty entry.dirty) then begin
      Metrics.note_client_merge sys.metrics
        ~objects:(Ids.Int_set.cardinal entry.dirty);
      Resources.Cpu.system (Model.client_cpu sys cid)
        (sys.cfg.Config.copy_merge_inst
        *. float_of_int (Ids.Int_set.cardinal entry.dirty))
    end;
    entry.unavailable <- Ids.Int_set.diff unavailable entry.dirty;
    entry.fetch_version <- version;
    oracle_note_page_copy sys cid p entry;
    ignore txn;
    None
  | None ->
    let entry =
      { unavailable; dirty = Ids.Int_set.empty; fetch_version = version }
    in
    oracle_note_page_copy sys cid p entry;
    (match Lru.add sys.clients.cache.(cid) p entry with
    | None -> None
    | Some (victim, ventry) ->
      release_page_copy_refs sys cid victim ventry;
      oracle_forget_page sys cid victim;
      if Ids.Int_set.is_empty ventry.dirty then None
      else Some (victim, ventry.dirty, ventry.fetch_version))

let install_object sys cid oid =
  match Lru.find sys.clients.ocache.(cid) oid with
  | Some entry ->
    (* Already cached: the shipment added a duplicate reference at the
       server; the merged copy keeps a single one. *)
    Locking.Copy_table.unregister
      (Model.server_of sys oid.Ids.Oid.page).ocopies oid ~client:cid;
    if not entry.odirty then
      Model.oracle_hook sys (fun o ->
          Oracle.History.install_copy o ~client:cid ~oid);
    None
  | None -> (
    Locking.Journal.push sys.obj_installs oid ~site:cid;
    Model.oracle_hook sys (fun o ->
        Oracle.History.install_copy o ~client:cid ~oid);
    match Lru.add sys.clients.ocache.(cid) oid { odirty = false } with
    | None -> None
    | Some (victim, ventry) ->
      Locking.Copy_table.unregister
        (Model.server_of sys victim.Ids.Oid.page).ocopies victim ~client:cid;
      Model.oracle_hook sys (fun o ->
          Oracle.History.drop_copy o ~client:cid ~oid:victim);
      if ventry.odirty then Some victim else None)
