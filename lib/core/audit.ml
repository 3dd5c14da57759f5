open Model
open Storage
open Simcore

exception Violation of string

let oid_str o = Format.asprintf "%a" Ids.Oid.pp o

(* Reads the arrays, not the indexes, so that a violation of the index
   mirror check still shows the true state.  Idle up clients are only
   counted: at 50k clients they would swamp the message. *)
let dump_state sys =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "  clients:";
  let cs = sys.clients in
  let idle = ref 0 in
  for cid = 0 to cs.n - 1 do
    match (cs.up.(cid), cs.running.(cid)) with
    | true, None -> incr idle
    | up, running ->
      add " %d:%s%s" cid
        (if up then "up" else "DOWN")
        (match running with
        | Some t -> Printf.sprintf "(txn %d)" t.tid
        | None -> "")
  done;
  add " (+%d idle up)" !idle;
  Array.iter
    (fun sv ->
      let tag =
        if Array.length sys.servers = 1 then ""
        else Printf.sprintf " s%d" sv.sid
      in
      add "\n %s waits-for:" tag;
      List.iter
        (fun (txn, blockers, info) ->
          add " %d->[%s]%s" txn
            (String.concat "," (List.map string_of_int blockers))
            (if info = "" then "" else "(" ^ info ^ ")"))
        (Locking.Waits_for.dump sv.wfg);
      add "\n %s page-lock queues:" tag;
      List.iter
        (fun (txn, desc) -> add " %d@%s" txn desc)
        (Locking.Lock_table.dump_waiting sv.plocks string_of_int);
      add "\n %s object-lock queues:" tag;
      List.iter
        (fun (txn, desc) -> add " %d@%s" txn desc)
        (Locking.Lock_table.dump_waiting sv.olocks oid_str))
    sys.servers;
  Buffer.contents b

let violation sys ~context fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Violation
           (Printf.sprintf "audit violation [%s] at t=%.6f: %s\n%s" context
              (Engine.now sys.engine) msg (dump_state sys))))
    fmt

(* Invariant 1: every lock-table holder and waiter is an active
   transaction.  A crashed client's transactions are ended during crash
   reclamation, so this also proves no dead client holds locks. *)
let check_lock_liveness sys ~context =
  Array.iter
    (fun sv ->
      (* begin/end_txn are replicated to every partition, so each
         server's own graph knows the full active set. *)
      let wfg = sv.wfg in
      let check_txn what show item txn =
        if not (Locking.Waits_for.is_active wfg txn) then
          violation sys ~context "%s %s by ended transaction %d" what
            (show item) txn
      in
      Locking.Lock_table.iter_holders sv.plocks (fun p h ->
          check_txn "page lock held" string_of_int p h);
      Locking.Lock_table.iter_holders sv.olocks (fun o h ->
          check_txn "object lock held" oid_str o h);
      Locking.Lock_table.iter_waiters sv.plocks (fun p w ->
          check_txn "page-lock wait queued" string_of_int p w);
      Locking.Lock_table.iter_waiters sv.olocks (fun o w ->
          check_txn "object-lock wait queued" oid_str o w))
    sys.servers

(* Invariant 2: granularity compatibility — a page write lock excludes
   object write locks on the same page by other transactions. *)
let check_lock_compat sys ~context =
  Array.iter
    (fun sv ->
      Locking.Lock_table.iter_holders sv.plocks (fun p h ->
          if Model.page_has_foreign_obj_lock sys p ~tid:h then
            violation sys ~context
              "page %d write-locked by txn %d while a foreign object lock \
               exists"
              p h))
    sys.servers

(* Invariant 3: callback coverage — every copy cached at an up client is
   registered (>= 1 reference; a second in-flight reference is legal).
   Without this the server would skip the client during callbacks and
   the stale copy could serve a later read.

   A partition whose server is down or recovering is exempt: its copy
   table was lost with the crash and is rebuilt (from exactly the
   cached copies enumerated here) before the server reopens — during
   the outage nothing can be granted there, so the uncovered copies
   are unreadable-stale at worst, never servable-stale.

   The whole check is disabled under the [srv_skip_reconstruction]
   sabotage: skipping the rebuild leaves copies permanently uncovered,
   and the point of that knob is proving the serializability oracle —
   not this audit — catches the resulting write skew.

   A copy can only become uncovered through three events, each logged
   at its one mutation site: it enters a cache or a PS-OO slot becomes
   available again ([sys.page_installs] / [sys.obj_installs], written by
   Cache_ops), a registration count drops to zero ([Copy_table.zeroed]),
   or a client or partition comes back up ([sys.sweep_pending], set by
   Crash).  Given that the invariant held at the previous audit, the
   journal check re-verifies just the logged pairs, for every client;
   the sweep re-verifies every cached copy.  Every lookup here is
   [Lru.peek]/[Lru.mem]/[Lru.iter]: recency decides eviction, so the
   audit must not touch it. *)
let covered_partition sys p = (Model.server_of sys p).srv_state = Srv_up

(* An object cached under OS. *)
let check_object_copy sys ~context cid o =
  let p = o.Ids.Oid.page in
  if
    covered_partition sys p
    && not
         (Locking.Copy_table.holds (Model.server_of sys p).ocopies o
            ~client:cid)
  then
    violation sys ~context "client %d caches object %s without a copy registration"
      cid (oid_str o)

(* A cached page copy: its registration must count every slot the
   copy holds — the page's one slot under page-grain tracking, every
   available slot under PS-OO. *)
let check_page_copy sys ~context cid p (entry : page_entry) =
  if covered_partition sys p then
    match
      Locking.Copy_table.first_uncovered
        ~skip:(Model.unregistered_slots sys entry.unavailable)
        (Model.server_of sys p).pcopies p ~client:cid
    with
    | None -> ()
    | Some slot ->
      if Algo.page_grain_copies sys.algo then
        violation sys ~context
          "client %d caches page %d without a copy registration" cid p
      else
        violation sys ~context
          "client %d caches available object %s without a copy registration"
          cid
          (oid_str (Ids.Oid.make ~page:p ~slot))

let sweep_coverage sys ~context =
  let cs = sys.clients in
  for cid = 0 to cs.n - 1 do
    if cs.up.(cid) then
      match sys.algo with
      | Algo.OS ->
        Lru.iter cs.ocache.(cid) (fun o _ -> check_object_copy sys ~context cid o)
      | Algo.PS | Algo.PS_OO | Algo.PS_OA | Algo.PS_AA ->
        Lru.iter cs.cache.(cid) (fun p entry ->
            check_page_copy sys ~context cid p entry)
  done

(* Journal entry for page [p] at client [cid]: a page install, or a
   page registration one of whose counts dropped to zero (under PS-OO,
   any slot's: every available slot is re-checked). *)
let recheck_page sys ~context p cid =
  let cs = sys.clients in
  if cs.up.(cid) && sys.algo <> Algo.OS then
    match Lru.peek cs.cache.(cid) p with
    | Some entry -> check_page_copy sys ~context cid p entry
    | None -> ()

(* Journal entry for object [o] at client [cid] (OS only): an object
   install, or an object registration that dropped to zero. *)
let recheck_object sys ~context o cid =
  let cs = sys.clients in
  if cs.up.(cid) && sys.algo = Algo.OS && Lru.mem cs.ocache.(cid) o then
    check_object_copy sys ~context cid o

(* Loops, not closures: this runs at every boundary. *)
let recheck_pages sys ~context j =
  for i = 0 to Locking.Journal.length j - 1 do
    recheck_page sys ~context (Locking.Journal.item j i)
      (Locking.Journal.site j i)
  done

let recheck_objects sys ~context j =
  for i = 0 to Locking.Journal.length j - 1 do
    recheck_object sys ~context (Locking.Journal.item j i)
      (Locking.Journal.site j i)
  done

let must_sweep sys =
  let sweep =
    ref
      (sys.sweep_pending
      || Locking.Journal.overflowed sys.page_installs
      || Locking.Journal.overflowed sys.obj_installs)
  in
  for sid = 0 to Array.length sys.servers - 1 do
    let sv = sys.servers.(sid) in
    sweep :=
      !sweep
      || Locking.Journal.overflowed (Locking.Copy_table.zeroed sv.pcopies)
      || Locking.Journal.overflowed (Locking.Copy_table.zeroed sv.ocopies)
  done;
  !sweep

let clear_journal sys =
  Locking.Journal.clear sys.page_installs;
  Locking.Journal.clear sys.obj_installs;
  for sid = 0 to Array.length sys.servers - 1 do
    let sv = sys.servers.(sid) in
    Locking.Journal.clear (Locking.Copy_table.zeroed sv.pcopies);
    Locking.Journal.clear (Locking.Copy_table.zeroed sv.ocopies)
  done;
  sys.sweep_pending <- false

(* The journal is cleared only once the check has passed, so a state
   that failed one audit fails the next one too, whatever its scope.
   It is drained even when the sabotage skips the check, which keeps
   it bounded. *)
let check_copy_coverage ~journal sys ~context =
  if not sys.cfg.Config.srv_skip_reconstruction then begin
    if journal && not (must_sweep sys) then begin
      recheck_pages sys ~context sys.page_installs;
      recheck_objects sys ~context sys.obj_installs;
      for sid = 0 to Array.length sys.servers - 1 do
        let sv = sys.servers.(sid) in
        recheck_pages sys ~context (Locking.Copy_table.zeroed sv.pcopies);
        recheck_objects sys ~context (Locking.Copy_table.zeroed sv.ocopies)
      done
    end
    else sweep_coverage sys ~context
  end;
  clear_journal sys

(* Invariant 4: a crashed client was fully reclaimed — cold caches, no
   transaction, no copy-table presence (it must not be a callback
   target: its cache is gone, so a callback would wait forever or,
   worse, "succeed" against nothing).  Walks [down_clients], the
   mirror of the [up] flags that [Model.set_up] keeps: O(down
   clients), not O(clients). *)
let check_crashed_clients sys ~context =
  let cs = sys.clients in
  Hashtbl.iter
    (fun cid () ->
      (match cs.running.(cid) with
      | Some t ->
        violation sys ~context "crashed client %d still runs txn %d" cid t.tid
      | None -> ());
      if Lru.size cs.cache.(cid) > 0 || Lru.size cs.ocache.(cid) > 0 then
        violation sys ~context
          "crashed client %d retains %d pages / %d objects in cache" cid
          (Lru.size cs.cache.(cid))
          (Lru.size cs.ocache.(cid));
      let count table_of =
        Array.fold_left
          (fun acc sv ->
            acc + Locking.Copy_table.client_copies (table_of sv) ~client:cid)
          0 sys.servers
      in
      let pc = count (fun sv -> sv.pcopies) in
      let oc = count (fun sv -> sv.ocopies) in
      if pc > 0 || oc > 0 then
        violation sys ~context
          "crashed client %d still registered for %d page-table / %d \
           object-table copies"
          cid pc oc)
    sys.down_clients

(* Invariant 5: deadlock detection runs at every edge addition, so no
   cycle survives between events.  The per-server graphs are linked
   into one cluster, so a single search from any member covers the
   union: O(waits + edges). *)
let check_acyclic sys ~context =
  match Locking.Waits_for.any_cycle sys.servers.(0).wfg with
  | None -> ()
  | Some cycle ->
    violation sys ~context "waits-for cycle left unbroken: [%s]"
      (String.concat " -> " (List.map string_of_int cycle))

(* Invariant 6: write isolation — no object sits in the updated set of
   two live transactions.  Gated off under [srv_skip_reconstruction]
   for the same reason as invariant 3: the sabotage deliberately
   breaks callback-based mutual exclusion, and the verdict must come
   from the serializability oracle, not a state-level check.  Walks
   [by_tid], the mirror of the [running] array: O(running transactions
   + their updates), not O(clients). *)
let check_update_disjoint sys ~context =
  if sys.cfg.Config.srv_skip_reconstruction then ()
  else
  let owner = Hashtbl.create 64 in
  let cs = sys.clients in
  Hashtbl.iter
    (fun _ t ->
      (* A doomed transaction's updates are already discarded in spirit:
         it can only abort, and its covering locks at the crashed server
         are gone, so a post-recovery writer may legitimately overlap. *)
      if cs.up.(t.client) && not t.doomed then
        Ids.Oid_set.iter
          (fun o ->
            match Hashtbl.find_opt owner o with
            | Some other ->
              violation sys ~context
                "object %s updated by both txn %d and txn %d" (oid_str o)
                other t.tid
            | None -> Hashtbl.replace owner o t.tid)
          t.updated)
    sys.by_tid

(* Invariant 7: a down server was fully reclaimed — crash purging left
   no volatile state behind (locks, copy registrations, token owners).
   Mirrors invariant 4 for the server side; anything found here would
   be state that survived the "power cut" and could contradict the
   rebuilt tables after recovery. *)
let check_crashed_servers sys ~context =
  Array.iter
    (fun sv ->
      if sv.srv_state = Srv_down then begin
        let pl = Locking.Lock_table.lock_count sv.plocks in
        let ol = Locking.Lock_table.lock_count sv.olocks in
        if pl > 0 || ol > 0 then
          violation sys ~context
            "down server %d still holds %d page / %d object locks" sv.sid pl
            ol;
        let pc = Locking.Copy_table.copies sv.pcopies in
        let oc = Locking.Copy_table.copies sv.ocopies in
        if pc > 0 || oc > 0 then
          violation sys ~context
            "down server %d still registers %d page-table / %d object-table \
             copies"
            sv.sid pc oc;
        if Hashtbl.length sv.token_owner > 0 then
          violation sys ~context "down server %d still owns %d write tokens"
            sv.sid
            (Hashtbl.length sv.token_owner);
        if Buffer_pool.size sv.sbuffer > 0 then
          violation sys ~context
            "down server %d retains %d buffered pages" sv.sid
            (Buffer_pool.size sv.sbuffer)
      end)
    sys.servers

(* Index mirrors: invariants 4 and 6 walk [down_clients] and [by_tid]
   instead of the arrays, so the full audit (end of run, tests) checks
   once, in O(clients), that the indexes still mirror the arrays —
   the backstop for a write that bypassed [Model.set_up],
   [set_running] or [clear_running]. *)
let check_indexes sys ~context =
  let cs = sys.clients in
  Hashtbl.iter
    (fun cid () ->
      if cs.up.(cid) then
        violation sys ~context "client %d is up but in the down-client index"
          cid)
    sys.down_clients;
  let down = ref 0 and running = ref 0 in
  for cid = 0 to cs.n - 1 do
    if not cs.up.(cid) then incr down;
    match cs.running.(cid) with
    | None -> ()
    | Some t -> (
      incr running;
      match Hashtbl.find_opt sys.by_tid t.tid with
      | Some t' when t' == t -> ()
      | Some _ | None ->
        violation sys ~context
          "client %d runs txn %d, which the tid index does not hold" cid t.tid)
  done;
  if Hashtbl.length sys.down_clients <> !down then
    violation sys ~context "down-client index holds %d clients, %d are down"
      (Hashtbl.length sys.down_clients) !down;
  if Hashtbl.length sys.by_tid <> !running then
    violation sys ~context "tid index holds %d transactions, %d are running"
      (Hashtbl.length sys.by_tid) !running

let check_all ~journal sys ~context =
  if not journal then check_indexes sys ~context;
  check_lock_liveness sys ~context;
  check_lock_compat sys ~context;
  check_copy_coverage ~journal sys ~context;
  check_crashed_clients sys ~context;
  check_acyclic sys ~context;
  check_update_disjoint sys ~context;
  check_crashed_servers sys ~context

let check ?(context = "") ?coverage_of sys =
  check_all ~journal:(Option.is_some coverage_of) sys ~context

let install sys =
  Faults.set_hook sys.faults (fun context ->
      check_all ~journal:true sys ~context)
