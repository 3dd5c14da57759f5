open Storage
open Simcore

type page_entry = {
  mutable unavailable : Ids.Int_set.t;
  mutable dirty : Ids.Int_set.t;
  mutable fetch_version : int;
}

type obj_entry = { mutable odirty : bool }

type txn = {
  tid : Locking.Lock_types.txn;
  client : int;
  epoch : int;
  ops : Workload.Refstring.t;
  started : float;
  first_started : float;
  mutable restarts : int;
  mutable read_pages : Ids.Page_set.t;
  mutable read_objs : Ids.Oid_set.t;
  mutable wpages : Ids.Page_set.t;
  mutable wobjs : Ids.Oid_set.t;
  mutable updated : Ids.Oid_set.t;
  mutable doomed : bool;
  mutable rpc_sid : int;
}

(* Per-client state in struct-of-arrays layout, indexed by client id.
   At tens of thousands of clients the per-client sweeps that remain
   (crash-driver liveness guards, server-recovery reconstruction, the
   end-of-run audit) touch one contiguous word per client instead of
   chasing a pointer per record.  Boundary audits do not scan the
   population: they walk [by_tid] and [down_clients].  A client that
   never runs holds only its stream and flat slots: its [ccpu] entry is
   the shared [idle_cpu] until {!client_cpu} first builds its own, and
   its caches build their tables on first insert. *)
type clients = {
  n : int;
  ccpu : Resources.Cpu.t array;
  idle_cpu : Resources.Cpu.t;
  crng : Rng.t array;
  cache : (Ids.page, page_entry) Lru.t array;
  ocache : (Ids.Oid.t, obj_entry) Lru.t array;
  running : txn option array;
  end_hooks : (unit -> unit) list array;
  resp_n : int array;
  resp_mean : float array;
  up : bool array;
  epoch : int array;
  crashed_at : float option array;
}

type srv_state = Srv_up | Srv_down | Srv_recovering

type server = {
  sid : int;
  scpu : Resources.Cpu.t;
  sdisks : Resources.Disk_array.t;
  sbuffer : Buffer_pool.t;
  plocks : Ids.page Locking.Lock_table.t;
  olocks : Ids.Oid.t Locking.Lock_table.t;
  pcopies : Ids.page Locking.Copy_table.t;
  ocopies : Ids.Oid.t Locking.Copy_table.t;
  wfg : Locking.Waits_for.t;
  versions : (Ids.page, int) Hashtbl.t;
  olocks_by_page : (Ids.page, int Ids.Oid_map.t) Hashtbl.t;
  deesc_inflight : (Ids.page, unit Ivar.t) Hashtbl.t;
  token_owner : (Ids.page, int * Locking.Lock_types.txn) Hashtbl.t;
  srv_rng : Rng.t;
  mutable cb_drop_clock : int;
  mutable srv_state : srv_state;
  mutable log_records : int;
  mutable srv_crashed_at : float;
}

type sys = {
  engine : Engine.t;
  cfg : Config.t;
  algo : Algo.t;
  params : Workload.Wparams.t;
  net : Resources.Network.t;
  servers : server array;
  clients : clients;
  metrics : Metrics.t;
  faults : Faults.t;
  oracle : Oracle.History.t option;
  timeline : Tl.t option;
  (* Population-independent indexes over the active transactions: the
     de-escalation path resolves lock holders by tid, and the per-update
     isolation assertion resolves concurrent updaters by oid.  Both
     used to scan every client. *)
  by_tid : (int, txn) Hashtbl.t;
  updaters : (Ids.Oid.t, txn list) Hashtbl.t;
  (* The clients whose [up] flag is false, so the audit's crashed-client
     check costs O(down clients). *)
  down_clients : (int, unit) Hashtbl.t;
  (* Copy-coverage journal, drained by every audit: copies installed
     since the last audit (Cache_ops is the only code that adds to
     client caches), and a flag set by up-transitions (client restart,
     server reopen), which the journal cannot express. *)
  page_installs : Ids.page Locking.Journal.t;
  obj_installs : Ids.Oid.t Locking.Journal.t;
  mutable sweep_pending : bool;
  mutable next_tid : int;
  mutable live : bool;
}

exception Txn_aborted

exception Client_crashed
(** Raised inside a client fiber when its workstation has crashed: the
    fiber resumed from a non-cancellable suspension (CPU, disk,
    network) after the crash and must unwind without touching any
    state — the crash handler already reclaimed everything. *)

let num_clients sys = sys.clients.n

let txn_live sys (txn : txn) =
  let cs = sys.clients in
  cs.up.(txn.client) && cs.epoch.(txn.client) = txn.epoch

(* Kept out of [client_cpu] so the common path (the CPU exists) stays
   a load and a compare. *)
let build_client_cpu sys cid =
  let cs = sys.clients in
  let cpu = Resources.Cpu.idle_copy cs.idle_cpu in
  cs.ccpu.(cid) <- cpu;
  (match sys.timeline with
  | None -> ()
  | Some tlx ->
    Resources.Cpu.attach_timeline cpu ~timeline:(Tl.timeline tlx)
      ~track:(Tl.trk_client_cpus tlx).(cid));
  cpu

let client_cpu sys cid =
  let cpu = sys.clients.ccpu.(cid) in
  if cpu != sys.clients.idle_cpu then cpu else build_client_cpu sys cid

let fresh_tid sys =
  let tid = sys.next_tid in
  sys.next_tid <- tid + 1;
  tid

(* Partition map: every page has exactly one owning server; all of the
   page's state (buffer slot, locks, copies, version, token) lives
   there.  The map is a pure function of the page id so clients, Cb and
   Crash can route without consulting any server. *)
let owner_sid sys p =
  let n = Array.length sys.servers in
  if n = 1 then 0
  else
    match sys.cfg.Config.partition with
    | Config.Hash -> p mod n
    | Config.Range -> min (n - 1) (p * n / sys.cfg.Config.db_pages)

let server_of sys p = sys.servers.(owner_sid sys p)

(* A client's home server relays callbacks from remote partitions (the
   client keeps one session channel instead of n). *)
let home_sid sys cid = cid mod Array.length sys.servers

let page_version sys p =
  match Hashtbl.find_opt (server_of sys p).versions p with
  | Some v -> v
  | None -> 0

let bump_page_version sys p ~by =
  if by > 0 then
    Hashtbl.replace (server_of sys p).versions p (page_version sys p + by)

let client_txn sys cid = sys.clients.running.(cid)

(* --- Active-transaction indexes --------------------------------------- *)

let txn_of_tid sys tid = Hashtbl.find_opt sys.by_tid tid

let set_up sys cid up =
  sys.clients.up.(cid) <- up;
  if up then Hashtbl.remove sys.down_clients cid
  else Hashtbl.replace sys.down_clients cid ()

let set_running sys cid txn =
  sys.clients.running.(cid) <- Some txn;
  Hashtbl.replace sys.by_tid txn.tid txn

(* End the client's transaction: drop it from both indexes and return
   it.  The updater bindings are keyed by the transaction's final
   [updated] set, so this must run before anything clears that set. *)
let clear_running sys cid =
  match sys.clients.running.(cid) with
  | None -> None
  | Some txn ->
    sys.clients.running.(cid) <- None;
    Hashtbl.remove sys.by_tid txn.tid;
    Ids.Oid_set.iter
      (fun o ->
        match Hashtbl.find_opt sys.updaters o with
        | None -> ()
        | Some l -> (
          match List.filter (fun t -> t != txn) l with
          | [] -> Hashtbl.remove sys.updaters o
          | l' -> Hashtbl.replace sys.updaters o l'))
      txn.updated;
    Some txn

let note_updater sys txn oid =
  let l =
    match Hashtbl.find_opt sys.updaters oid with Some l -> l | None -> []
  in
  Hashtbl.replace sys.updaters oid (txn :: l)

let updaters_of sys oid =
  match Hashtbl.find_opt sys.updaters oid with Some l -> l | None -> []

let obj_in_use txn oid =
  Ids.Oid_set.mem oid txn.read_objs || Ids.Oid_set.mem oid txn.updated

let page_in_use txn p =
  Ids.Page_set.mem p txn.read_pages
  || Ids.Page_set.mem p txn.wpages
  || Ids.Oid_set.exists (fun o -> o.Ids.Oid.page = p) txn.updated

let index_obj_lock server oid =
  let p = oid.Ids.Oid.page in
  let map =
    match Hashtbl.find_opt server.olocks_by_page p with
    | Some m -> m
    | None -> Ids.Oid_map.empty
  in
  let count = Option.value ~default:0 (Ids.Oid_map.find_opt oid map) in
  Hashtbl.replace server.olocks_by_page p (Ids.Oid_map.add oid (count + 1) map)

let unindex_obj_lock server oid =
  let p = oid.Ids.Oid.page in
  match Hashtbl.find_opt server.olocks_by_page p with
  | None -> ()
  | Some m -> (
    match Ids.Oid_map.find_opt oid m with
    | None -> ()
    | Some count ->
      let m =
        if count <= 1 then Ids.Oid_map.remove oid m
        else Ids.Oid_map.add oid (count - 1) m
      in
      if Ids.Oid_map.is_empty m then Hashtbl.remove server.olocks_by_page p
      else Hashtbl.replace server.olocks_by_page p m)

let foreign_locked_slots sys p ~tid =
  let sv = server_of sys p in
  match Hashtbl.find_opt sv.olocks_by_page p with
  | None -> Ids.Int_set.empty
  | Some m ->
    Ids.Oid_map.fold
      (fun oid _count acc ->
        match Locking.Lock_table.holder sv.olocks oid with
        | Some h when h <> tid -> Ids.Int_set.add oid.Ids.Oid.slot acc
        | Some _ | None -> acc)
      m Ids.Int_set.empty

let page_has_foreign_obj_lock sys p ~tid =
  not (Ids.Int_set.is_empty (foreign_locked_slots sys p ~tid))

let unregistered_slots sys unavailable =
  if Algo.page_grain_copies sys.algo then Ids.Int_set.empty else unavailable

let create ~cfg ~algo ~params ~seed =
  Config.validate cfg;
  Workload.Wparams.validate params ~db_pages:cfg.Config.db_pages
    ~objects_per_page:cfg.Config.objects_per_page;
  if Array.length params.Workload.Wparams.clients <> cfg.Config.num_clients then
    invalid_arg "Model.create: workload clients <> config clients";
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  (* The fault layer's streams derive from the seed by key, not by
     [Rng.split]: splitting would advance [rng] and shift every
     pre-existing stream, breaking byte-identity with fault-free runs. *)
  let faults =
    Faults.create ~profile:cfg.Config.faults
      ~seed:(Rng.key_seed ~seed ~key:"fault-layer")
  in
  let n_servers = cfg.Config.servers in
  (* PS-OO registers a page copy once, with one count per object slot;
     the page-grain protocols keep one count per page. *)
  let pcopies_width =
    match algo with
    | Algo.PS_OO -> cfg.Config.objects_per_page
    | Algo.PS | Algo.OS | Algo.PS_OA | Algo.PS_AA -> 1
  in
  (* RNG split order: for each server its disk stream then its local
     stream, then one stream per client — at servers=1 this is the
     historical order (disk, server, clients), keeping every run
     byte-identical to the singleton topology. *)
  let servers =
    Array.init n_servers (fun sid ->
        let wfg = Locking.Waits_for.create () in
        {
          sid;
          scpu =
            Resources.Cpu.create engine ~mips:cfg.Config.server_mips;
          sdisks =
            Resources.Disk_array.create engine ~rng:(Rng.split rng) ~faults
              ~disks:cfg.Config.server_disks ~min_time:cfg.Config.min_disk_time
              ~max_time:cfg.Config.max_disk_time ();
          sbuffer = Buffer_pool.create ~capacity:(Config.server_buf_pages cfg);
          plocks =
            Locking.Lock_table.create ~waits_for:wfg ~lock_name:"page";
          olocks =
            Locking.Lock_table.create ~waits_for:wfg ~lock_name:"object";
          pcopies =
            Locking.Copy_table.create ~width:pcopies_width
              ~clients:cfg.Config.num_clients;
          ocopies =
            Locking.Copy_table.create ~width:1 ~clients:cfg.Config.num_clients;
          wfg;
          versions = Hashtbl.create 1024;
          olocks_by_page = Hashtbl.create 256;
          deesc_inflight = Hashtbl.create 16;
          token_owner = Hashtbl.create 256;
          srv_rng = Rng.split rng;
          cb_drop_clock = 0;
          srv_state = Srv_up;
          log_records = 0;
          srv_crashed_at = 0.0;
        })
  in
  (* Link the per-server waits-for graphs into one cluster so cycle
     detection sees the union (distributed deadlock detection with an
     idealized coordinator; see DESIGN.md). *)
  Locking.Waits_for.link (Array.map (fun sv -> sv.wfg) servers);
  let n = cfg.Config.num_clients in
  (* Every client starts on the shared idle CPU ({!client_cpu} builds
     its own on first use) and with table-less caches, so the only
     per-client construction with a shared-state effect is [Rng.split],
     performed in ascending client order as it always was. *)
  let idle_cpu = Resources.Cpu.create engine ~mips:cfg.Config.client_mips in
  let clients =
    {
      n;
      ccpu = Array.make n idle_cpu;
      idle_cpu;
      crng = Array.init n (fun _ -> Rng.split rng);
      cache =
        Array.init n (fun _ ->
            Lru.create ~capacity:(Config.client_buf_pages cfg));
      ocache =
        Array.init n (fun _ ->
            Lru.create ~capacity:(Config.client_buf_objects cfg));
      running = Array.make n None;
      end_hooks = Array.make n [];
      resp_n = Array.make n 0;
      resp_mean = Array.make n 0.0;
      up = Array.make n true;
      epoch = Array.make n 0;
      crashed_at = Array.make n None;
    }
  in
  let timeline =
    if cfg.Config.timeline then
      Some
        (Tl.create ~servers:n_servers ~num_clients:cfg.Config.num_clients
           ~disks:cfg.Config.server_disks ~capacity:cfg.Config.timeline_cap ())
    else None
  in
  let sys =
    {
      engine;
      cfg;
      algo;
      params;
      net =
        Resources.Network.create engine
          ~bandwidth_mbits:cfg.Config.network_mbits;
      servers;
      clients;
      metrics = Metrics.create ();
      faults;
      oracle =
        (if cfg.Config.oracle then
           Some (Oracle.History.create ~clients:cfg.Config.num_clients)
         else None);
      timeline;
      by_tid = Hashtbl.create 256;
      updaters = Hashtbl.create 256;
      down_clients = Hashtbl.create 16;
      page_installs = Locking.Journal.create ();
      obj_installs = Locking.Journal.create ();
      sweep_pending = false;
      next_tid = 1;
      live = true;
    }
  in
  (* Attach the resource-level observers: CPU busy spans, per-disk and
     network transfer spans.  Pure observation, attached after
     creation so the construction order (and every RNG split above)
     is identical with the timeline off.  Client CPUs attach when
     {!client_cpu} builds them. *)
  (match timeline with
  | None -> ()
  | Some tlx ->
    let tl = Tl.timeline tlx in
    Array.iter
      (fun sv ->
        Resources.Cpu.attach_timeline sv.scpu ~timeline:tl
          ~track:(Tl.trk_server_cpu tlx ~sid:sv.sid);
        Resources.Disk_array.attach_timeline sv.sdisks ~timeline:tl
          ~tracks:(Tl.trk_disks tlx ~sid:sv.sid))
      servers;
    Resources.Network.attach_timeline sys.net ~timeline:tl
      ~track:(Tl.trk_net tlx));
  sys

let oracle_hook sys f = match sys.oracle with None -> () | Some o -> f o
let tl_hook sys f = match sys.timeline with None -> () | Some t -> f t
