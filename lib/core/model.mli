(** Shared mutable state of the simulated system (Figure 2).

    All protocol modules operate on one {!sys} value holding the server,
    the clients, the shared resources, and the metrics.  The types live
    here (rather than in the client/server modules) so that the
    client-side and server-side logic — which call into each other via
    callbacks and de-escalations — need no mutual recursion. *)

open Storage
open Simcore

type page_entry = {
  mutable unavailable : Ids.Int_set.t;
      (** slots marked unavailable by remote write locks/callbacks *)
  mutable dirty : Ids.Int_set.t;
      (** slots updated by this client's current transaction *)
  mutable fetch_version : int;
      (** server page version when this copy was shipped (merge check) *)
}

type obj_entry = { mutable odirty : bool }
(** Object-server client cache entry. *)

type txn = {
  tid : Locking.Lock_types.txn;  (** unique per incarnation *)
  client : int;
  epoch : int;
      (** the client incarnation this transaction belongs to; a crash
          bumps the client's epoch, orphaning the transaction *)
  ops : Workload.Refstring.t;
  started : float;  (** this incarnation's start *)
  first_started : float;  (** first submission (for response time) *)
  mutable restarts : int;
  mutable read_pages : Ids.Page_set.t;  (** client-local page read locks *)
  mutable read_objs : Ids.Oid_set.t;  (** client-local object read locks *)
  mutable wpages : Ids.Page_set.t;  (** server page write locks held *)
  mutable wobjs : Ids.Oid_set.t;  (** server object write locks held *)
  mutable updated : Ids.Oid_set.t;  (** objects updated so far *)
  mutable doomed : bool;
      (** a server this transaction depended on crashed; the transaction
          must abort-and-retry (presumed abort), but its client is alive
          — unlike a crash, dooming does not unwind the client fiber *)
  mutable rpc_sid : int;
      (** server an RPC is currently in flight to, or -1; lets a server
          crash doom transactions whose copies are in transit before
          they appear in any page/object set *)
}

(** Per-client state in struct-of-arrays layout, indexed by client id.
    The SoA shape keeps the population-wide sweeps that remain
    (crash-driver liveness guards, server-recovery reconstruction, the
    end-of-run audit) to one contiguous word per client, which is what
    makes 10k+ client runs affordable.  Boundary audits never scan the
    population: they walk the [by_tid] and [down_clients] indexes.

    A client that never runs costs its random stream and one slot per
    array: CPUs and cache tables are built on first use, so a
    population that mostly thinks pays only for the clients that
    work. *)
type clients = {
  n : int;  (** the population; every array below has this length *)
  ccpu : Resources.Cpu.t array;
      (** each client's workstation CPU.  Every entry is [idle_cpu]
          until the client's first charge, when {!client_cpu} swaps in
          its own; charge only through {!client_cpu}.  Kept as an
          array of CPUs so that utilisation resets and sums can walk
          it directly (the shared idle CPU reports 0.0). *)
  idle_cpu : Resources.Cpu.t;
      (** the shared stand-in for every CPU not yet built; never
          charged, so its utilisation is 0.0 *)
  crng : Rng.t array;
  cache : (Ids.page, page_entry) Lru.t array;
      (** page-grain cache (PS family); its table is built on the
          first insert, so OS clients never build one *)
  ocache : (Ids.Oid.t, obj_entry) Lru.t array;
      (** object-grain cache (OS); likewise built on first insert *)
  running : txn option array;
  end_hooks : (unit -> unit) list array;
      (** wake-ups of fibers blocked on the running transaction
          (callback handlers, token waits); drained when it terminates *)
  resp_n : int array;
      (** all-time commits, used to size restart delays *)
  resp_mean : float array;
      (** running mean of those commits' response times (meaningful
          once [resp_n] is positive) *)
  up : bool array;
      (** false while crashed (awaiting cold restart); written only by
          {!set_up} *)
  epoch : int array;  (** incarnation counter, bumped at each crash *)
  crashed_at : float option array;
      (** time of the crash that started the current outage; cleared at
          the first commit after restart (recovery-latency metric) *)
}

type srv_state =
  | Srv_up  (** serving requests normally *)
  | Srv_down  (** crashed: volatile state lost, requests go unanswered *)
  | Srv_recovering
      (** replaying the redo log and rebuilding copy tables from client
          reports; only recovery-class messages are admitted *)

type server = {
  sid : int;  (** this server's index in [sys.servers] *)
  scpu : Resources.Cpu.t;
  sdisks : Resources.Disk_array.t;
  sbuffer : Buffer_pool.t;
  plocks : Ids.page Locking.Lock_table.t;  (** page write locks *)
  olocks : Ids.Oid.t Locking.Lock_table.t;  (** object write locks *)
  pcopies : Ids.page Locking.Copy_table.t;
      (** page copies: one count per page (width 1), or under PS-OO one
          count per object slot (width [objects_per_page]) *)
  ocopies : Ids.Oid.t Locking.Copy_table.t;  (** object copies (OS only) *)
  wfg : Locking.Waits_for.t;
  versions : (Ids.page, int) Hashtbl.t;
      (** committed-update counter per page; missing = 0 *)
  olocks_by_page : (Ids.page, int Ids.Oid_map.t) Hashtbl.t;
      (** reference-counted index of object write locks (and pending
          write-lock requests) per page, for availability marking; the
          marks themselves consult the lock table's holder, so pending
          entries are harmless, while indexing {e before} the blocking
          acquire leaves no window in which a freshly granted lock is
          invisible to a concurrently computed reply *)
  deesc_inflight : (Ids.page, unit Ivar.t) Hashtbl.t;
      (** serializes concurrent PS-AA de-escalations of the same page *)
  token_owner : (Ids.page, int * Locking.Lock_types.txn) Hashtbl.t;
      (** page update-token ownership (client, last owning txn) — used
          only under [Config.Write_token] *)
  srv_rng : Rng.t;
      (** server-local randomness (size-change/overflow model) *)
  mutable cb_drop_clock : int;
      (** counts callback targets considered for the
          [Config.cb_drop_every] sabotage knob *)
  mutable srv_state : srv_state;  (** always [Srv_up] with faults off *)
  mutable log_records : int;
      (** committed object updates logged since the last log flush: the
          redo-log prefix replayed on restart (the flush fiber zeroes it
          every [log_flush_interval]) *)
  mutable srv_crashed_at : float;
      (** time of this server's most recent crash (recovery latency) *)
}

type sys = {
  engine : Engine.t;
  cfg : Config.t;
  algo : Algo.t;
  params : Workload.Wparams.t;
  net : Resources.Network.t;
  servers : server array;
      (** the partitioned page servers; index 0 doubles as the deadlock
          coordinator when there is more than one *)
  clients : clients;
  metrics : Metrics.t;
  faults : Faults.t;  (** fault-injection state (streams, counters, hook) *)
  oracle : Oracle.History.t option;
      (** history recorder, present iff [Config.oracle] *)
  timeline : Tl.t option;
      (** timeline recorder, present iff [Config.timeline] *)
  by_tid : (int, txn) Hashtbl.t;
      (** running transactions by tid (maintained by [set_running] /
          [clear_running]); O(1) holder resolution for de-escalation *)
  updaters : (Ids.Oid.t, txn list) Hashtbl.t;
      (** running transactions with the object in their [updated] set
          (maintained by [note_updater] / [clear_running]); O(1)
          write-isolation assertion *)
  down_clients : (int, unit) Hashtbl.t;
      (** the clients whose [up] flag is false (maintained by
          {!set_up}); O(down clients) crashed-client audit *)
  page_installs : Ids.page Locking.Journal.t;
      (** (page, client) for every page copy installed or refreshed
          since the last audit ({!Cache_ops.install_page}); a refresh
          can make PS-OO slots available again *)
  obj_installs : Ids.Oid.t Locking.Journal.t;
      (** (object, client) for every object copy installed since the
          last audit ({!Cache_ops.install_object}) *)
  mutable sweep_pending : bool;
      (** the next audit must sweep every cache: a client restarted or
          a server reopened since the last one *)
  mutable next_tid : int;
  mutable live : bool;
      (** cleared at simulation end so client loops stop resubmitting *)
}

exception Txn_aborted
(** Raised inside a client transaction fiber when the server reports
    that the transaction lost a deadlock. *)

exception Client_crashed
(** Raised inside a client fiber when its workstation crashed while the
    fiber was suspended on a non-cancellable resource (CPU, disk,
    network): the fiber must unwind without touching caches, locks or
    metrics — the crash handler already reclaimed its state. *)

val txn_live : sys -> txn -> bool
(** The transaction's client is up and still in the incarnation that
    started the transaction.  False for "zombie" transactions whose
    client crashed while one of their fibers was suspended. *)

val client_cpu : sys -> int -> Resources.Cpu.t
(** The client's workstation CPU, built on the first call: the shared
    idle CPU in [ccpu] is replaced by a fresh one whose utilisation
    integrates from the idle CPU's origin (creation or the last reset),
    so the client reports exactly what a CPU built at creation would.
    With the timeline on, the new CPU gets the client's track.  Every
    client CPU charge goes through here. *)

val fresh_tid : sys -> int
val num_clients : sys -> int

(** {2 Partition map}

    Each page is owned by exactly one server: all of its server-side
    state (buffer slot, locks, copy registrations, version counter,
    update token) lives there.  Clients additionally have a {e home}
    server — the one relaying callbacks from remote partitions to
    them. *)

val owner_sid : sys -> Ids.page -> int
(** The page's owning server under [cfg.partition] ([Hash]: [p mod n];
    [Range]: contiguous ranges of [db_pages / n] pages). *)

val server_of : sys -> Ids.page -> server
val home_sid : sys -> int -> int
(** A client's home server: [cid mod n]. *)

val page_version : sys -> Ids.page -> int
val bump_page_version : sys -> Ids.page -> by:int -> unit

(** {2 Client-local lock queries} *)

val client_txn : sys -> int -> txn option
(** The transaction currently running at a client, if any. *)

(** {2 Population indexes}

    [by_tid] and [updaters] mirror the [running] array exactly: a
    transaction is present while (and only while) it is some client's
    running transaction.  [down_clients] mirrors the [up] array.  All
    mutation goes through the functions below so the mirrors cannot
    drift; the unscoped {!Audit.check} verifies [by_tid] and
    [down_clients] against the arrays. *)

val txn_of_tid : sys -> int -> txn option
(** The running transaction with this tid, if any — O(1), replaces the
    all-clients scan the de-escalation path used to do. *)

val set_up : sys -> int -> bool -> unit
(** Mark the client up or down, keeping [down_clients] in step.  The
    only writer of [clients.up] (client crash and restart). *)

val set_running : sys -> int -> txn -> unit
(** Install the client's running transaction and index it by tid. *)

val clear_running : sys -> int -> txn option
(** End the client's running transaction: clear the slot and drop the
    tid and per-object updater bindings.  Returns the ended
    transaction.  Must run before its [updated] set is discarded. *)

val note_updater : sys -> txn -> Ids.Oid.t -> unit
(** Record that the (running) transaction updated the object; called on
    the first update of each object. *)

val updaters_of : sys -> Ids.Oid.t -> txn list
(** Running transactions with the object in their updated set. *)

val obj_in_use : txn -> Ids.Oid.t -> bool
(** The transaction read or updated this object (local object lock). *)

val page_in_use : txn -> Ids.page -> bool
(** The transaction holds a local lock on any object of the page, or a
    page write lock. *)

(** {2 Object-lock page index} *)

val index_obj_lock : server -> Ids.Oid.t -> unit
(** Add one reference. *)

val unindex_obj_lock : server -> Ids.Oid.t -> unit
(** Release one reference. *)

val foreign_locked_slots : sys -> Ids.page -> tid:int -> Ids.Int_set.t
(** Slots of objects on the page write-locked by transactions other than
    [tid] — the "unavailable" marking applied when shipping the page. *)

val page_has_foreign_obj_lock : sys -> Ids.page -> tid:int -> bool

val unregistered_slots : sys -> Ids.Int_set.t -> Ids.Int_set.t
(** The slots of a page copy whose [pcopies] counts the copy does not
    hold, given the copy's unavailable slots: those slots under PS-OO,
    none under page-grain tracking (its one count covers the page). *)

(** {2 Construction} *)

val create :
  cfg:Config.t ->
  algo:Algo.t ->
  params:Workload.Wparams.t ->
  seed:int ->
  sys

val oracle_hook : sys -> (Oracle.History.t -> unit) -> unit
(** Apply [f] to the history recorder when the oracle is on; free
    otherwise. *)

val tl_hook : sys -> (Tl.t -> unit) -> unit
(** Apply [f] to the timeline recorder when the timeline is on; free
    otherwise. *)
