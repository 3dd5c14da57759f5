(** Server-side protocol logic: the five granularity alternatives'
    request handlers (Section 3), driven as RPCs from the client
    transaction fibers.

    Each [_rpc] function performs the complete round trip: request
    transport, server processing (locking, callbacks, disk), and reply
    transport — so the caller observes the full latency and every cost
    lands on the right simulated resource. *)

open Storage

type read_reply =
  | R_page of { unavailable : Ids.Int_set.t; version : int }
      (** page shipped; foreign write-locked objects marked *)
  | R_objs of Ids.Oid.t list
      (** objects shipped (OS): the requested object plus, when
          [Config.os_group_size > 1], its statically grouped neighbours
          that are not write-locked elsewhere (Section 6.2) *)
  | R_aborted  (** requester lost a deadlock while blocked *)

type write_reply =
  | W_page  (** page-grain write lock granted (PS; PS-AA escalated) *)
  | W_obj  (** object-grain write lock granted *)
  | W_aborted

val read_rpc : Model.sys -> Model.txn -> Ids.Oid.t -> read_reply
(** Fetch the object (OS) or its page (PS family) with read permission;
    blocks behind conflicting write locks, triggering PS-AA
    de-escalation when the page is write-locked at page grain. *)

val write_rpc : Model.sys -> Model.txn -> Ids.Oid.t -> write_reply
(** Obtain write permission on the object per the protocol: the page
    lock (PS), the object lock with the protocol's callback policy
    (OS, PS-OO, PS-OA), or adaptively either (PS-AA). *)

val ship_dirty_page :
  Model.sys ->
  Model.txn ->
  Ids.page ->
  dirty:Ids.Int_set.t ->
  fetch_version:int ->
  at_commit:bool ->
  unit
(** Send an updated page copy to the server (at commit, or on a dirty
    eviction mid-transaction).  The server merges it — charging
    [CopyMergeInst] per updated object, plus a disk read if the page
    fell out of its buffer — whenever other transactions have updated
    the page since this copy was fetched. *)

val ship_dirty_objs :
  Model.sys -> Model.txn -> Ids.Oid.t list -> at_commit:bool -> unit
(** OS update shipping: updated objects batched into one message (the
    commit payload, or a single dirty-evicted object mid-transaction);
    the server installs them into their (possibly re-read) pages. *)

val ship_redo_log : Model.sys -> Model.txn -> unit
(** [Config.Redo_at_server] commit processing: ship one log message
    covering every update of the transaction and replay it at the
    server (Section 6.1's "redo-at-server" scheme, as in early SHORE). *)


val release_txn_locks : Model.sys -> Model.txn -> unit
(** Instantly release every server lock of the transaction (both
    granularities, with object-lock index maintenance) and end it in
    the waits-for graph.  Idempotent.  Used by {!commit_rpc} and
    {!abort_rpc}, and directly by crash recovery, which reclaims a
    crashed client's transaction without a network round trip. *)

val participants : Model.sys -> Model.txn -> int list
(** The servers owning a page the transaction touched (read or write,
    either grain), in server order; the client's home server when it
    touched nothing yet.  These are the commit/abort endpoints, and the
    servers whose crash dooms the transaction. *)

val commit_rpc : Model.sys -> Model.txn -> bool
(** Release the transaction's server locks and acknowledge.  Returns
    whether the transaction actually committed: false when the client
    crashed mid-commit, a participant crash doomed the transaction, or
    a participant never heard the commit request (presumed abort — the
    caller must treat the transaction as aborted). *)

val abort_rpc : Model.sys -> Model.txn -> unit
