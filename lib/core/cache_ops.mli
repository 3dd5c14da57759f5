(** Client cache manipulation shared by the transaction driver and the
    callback handler.

    Copy registration happens server-side when a copy is shipped
    (before the reply reaches the client); deregistration on drops is
    "piggybacked": the server's copy tables are updated directly at no
    message cost, modelling the standard callback-locking optimization
    of attaching drop notices to the next message (see DESIGN.md).
    Registrations are reference counted ({!Locking.Copy_table}) so a
    copy in transit survives the concurrent purge of its predecessor;
    at quiescence the tables exactly mirror the client caches.

    This module is the only code that adds copies to client caches or
    makes page slots available, so its two install functions log every
    such change in the audit's coverage journal
    ({!Model.sys.page_installs}, {!Model.sys.obj_installs}).

    Clients are addressed by id (the index into {!Model.clients}). *)

open Storage

val drop_page : Model.sys -> int -> Ids.page -> discard_dirty:bool -> unit
(** Remove a page from the client cache and deregister its page copy
    and any object copies.  Raises if the entry still carries
    uncommitted updates unless [discard_dirty] (abort path). *)

val drop_object : Model.sys -> int -> Ids.Oid.t -> unit
(** Object-server variant of {!drop_page}. *)

val mark_unavailable : Model.sys -> int -> Ids.Oid.t -> unit
(** Mark one slot unavailable in the cached page (no-op when the page is
    not cached) and deregister the object copy. *)

val install_page :
  Model.sys ->
  int ->
  Model.txn ->
  Ids.page ->
  unavailable:Ids.Int_set.t ->
  version:int ->
  (Ids.page * Ids.Int_set.t * int) option
(** Insert (or refresh) a page copy received from the server.  If the
    client already caches the page with uncommitted local updates, the
    copies are merged (charging [CopyMergeInst] per locally updated
    object) and the local updates stay visible.  Returns
    [Some (victim, dirty_slots, fetch_version)] when the insertion
    evicted a page with uncommitted updates, which the caller must ship
    to the server. *)

val install_object : Model.sys -> int -> Ids.Oid.t -> Ids.Oid.t option
(** Object-server insert.  Returns a dirty eviction victim the caller
    must ship. *)

val oracle_note_page_copy :
  Model.sys -> int -> Ids.page -> Model.page_entry -> unit
(** Mirror a (re)installed page copy into the oracle's shadow store:
    unavailable slots drop the client's shadow copy, clean slots take
    the server's current version, dirty slots keep the local pending
    version.  No-op when the oracle is off.  Exposed for the one
    install site outside this module (the write-token bounce path). *)
