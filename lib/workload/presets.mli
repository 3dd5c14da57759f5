(** The paper's workload suite (Table 2 and Section 5.5).

    Region sizes are expressed as fractions of the database so that the
    scaled-up experiments of Section 5.6.1 (database and buffers x9)
    keep the same sharing structure:

    - HOTCOLD: per-client hot region of [db/25] pages (50 of 1250), 80%
      of accesses hot, remainder uniform over the whole database;
    - UNIFORM: uniform over the whole database;
    - HICON: one shared hot region of [db/5] pages (250 of 1250), 80% of
      accesses hot — the very-high-contention stress case;
    - PRIVATE: per-client private hot region of [db/50] pages (25 of
      1250), cold accesses uniform over the read-only second half of the
      database, cold write probability 0;
    - Interleaved PRIVATE: PRIVATE with hot objects of client pairs
      physically interleaved (see {!Interleave}). *)

type name = Hotcold | Uniform | Hicon | Private_ | Interleaved_private

val all : name list
val name_to_string : name -> string
val name_of_string : string -> name option

type locality = Low | High
(** [Low]: trans_size 30 pages, 1-7 objects/page (avg 4).
    [High]: trans_size 10 pages, 8-16 objects/page (avg 12).
    Both average 120 objects per transaction. *)

val make :
  ?trans_size:int ->
  ?page_locality:Wparams.range ->
  ?access_pattern:Wparams.access_pattern ->
  ?per_object_read_instr:float ->
  ?think_time:float ->
  name ->
  db_pages:int ->
  objects_per_page:int ->
  num_clients:int ->
  locality:locality ->
  write_prob:float ->
  Wparams.t
(** Build a workload.  [write_prob] is the per-object update probability
    (the x-axis of every throughput figure); it applies to both regions
    except for PRIVATE's read-only cold region.  [trans_size] and
    [page_locality] default from [locality]; PRIVATE with [Low] locality
    uses the paper's footnote setting (13 pages, 8-16 objects) since a
    30-page transaction does not fit a 25-page hot region. *)

val ocb :
  ?classes:int ->
  ?objects:int ->
  ?fanout:int ->
  ?depth:int ->
  ?policy:Placement.policy ->
  ?theta:float ->
  ?mix:Generic.mix ->
  ?traversal_depth:int ->
  ?traversal_cap:int ->
  ?match_size:int ->
  ?update_size:int ->
  ?per_object_read_instr:float ->
  ?think_time:float ->
  ?arrival:Arrival.t ->
  ?seed:int ->
  db_pages:int ->
  objects_per_page:int ->
  num_clients:int ->
  write_prob:float ->
  unit ->
  Wparams.t
(** An OCB-style generic object-base workload as a [Wparams.t]: the
    classic preset fields are inert placeholders and the [generic]
    payload (see {!Generic.make} for knob defaults) drives transaction
    generation.  [seed] (default 42) fixes the object base and layout
    independently of the simulation seed; [arrival] optionally shapes
    client traffic. *)
