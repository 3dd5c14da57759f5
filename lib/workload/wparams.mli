(** Workload description (the paper's Table 2 vocabulary).

    Each client workstation submits a stream of transactions shaped by
    these parameters: a transaction touches [trans_size] distinct pages,
    reads a uniformly drawn [page_locality] number of objects on each,
    and each object read turns into an update with a region-dependent
    probability.  Accesses split between a per-client {e hot} region and
    a {e cold} region. *)

type range = { lo : int; hi : int }
(** Inclusive integer range. *)

val avg : range -> float

type region = { first : int; last : int }
(** Inclusive page range. *)

val region_size : region -> int
val in_region : region -> int -> bool

type access_pattern =
  | Clustered  (** all referenced objects of a page referenced together *)
  | Unclustered  (** object references across pages interleaved *)

type per_client = {
  hot_region : region option;  (** [None]: every access uses [cold_region] *)
  cold_region : region;
  hot_access_prob : float;  (** probability an access targets the hot region *)
  hot_write_prob : float;  (** probability an object read leads to an update *)
  cold_write_prob : float;
}

type t = {
  name : string;
  trans_size : int;  (** pages accessed per transaction *)
  page_locality : range;  (** objects accessed per visited page *)
  access_pattern : access_pattern;
  per_object_read_instr : float;
      (** client CPU cost to process one object read *)
  per_object_write_instr : float;  (** doubled for writes (Section 4.2) *)
  think_time : float;  (** delay between transactions of a client *)
  clients : per_client array;
  remap : (Storage.Ids.Oid.t -> Storage.Ids.Oid.t) option;
      (** physical relocation of objects, used by Interleaved PRIVATE *)
  generic : Generic.t option;
      (** [Some g]: transactions come from the generic object-base
          generator instead of the preset hot/cold draw *)
  arrival : Arrival.t option;
      (** [Some a]: think times modulated by the traffic shape;
          [None] is the constant-rate paper behaviour *)
}

val validate : t -> db_pages:int -> objects_per_page:int -> unit
(** Sanity-check region bounds, feasibility of [trans_size] and that
    [think_time] is finite and non-negative; raises [Invalid_argument]
    on inconsistency. *)
