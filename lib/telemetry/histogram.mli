(** Mergeable log-bucketed latency histogram (HDR-style).

    Regular bucket [i] covers [[lo*10^(i/bpd), lo*10^((i+1)/bpd))] in
    closed form, so a quantile estimate is off from the exact sample
    quantile by at most one bucket — a relative error bounded by
    [growth_factor t -. 1.0].  Samples below [lo] land in an underflow
    bucket whose quantile estimate is the exact recorded minimum;
    samples at or above [hi] land in an overflow bucket reporting the
    exact maximum, so the error bound holds for every sample.

    The bucket array is allocated by the first sample, so a histogram
    that records nothing costs a few words.  From then on recording
    touches one array slot plus four scalar fields: no allocation, no
    RNG, no events — safe to leave always-on without perturbing a
    simulation.  Merging adds bucket counts elementwise,
    which is associative, commutative, and invariant under record
    order (the floating-point [total] may differ in the last ulp
    across merge orders; counts, extrema, and quantiles cannot). *)

type t

val create : ?lo:float -> ?hi:float -> ?buckets_per_decade:int -> unit -> t
(** Defaults: [lo = 1e-6] (1 us), [hi = 1e4] seconds, 90 buckets per
    decade (2.6% relative quantile error).  Raises [Invalid_argument]
    unless [0 < lo < hi] and [buckets_per_decade >= 1]. *)

val record : t -> float -> unit
(** Record one sample.  Negative samples clamp to 0 (underflow
    bucket); NaNs are dropped. *)

val merge : into:t -> t -> unit
(** Add [src]'s buckets into [into].  Raises [Invalid_argument] when
    the two bucket geometries differ. *)

val copy : t -> t
val reset : t -> unit

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0,1]]: the upper edge of the bucket
    containing the sample of rank [ceil (q * n)] (clamped to the exact
    maximum).  0.0 on an empty histogram. *)

val count : t -> int
val total : t -> float
val mean : t -> float
val min_value : t -> float
val max_value : t -> float
val is_empty : t -> bool
val num_buckets : t -> int
val growth_factor : t -> float

val bucket_lo : t -> int -> float
(** Closed-form lower edge of regular bucket [i] (0-based). *)

val bucket_hi : t -> int -> float

val iter_buckets : t -> (lo:float -> hi:float -> count:int -> unit) -> unit
(** Visit non-empty buckets in increasing value order, including the
    underflow ([lo = 0.0]) and overflow ([hi = infinity]) buckets. *)
