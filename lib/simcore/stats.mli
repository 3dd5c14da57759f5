(** Statistics accumulators for simulation output analysis.

    The paper validates its results with 90% confidence intervals on
    transaction response times computed by the method of batch means
    (Section 5.1); {!Batch_means} implements exactly that.  The other
    accumulators support the auxiliary metrics (utilizations, message
    counts, wait times). *)

module Welford : sig
  (** Streaming mean/variance in one pass (Welford's algorithm). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0.0 when empty. *)

  val variance : t -> float
  (** Sample variance (n-1 denominator); 0.0 with fewer than 2 samples. *)

  val stddev : t -> float
  val min : t -> float
  (** +inf when empty. *)

  val max : t -> float
  (** -inf when empty. *)

  val sum : t -> float
  val reset : t -> unit
end

module Counter : sig
  (** A named monotonic event counter. *)

  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Time_weighted : sig
  (** Time-weighted average of a piecewise-constant signal, e.g. the
      number of busy servers of a resource, integrated over simulated
      time.  Feeding a 0/1 signal yields a utilization. *)

  type t

  val create : now:float -> t

  val update : t -> now:float -> float -> unit
  (** [update t ~now v]: the signal takes value [v] from [now] on. *)

  val average : t -> now:float -> float
  (** Average of the signal from creation (or last [reset]) to [now]. *)

  val origin : t -> float
  (** Start of the current integration: creation or last [reset]. *)

  val reset : t -> now:float -> unit
  (** Restart integration at [now], keeping the current signal value. *)
end

module Batch_means : sig
  (** Confidence intervals for steady-state means from a single run.

      Observations are grouped into fixed-size batches; the batch means
      are treated as (approximately) independent samples, giving a
      Student-t confidence interval for the true mean. *)

  type t

  val create : batch_size:int -> t
  val add : t -> float -> unit
  val num_batches : t -> int
  val mean : t -> float
  (** Grand mean over complete batches (falls back to the raw running
      mean when no batch has completed yet). *)

  val ci90_half_width : t -> float
  (** Half-width of the 90% confidence interval for the mean.  Returns
      [infinity] with fewer than 2 complete batches. *)

  val relative_ci90 : t -> float
  (** [ci90_half_width / |mean|]; [infinity] when undefined. *)
end

val t90 : int -> float
(** [t90 df] is the two-sided 90% Student-t critical value (i.e. the
    0.95 quantile) for [df] degrees of freedom. *)
