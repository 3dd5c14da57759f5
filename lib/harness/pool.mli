(** A fixed-size worker pool over OCaml 5 domains.

    [map]/[run] fan a work list out over [jobs] workers pulling from a
    shared queue (an atomic index into the list).  Results always come
    back in submission order, whatever the scheduling; progress
    callbacks are serialized under a mutex so workers may print.  With
    [~jobs:1] (or a single item) everything runs sequentially in the
    calling domain — exactly the pre-pool code path.

    The work items must not share mutable state: each simulation job
    builds its own {!Oodb_core.Model.sys}, so [Job.run] qualifies. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): leave one
    core for the coordinating domain. *)

type failure = {
  index : int;  (** position of the failed item in the input list *)
  description : string;  (** [describe item] — which cell failed *)
  error : exn;  (** what it failed with *)
}

exception Sweep_failed of failure list
(** Raised by {!map}/{!run} after {e all} items have been attempted,
    carrying every failure in input order.  A registered printer
    renders the list, so an uncaught sweep failure names each failed
    cell instead of only the first exception encountered. *)

val map :
  ?jobs:int ->
  ?describe:('a -> string) ->
  ?progress:('a -> 'b -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f items] applies [f] to every item across [jobs]
    workers (default {!default_jobs}) and returns the results in input
    order.  [progress] is called once per completed item, serialized
    across workers but in completion order.  If any application
    raises, the remaining items still run to completion and
    {!Sweep_failed} is raised after all workers have been joined, with
    each failure attributed via [describe] (default: ["item <index>"]). *)

val run :
  ?jobs:int ->
  ?progress:(Oodb_core.Job.t -> Oodb_core.Runner.result -> unit) ->
  Oodb_core.Job.t list ->
  Oodb_core.Runner.result list
(** [map] specialized to {!Oodb_core.Job.run}. *)
