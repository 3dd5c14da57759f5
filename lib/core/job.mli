(** A simulation job: one pure, self-contained description of a single
    experiment cell — configuration, protocol, workload, seed and
    measurement windows — that maps to one {!Runner.result}.

    {!Experiments} only *describes* its grids as job lists; execution is
    injected, either sequentially ({!run_all}) or by the parallel
    [Harness.Pool].  Each job derives its RNG seed from its description
    alone ({!seed}), so results are byte-identical regardless of worker
    count, scheduling, or position in the job list. *)

type t = {
  sweep : string;  (** sweep id, e.g. ["fig3"] or ["sens-clients"] *)
  label : string;  (** cell label, unique within the sweep *)
  cfg : Config.t;
  algo : Algo.t;
  params : Workload.Wparams.t;
  base_seed : int;  (** sweep-level base seed (default 42) *)
  warmup : float;  (** warm-up window, simulated seconds *)
  measure : float;  (** measurement window, simulated seconds *)
  max_events : int option;
      (** event-budget bound per window, passed to {!Runner.run}; not
          part of the seed key (it does not change the experiment, only
          caps runaway fault storms) *)
}

val make :
  ?base_seed:int ->
  ?max_events:int ->
  sweep:string ->
  label:string ->
  cfg:Config.t ->
  algo:Algo.t ->
  params:Workload.Wparams.t ->
  warmup:float ->
  measure:float ->
  unit ->
  t

val describe : t -> string
(** ["sweep/label"], for progress lines and error messages. *)

val with_oracle : t -> t
(** The same job with [Config.oracle] set.  {!seed} is a function of
    the description, not the configuration, so the oracle-enabled job
    replays the identical event schedule. *)

val seed : t -> int
(** The job's own RNG seed, derived from [base_seed] and the job
    description via {!Simcore.Rng.key_seed}.  A pure function of the
    job: stable across job-list reordering and parallel scheduling. *)

val run : t -> Runner.result
(** Execute the simulation the job describes. *)

val run_all : t list -> Runner.result list
(** Sequential reference executor: [List.map run].  The [--jobs 1]
    path; [Harness.Pool.run] is the parallel one. *)
