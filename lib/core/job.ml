type t = {
  sweep : string;
  label : string;
  cfg : Config.t;
  algo : Algo.t;
  params : Workload.Wparams.t;
  base_seed : int;
  warmup : float;
  measure : float;
  max_events : int option;
}

let make ?(base_seed = 42) ?max_events ~sweep ~label ~cfg ~algo ~params
    ~warmup ~measure () =
  { sweep; label; cfg; algo; params; base_seed; warmup; measure; max_events }

let describe j = j.sweep ^ "/" ^ j.label

(* The key (below) deliberately excludes the configuration, so turning
   the oracle on leaves the job's seed — and hence its entire event
   schedule — untouched. *)
let with_oracle j = { j with cfg = { j.cfg with Config.oracle = true } }

(* The seed key must identify the cell uniquely within its sweep and be
   a pure function of the description, so that a job's random stream is
   the same no matter where in a job list it sits or which worker domain
   picks it up.  The label carries the sweep coordinates (write
   probability, algorithm, configuration knobs); the remaining fields
   guard against two sweeps sharing a label. *)
let key j =
  Printf.sprintf "%s|%s|%s|%s|%.17g|%.17g" j.sweep j.label
    (Algo.to_string j.algo) j.params.Workload.Wparams.name j.warmup j.measure

let seed j = Simcore.Rng.key_seed ~seed:j.base_seed ~key:(key j)

let run j =
  Runner.run ~seed:(seed j) ?max_events:j.max_events ~warmup:j.warmup
    ~measure:j.measure ~cfg:j.cfg ~algo:j.algo ~params:j.params ()

let run_all jobs = List.map run jobs
