(* Helpers over experiment specs: cut a grid down to some rows, and run
   one on the pool. *)

open Oodb_core

let restrict (spec : Experiments.spec) tags =
  {
    spec with
    Experiments.rows =
      (fun () ->
        List.filter
          (fun (r : Experiments.row) -> List.mem r.Experiments.tag tags)
          (spec.Experiments.rows ()));
  }

let spec id = Option.get (Experiments.find id)

(* fig3's wp=0.1 row: the base cell of most golden checks. *)
let fig3_point () = restrict (spec "fig3") [ "wp=0.10" ]

let run ?oracle ?timeline ?servers ?(time_scale = 0.1) ~jobs spec =
  Experiments.series_of_results spec
    (Harness.Pool.run ~jobs
       (Experiments.jobs_of_spec ~time_scale ?oracle ?timeline ?servers spec))

(* The results of every cell, in row order (a row carries its label
   function, so rows themselves do not compare). *)
let results (s : Experiments.series) =
  List.map (fun (p : Experiments.point) -> p.Experiments.results) s.Experiments.points
