(* Regenerate the paper's tables and figures and run the other
   experiment grids.  Every grid id (see Experiments.all) runs its
   (row x protocol) cells — fanned out over a domain pool (--jobs) —
   and prints its throughput table; fig5 is analytic; "table1"/"table2"
   print the parameter tables.  One CSV per grid is written when
   --csv-dir is given. *)

open Cmdliner
open Oodb_core

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let write_csv ~dir ~id csv =
  let path = Filename.concat dir (id ^ ".csv") in
  match open_out path with
  | exception Sys_error msg ->
    Format.eprintf "error: cannot write CSV file %s (%s)@." path msg;
    false
  | oc ->
    output_string oc csv;
    close_out oc;
    Format.printf "wrote %s@." path;
    true

(* One trace per cell, named after the sweep and the cell label:
   fig3-wp0.10-PS-AA.json, faultsweep-rate0.005-PS.json, ...  Only
   called when --timeline enabled the recorder, so every result
   carries one. *)
let write_timeline ~dir (j : Job.t) (r : Runner.result) =
  match r.Runner.timeline with
  | None -> ()
  | Some tl ->
    let safe = function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> true
      | _ -> false
    in
    let words =
      String.split_on_char ' ' j.Job.label
      |> List.filter (( <> ) "")
      |> List.map (fun w -> String.of_seq (Seq.filter safe (String.to_seq w)))
    in
    let path =
      Filename.concat dir (String.concat "-" (j.Job.sweep :: words) ^ ".json")
    in
    let dropped = Telemetry.Perfetto.write_file tl ~path in
    Format.printf "  timeline: %d events -> %s%s@."
      (Telemetry.Timeline.length tl)
      path
      (if dropped > 0 then
         Printf.sprintf " (%d spans truncated by ring wrap)" dropped
       else "")

let run_spec ~time_scale ~oracle ~timeline_dir ~percentiles ~njobs ~csv_dir
    ~detail spec =
  let jobs =
    Experiments.jobs_of_spec ~time_scale ~oracle
      ~timeline:(timeline_dir <> None) spec
  in
  let progress j r = Format.printf "  %s@.%!" (Experiments.progress_line j r) in
  let results = Harness.Pool.run ~jobs:njobs ~progress jobs in
  let series = Experiments.series_of_results spec results in
  Format.printf "%s@?" (Report.render ~percentiles ~detail series);
  Option.iter
    (fun dir ->
      mkdir_p dir;
      List.iter2 (write_timeline ~dir) jobs results)
    timeline_dir;
  match csv_dir with
  | None -> true
  | Some dir -> write_csv ~dir ~id:spec.Experiments.id (Report.to_csv series)

let run_id ?(time_scale = 1.0) ?(oracle = false) ?timeline_dir
    ?(percentiles = false) ~njobs ~csv_dir ~detail id =
  match id with
  | "table1" ->
    Format.printf "%a@." Config.pp Config.default;
    true
  | "table2" ->
    Format.printf "%a@." Report.pp_workload_table Config.default;
    true
  | "fig5" ->
    Format.printf "%a@." Report.pp_figure5 (Experiments.figure5 ());
    true
  | id -> (
    match Experiments.find id with
    | None ->
      Format.printf "unknown experiment id %S@." id;
      false
    | Some spec ->
      run_spec ~time_scale ~oracle ~timeline_dir ~percentiles ~njobs ~csv_dir
        ~detail spec)

let all_ids =
  "table1" :: "table2" :: "fig5"
  :: List.map (fun s -> s.Experiments.id) Experiments.all

let run ids time_scale oracle timeline_dir percentiles njobs csv_dir detail =
  let ids = if ids = [] then all_ids else ids in
  match
    Option.iter
      (fun dir ->
        try mkdir_p dir
        with Sys_error msg ->
          raise
            (Sys_error
               (Printf.sprintf "cannot create CSV directory %s (%s)" dir msg)))
      csv_dir
  with
  | exception Sys_error msg ->
    Format.eprintf "error: %s@." msg;
    1
  | () ->
    let ok =
      List.fold_left
        (fun ok id ->
          run_id ~time_scale ~oracle ?timeline_dir ~percentiles ~njobs
            ~csv_dir ~detail id
          && ok)
        true ids
    in
    if ok then 0 else 1

let ids_t =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"ID"
        ~doc:
          "Experiment ids (table1, table2, fig5, fig3..fig14, faultsweep, \
           shardsweep, srvfaultsweep, clustersweep, sens-*, abl-*); all \
           when omitted")

let time_scale_t =
  Arg.(
    value & opt float 1.0
    & info [ "time-scale" ]
        ~doc:"Multiply warm-up and measurement windows (0.25 = quick look)")

let oracle_t =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Attach the serializability oracle to every cell: record and \
           check each run's transaction history (figures are unchanged; a \
           violation fails the sweep with a witness)")

let timeline_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"DIR"
        ~doc:
          "Record a binary event timeline in every cell and write one \
           Chrome/Perfetto trace.json per cell into DIR (created if \
           missing); figures are unchanged")

let percentiles_t =
  Arg.(
    value & flag
    & info [ "percentiles" ]
        ~doc:
          "After each grid's throughput table, print the response-time \
           p50/p90/p99 per cell and a per-protocol summary of the \
           histograms merged across the grid")

let jobs_t =
  Arg.(
    value
    & opt int (Harness.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains running simulation cells in parallel (default: \
           cores - 1).  Results are byte-identical for any N; $(b,--jobs 1) \
           is the sequential path.")

let csv_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ]
        ~doc:
          "Also write one CSV per grid into this directory (created \
           recursively if missing)")

let detail_t =
  Arg.(
    value & flag
    & info [ "detail" ] ~doc:"Print one line of auxiliary metrics per cell")

let cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"regenerate the tables and figures of the SIGMOD'94 paper")
    Term.(
      const run $ ids_t $ time_scale_t $ oracle_t $ timeline_dir_t
      $ percentiles_t $ jobs_t $ csv_dir_t $ detail_t)

let () = exit (Cmd.eval' cmd)
