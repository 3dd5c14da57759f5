(* Rendering: every CSV row must carry exactly as many fields as its
   header — including the percentile columns — so downstream plotting
   scripts never mis-align; and the one renderer must reproduce the
   goldens of the per-sweep printers it replaced. *)

open Oodb_core

let split_csv line = String.split_on_char ',' line

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let check_arity ~what csv =
  match lines csv with
  | [] -> Alcotest.failf "%s: empty CSV" what
  | header :: rows ->
    let width = List.length (split_csv header) in
    Alcotest.(check bool) (what ^ ": header non-trivial") true (width > 10);
    List.iteri
      (fun i row ->
        Alcotest.(check int)
          (Printf.sprintf "%s: row %d arity matches header" what i)
          width
          (List.length (split_csv row)))
      rows;
    (header, rows)

let contains_field header f = List.mem f (split_csv header)

(* Canned results: the schema and the layout, not the numbers, are
   under test, so nothing here runs a simulation. *)
let canned_series (spec : Experiments.spec) =
  Experiments.series_of_results spec
    (Canned.results (Experiments.jobs_of_spec spec))

let mk_series () =
  canned_series (Grid.restrict (Grid.spec "fig3") [ "wp=0.05"; "wp=0.10" ])

let mk_fault_series () =
  canned_series
    (Grid.restrict (Grid.spec "faultsweep") [ "rate=0.000"; "rate=0.010" ])

let test_series_csv () =
  let series = mk_series () in
  let csv = Report.to_csv series in
  let header, rows = check_arity ~what:"figure CSV" csv in
  Alcotest.(check int) "one row per (wp, algo) cell"
    (2 * List.length Algo.all)
    (List.length rows);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "header has %s" f)
        true
        (contains_field header f))
    [
      "figure"; "write_prob"; "algo"; "throughput"; "resp_ms";
      "resp_p50_ms"; "resp_p90_ms"; "resp_p99_ms"; "lock_wait_p99_ms";
      "cb_round_p99_ms";
    ];
  (* The percentile cells are real numbers, parseable and ordered. *)
  let idx name =
    let rec go i = function
      | [] -> Alcotest.failf "no %s column" name
      | f :: _ when f = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 (split_csv header)
  in
  let p50_i = idx "resp_p50_ms" and p99_i = idx "resp_p99_ms" in
  List.iter
    (fun row ->
      let fields = Array.of_list (split_csv row) in
      let p50 = float_of_string fields.(p50_i)
      and p99 = float_of_string fields.(p99_i) in
      Alcotest.(check bool) "p50 <= p99 in CSV" true (p50 <= p99))
    rows

let test_fault_series_csv () =
  let csv = Report.to_csv (mk_fault_series ()) in
  let header, rows = check_arity ~what:"faultsweep CSV" csv in
  Alcotest.(check int) "one row per (rate, algo) cell"
    (2 * List.length Algo.all)
    (List.length rows);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "header has %s" f)
        true
        (contains_field header f))
    [
      "rate"; "algo"; "throughput"; "faults_injected"; "recoveries";
      "resp_p50_ms"; "resp_p99_ms"; "lock_wait_p99_ms";
    ]

let test_percentile_report_renders () =
  let r = Canned.result 0 Algo.PS_AA in
  let s = Format.asprintf "%a" Report.pp_percentiles r in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions response percentiles" true
    (contains "response p50/p90/p99");
  Alcotest.(check bool) "mentions lock wait" true (contains "lock wait p99");
  let series = mk_series () in
  let plain = Report.render ~percentiles:false ~detail:false series in
  let sp = Report.render ~percentiles:true ~detail:false series in
  Alcotest.(check bool) "series percentiles render" true
    (String.length sp > String.length plain + 100)

let test_merged_hists () =
  let series = mk_series () in
  let merged = Report.merged_response_hists series in
  Alcotest.(check int) "one merged histogram per algorithm"
    (List.length Algo.all) (List.length merged);
  let per_cell =
    Telemetry.Histogram.count (Canned.result 0 Algo.PS).Runner.hists.Metrics.h_response
  in
  List.iter
    (fun ((a : Algo.t), h) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: merged count = sum of cells" (Algo.to_string a))
        (2 * per_cell)
        (Telemetry.Histogram.count h))
    merged

(* --- Goldens ---------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The files under golden/ were rendered by the per-sweep printers that
   preceded the shared spec type, from these same canned results: a
   figure's full --percentiles --detail output, a sweep's table with
   its detail block, and every CSV.  One code path must reproduce all
   of them byte for byte. *)
let test_render_goldens () =
  List.iter
    (fun id ->
      let series = canned_series (Grid.spec id) in
      let figure = String.sub id 0 3 = "fig" in
      Alcotest.(check string)
        (id ^ " table, percentiles and detail")
        (read_file ("golden/" ^ id ^ ".txt"))
        (Report.render ~percentiles:figure ~detail:true series);
      Alcotest.(check string) (id ^ " CSV")
        (read_file ("golden/" ^ id ^ ".csv"))
        (Report.to_csv series))
    [ "fig3"; "fig12"; "faultsweep"; "shardsweep"; "srvfaultsweep"; "clustersweep" ]

let test_every_grid_renders () =
  List.iter
    (fun (spec : Experiments.spec) ->
      let series = canned_series spec in
      let id = spec.Experiments.id in
      let _, rows = check_arity ~what:id (Report.to_csv series) in
      Alcotest.(check int) (id ^ ": one CSV row per cell")
        (List.length (Experiments.jobs_of_spec spec))
        (List.length rows);
      let text = Report.render ~percentiles:true ~detail:true series in
      Alcotest.(check bool) (id ^ ": table titled") true
        (String.starts_with ~prefix:(id ^ ": ") text))
    Experiments.all

(* Every cell's seed key ("sweep/label") and seed, over all 25 grids:
   the digest of the sorted "describe seed" lines the per-sweep job
   builders, the sensitivity tables and the ablation tables produced
   before the grids shared one spec type.  A changed label or window
   would silently re-seed a cell. *)
let test_seed_digest () =
  let lines =
    List.concat_map (fun s -> Experiments.jobs_of_spec s) Experiments.all
    |> List.map (fun j -> Printf.sprintf "%s %d\n" (Job.describe j) (Job.seed j))
    |> List.sort compare
  in
  Alcotest.(check int) "cells" 560 (List.length lines);
  Alcotest.(check string) "digest of (describe, seed) over every cell"
    "afeea9331ef0bfab0ab006901f16631f"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

let suite =
  [
    Alcotest.test_case "series CSV arity + percentile columns" `Quick
      test_series_csv;
    Alcotest.test_case "fault series CSV arity" `Quick test_fault_series_csv;
    Alcotest.test_case "percentile reports render" `Quick
      test_percentile_report_renders;
    Alcotest.test_case "merged histograms across a series" `Quick
      test_merged_hists;
    Alcotest.test_case "render goldens: six grids" `Quick test_render_goldens;
    Alcotest.test_case "every grid renders" `Quick test_every_grid_renders;
    Alcotest.test_case "seed digest over every grid" `Quick test_seed_digest;
  ]
