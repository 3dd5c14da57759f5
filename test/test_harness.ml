(* The property that makes the parallel harness safe: a job's random
   stream is a pure function of its description, so results are
   byte-identical regardless of worker count, scheduling, or position
   in the job list. *)

open Oodb_core

(* --- Pool mechanics ------------------------------------------------------ *)

let test_pool_map_ordering () =
  let items = List.init 57 (fun i -> i) in
  let f x = (x * x) + 1 in
  let seq = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map with %d workers preserves order" jobs)
        seq
        (Harness.Pool.map ~jobs f items))
    [ 1; 2; 4; 16 ]

let test_pool_progress_serialized () =
  let count = ref 0 in
  let results =
    Harness.Pool.map ~jobs:4
      ~progress:(fun _ _ -> incr count)
      (fun x -> x + 1)
      (List.init 40 (fun i -> i))
  in
  (* Progress calls run under the pool's mutex, so the unguarded
     counter must still reach exactly one call per item. *)
  Alcotest.(check int) "one progress call per item" 40 !count;
  Alcotest.(check int) "all results present" 40 (List.length results)

(* A failing job must not abort the sweep: every other item still runs,
   and the summary attributes each failure to its cell. *)
let check_sweep_failure ~jobs =
  let ran = Array.make 16 false in
  match
    Harness.Pool.map ~jobs
      ~describe:(fun x -> Printf.sprintf "cell-%d" x)
      (fun x ->
        ran.(x) <- true;
        if x = 7 || x = 11 then failwith (Printf.sprintf "boom %d" x) else x)
      (List.init 16 (fun i -> i))
  with
  | (_ : int list) -> Alcotest.fail "expected Sweep_failed"
  | exception Harness.Pool.Sweep_failed failures ->
    Alcotest.(check bool) "all items attempted" true
      (Array.for_all Fun.id ran);
    Alcotest.(check (list int)) "failing indices, in order" [ 7; 11 ]
      (List.map (fun f -> f.Harness.Pool.index) failures);
    Alcotest.(check (list string)) "described" [ "cell-7"; "cell-11" ]
      (List.map (fun f -> f.Harness.Pool.description) failures);
    List.iter
      (fun f ->
        match f.Harness.Pool.error with
        | Failure msg ->
          Alcotest.(check string) "original exception preserved"
            (Printf.sprintf "boom %d" f.Harness.Pool.index)
            msg
        | e -> raise e)
      failures

let test_pool_propagates_exception () = check_sweep_failure ~jobs:4
let test_pool_sequential_failure () = check_sweep_failure ~jobs:1

(* --- Job seeding --------------------------------------------------------- *)

let test_seeds_stable_under_reordering () =
  let jobs = Experiments.jobs_of_spec (Option.get (Experiments.find "fig3")) in
  let seeds = List.map Job.seed jobs in
  let seeds_rev = List.map Job.seed (List.rev jobs) in
  Alcotest.(check (list int))
    "seed depends on the job description, not its position" seeds
    (List.rev seeds_rev);
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "every cell gets its own stream" (List.length seeds)
    (List.length distinct)

let test_seeds_differ_across_sweeps () =
  let fig3 = Experiments.jobs_of_spec (Option.get (Experiments.find "fig3")) in
  let fig6 = Experiments.jobs_of_spec (Option.get (Experiments.find "fig6")) in
  let all = List.map Job.seed fig3 @ List.map Job.seed fig6 in
  Alcotest.(check int) "no collisions across sweeps" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_base_seed_changes_streams () =
  let spec = Grid.fig3_point () in
  let s42 = List.map Job.seed (Experiments.jobs_of_spec ~seed:42 spec) in
  let s7 = List.map Job.seed (Experiments.jobs_of_spec ~seed:7 spec) in
  Alcotest.(check bool) "base seed feeds derivation" true (s42 <> s7)

(* --- End-to-end determinism ---------------------------------------------- *)


let test_parallel_matches_sequential () =
  let spec = Grid.fig3_point () in
  let seq = Grid.run ~jobs:1 spec in
  let par = Grid.run ~jobs:4 spec in
  Alcotest.(check bool)
    "--jobs 1 and --jobs 4 give identical Runner.result records" true
    (Grid.results seq = Grid.results par)

let test_sequential_driver_matches_pool () =
  let spec = Grid.fig3_point () in
  let reference =
    Experiments.series_of_results spec
      (Job.run_all (Experiments.jobs_of_spec ~time_scale:0.1 spec))
  in
  let pooled = Grid.run ~jobs:4 spec in
  Alcotest.(check bool)
    "Job.run_all and the pool agree" true
    (Grid.results reference = Grid.results pooled)

(* The benchmark builds its fig3 sweep with [jobs_of_spec ~seed
   ~time_scale:0.1] on [find "fig3"]: the same 40 cells (description,
   configuration, workload, windows) the figure always had, one
   workload value per write probability shared by the five protocols. *)
let test_fig3_jobs_unchanged () =
  let spec = Grid.spec "fig3" in
  let cfg = Config.scaled Config.default ~factor:1 in
  let expected =
    List.concat_map
      (fun write_prob ->
        let params =
          Workload.Presets.make Workload.Presets.Hotcold
            ~db_pages:cfg.Config.db_pages
            ~objects_per_page:cfg.Config.objects_per_page
            ~num_clients:cfg.Config.num_clients ~locality:Workload.Presets.Low
            ~write_prob
        in
        List.map
          (fun algo ->
            Job.make ~base_seed:7 ~sweep:"fig3"
              ~label:
                (Printf.sprintf "wp=%.2f %-5s" write_prob (Algo.to_string algo))
              ~cfg ~algo ~params ~warmup:(30.0 *. 0.1) ~measure:(120.0 *. 0.1)
              ())
          Algo.all)
      [ 0.0; 0.02; 0.05; 0.1; 0.15; 0.2; 0.3; 0.5 ]
  in
  let jobs = Experiments.jobs_of_spec ~seed:7 ~time_scale:0.1 spec in
  Alcotest.(check int) "40 cells" 40 (List.length jobs);
  Alcotest.(check bool) "same jobs, field for field" true (jobs = expected);
  Alcotest.(check bool) "cfg_of/params_of" true
    (Experiments.cfg_of spec = cfg
    && Experiments.params_of spec ~write_prob:0.1
       = (List.nth expected 15).Job.params);
  match jobs with
  | a :: b :: _ ->
    Alcotest.(check bool) "a row's protocols share one workload" true
      (a.Job.params == b.Job.params)
  | _ -> Alcotest.fail "no jobs"

(* --- Engine event budget -------------------------------------------------- *)

let test_event_budget () =
  let e = Simcore.Engine.create () in
  (* A self-rescheduling event: without a budget this runs forever. *)
  let rec tick () = Simcore.Engine.schedule_after e 0.001 tick in
  tick ();
  Alcotest.(check bool) "budget guard fires with a diagnostic" true
    (try
       Simcore.Engine.run_until ~max_events:100 e 1e9;
       false
     with Simcore.Engine.Event_budget_exceeded msg ->
       (* The diagnostic names the budget and the queue state. *)
       let mem needle =
         let open String in
         let nl = length needle and hl = length msg in
         let rec at i = i + nl <= hl && (sub msg i nl = needle || at (i + 1)) in
         at 0
       in
       mem "100" && mem "pending");
  Alcotest.(check int) "processed exactly the budget" 100
    (Simcore.Engine.events_processed e)

let suite =
  [
    Alcotest.test_case "pool: map ordering" `Quick test_pool_map_ordering;
    Alcotest.test_case "pool: progress serialized" `Quick
      test_pool_progress_serialized;
    Alcotest.test_case "pool: exception propagates" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool: sequential failure attribution" `Quick
      test_pool_sequential_failure;
    Alcotest.test_case "fig3 jobs as the benchmark builds them" `Quick
      test_fig3_jobs_unchanged;
    Alcotest.test_case "job seeds stable under reordering" `Quick
      test_seeds_stable_under_reordering;
    Alcotest.test_case "job seeds unique across sweeps" `Quick
      test_seeds_differ_across_sweeps;
    Alcotest.test_case "base seed changes streams" `Quick
      test_base_seed_changes_streams;
    Alcotest.test_case "fig3 point: jobs=1 == jobs=4" `Slow
      test_parallel_matches_sequential;
    Alcotest.test_case "sequential driver == pool" `Slow
      test_sequential_driver_matches_pool;
    Alcotest.test_case "engine event budget" `Quick test_event_budget;
  ]
