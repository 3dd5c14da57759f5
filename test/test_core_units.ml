open Oodb_core

(* --- Config -------------------------------------------------------------- *)

let test_default_valid () =
  Config.validate Config.default;
  Alcotest.(check int) "client buffer pages" 312
    (Config.client_buf_pages Config.default);
  Alcotest.(check int) "server buffer pages" 625
    (Config.server_buf_pages Config.default);
  Alcotest.(check int) "client buffer objects" (312 * 20)
    (Config.client_buf_objects Config.default);
  Alcotest.(check int) "object bytes" 204 (Config.object_bytes Config.default)

let test_scaled () =
  let s = Config.scaled Config.default ~factor:9 in
  Config.validate s;
  Alcotest.(check int) "db x9" 11250 s.Config.db_pages;
  Alcotest.(check int) "client buffer follows" 2812 (Config.client_buf_pages s)

let test_msg_costs () =
  let cfg = Config.default in
  Alcotest.(check int) "control bytes" 256 (Config.control_bytes cfg);
  Alcotest.(check int) "page msg bytes" (4096 + 256) (Config.page_msg_bytes cfg);
  Alcotest.(check int) "objs msg bytes" ((3 * 204) + 256)
    (Config.objs_msg_bytes cfg ~count:3);
  let inst = Config.msg_instr cfg ~bytes:4096 in
  Alcotest.(check (float 1.0)) "page payload ~30000 instr" 30_000.0 inst

let test_invalid_rejected () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           Config.validate cfg;
           false
         with Invalid_argument _ -> true))
    [
      { Config.default with Config.num_clients = 0 };
      { Config.default with Config.server_disks = 0 };
      { Config.default with Config.min_disk_time = 0.05; max_disk_time = 0.01 };
      { Config.default with Config.db_pages = 0 };
    ]

(* --- Algo ---------------------------------------------------------------- *)

let test_algo_roundtrip () =
  List.iter
    (fun a ->
      Alcotest.(check bool) "roundtrip" true
        (Algo.of_string (Algo.to_string a) = Some a))
    Algo.all;
  Alcotest.(check bool) "unknown" true (Algo.of_string "nope" = None)

let test_algo_axes () =
  Alcotest.(check bool) "OS ships objects" false (Algo.transfers_pages Algo.OS);
  Alcotest.(check bool) "PS ships pages" true (Algo.transfers_pages Algo.PS);
  Alcotest.(check bool) "PS locks pages only" false (Algo.locks_objects Algo.PS);
  Alcotest.(check bool) "PS-OO object copies" false
    (Algo.page_grain_copies Algo.PS_OO);
  Alcotest.(check bool) "PS-OA page copies" true
    (Algo.page_grain_copies Algo.PS_OA)

(* --- Metrics ------------------------------------------------------------- *)

let test_metrics_counts () =
  let m = Metrics.create () in
  Metrics.note_msg m Metrics.M_read_req ~bytes:256;
  Metrics.note_msg m Metrics.M_read_reply ~bytes:4352;
  Metrics.note_commit m ~response:0.5;
  Metrics.note_commit m ~response:1.5;
  Metrics.note_abort m;
  Alcotest.(check int) "messages" 2 (Metrics.messages m);
  Alcotest.(check int) "by class" 1 (Metrics.messages_of m Metrics.M_read_req);
  Alcotest.(check int) "bytes" 4608 (Metrics.bytes m);
  Alcotest.(check int) "commits" 2 (Metrics.commits m);
  Alcotest.(check int) "aborts" 1 (Metrics.aborts m);
  Alcotest.(check (float 1e-9)) "msgs/commit" 1.0 (Metrics.msgs_per_commit m);
  Alcotest.(check (float 1e-9)) "throughput" 0.2 (Metrics.throughput m ~now:10.0)

let test_metrics_reset () =
  let m = Metrics.create () in
  Metrics.note_commit m ~response:1.0;
  Metrics.note_msg m Metrics.M_commit ~bytes:100;
  Metrics.reset m ~now:50.0;
  Alcotest.(check int) "commits cleared" 0 (Metrics.commits m);
  Alcotest.(check int) "messages cleared" 0 (Metrics.messages m);
  Metrics.note_commit m ~response:1.0;
  Alcotest.(check (float 1e-9)) "window restarts" 0.1
    (Metrics.throughput m ~now:60.0)

(* --- Analytic (fig 5) ----------------------------------------------------- *)

let test_page_write_prob () =
  Alcotest.(check (float 1e-12)) "k=1 identity" 0.3
    (Analytic.page_write_prob ~object_write_prob:0.3 ~objects_accessed:1);
  Alcotest.(check (float 1e-9)) "k=4" (1.0 -. (0.8 ** 4.0))
    (Analytic.page_write_prob ~object_write_prob:0.2 ~objects_accessed:4);
  Alcotest.(check (float 1e-12)) "w=0" 0.0
    (Analytic.page_write_prob ~object_write_prob:0.0 ~objects_accessed:12);
  Alcotest.(check (float 1e-12)) "w=1" 1.0
    (Analytic.page_write_prob ~object_write_prob:1.0 ~objects_accessed:5)

let test_page_write_prob_monotone () =
  (* Increasing in both w and k. *)
  let f w k = Analytic.page_write_prob ~object_write_prob:w ~objects_accessed:k in
  Alcotest.(check bool) "monotone in w" true (f 0.2 4 < f 0.3 4);
  Alcotest.(check bool) "monotone in k" true (f 0.2 4 < f 0.2 12)

let test_page_write_prob_range () =
  let r =
    Analytic.page_write_prob_range ~object_write_prob:0.2
      ~locality:{ Workload.Wparams.lo = 1; hi = 7 }
  in
  let lo = Analytic.page_write_prob ~object_write_prob:0.2 ~objects_accessed:1 in
  let hi = Analytic.page_write_prob ~object_write_prob:0.2 ~objects_accessed:7 in
  Alcotest.(check bool) "between extremes" true (r > lo && r < hi)

let prop_page_write_prob_bounds =
  QCheck.Test.make ~name:"page write probability in [0,1]" ~count:300
    QCheck.(pair (float_bound_inclusive 1.0) (int_range 0 40))
    (fun (w, k) ->
      let v = Analytic.page_write_prob ~object_write_prob:w ~objects_accessed:k in
      v >= 0.0 && v <= 1.0)

(* --- Experiments specs ----------------------------------------------------- *)

let test_experiment_specs () =
  let ids = List.map (fun s -> s.Experiments.id) Experiments.all in
  Alcotest.(check int) "eleven figures" 11
    (List.length (List.filter (String.starts_with ~prefix:"fig") ids));
  Alcotest.(check int) "twenty-five grids" 25 (List.length ids);
  Alcotest.(check int) "ids unique" 25 (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "fig3 exists" true (Experiments.find "fig3" <> None);
  Alcotest.(check bool) "unknown" true (Experiments.find "fig99" = None);
  let names = List.map (fun m -> m.Metric.name) Metric.all in
  Alcotest.(check int) "metric names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (spec : Experiments.spec) ->
      (* Every spec must produce a valid config and workload. *)
      let cfg = Experiments.cfg_of spec in
      Config.validate cfg;
      ignore (Experiments.params_of spec ~write_prob:0.1);
      List.iter
        (fun (row : Experiments.row) ->
          Config.validate row.Experiments.cfg;
          Workload.Wparams.validate row.Experiments.params
            ~db_pages:row.Experiments.cfg.Config.db_pages
            ~objects_per_page:row.Experiments.cfg.Config.objects_per_page)
        (spec.Experiments.rows ()))
    Experiments.all

let test_figure5_data () =
  let curves = Experiments.figure5 () in
  Alcotest.(check int) "three curves" 3 (List.length curves);
  List.iter
    (fun (_, pts) ->
      (* monotone nondecreasing in w *)
      ignore
        (List.fold_left
           (fun prev (_, v) ->
             if v < prev -. 1e-12 then Alcotest.fail "not monotone";
             v)
           0.0 pts))
    curves

(* --- Trace laziness ------------------------------------------------------ *)

(* With the [oodb.kernel] source disabled (the default), trace call
   sites must not format their arguments: an entire simulated run may
   render zero messages.  Flipping the source level on (no reporter
   needed — rendering happens before the reporter) makes the same run
   format them, proving the call sites are live. *)
let test_trace_lazy_when_off () =
  let run () =
    let spec = Option.get (Experiments.find "fig3") in
    let cfg = Experiments.cfg_of spec in
    let params = Experiments.params_of spec ~write_prob:0.1 in
    ignore
      (Runner.run ~seed:7 ~warmup:2.0 ~measure:8.0 ~cfg ~algo:Algo.PS_AA
         ~params ())
  in
  Logs.Src.set_level Trace.src None;
  Alcotest.(check bool) "tracing off" false (Trace.active ());
  let before = Trace.rendered () in
  run ();
  Alcotest.(check int) "tracing off formats nothing" 0
    (Trace.rendered () - before);
  Logs.Src.set_level Trace.src (Some Logs.Debug);
  let before = Trace.rendered () in
  Fun.protect
    ~finally:(fun () -> Logs.Src.set_level Trace.src None)
    run;
  Alcotest.(check bool) "tracing on formats events" true
    (Trace.rendered () - before > 0)

let suite =
  [
    Alcotest.test_case "default config valid" `Quick test_default_valid;
    Alcotest.test_case "scaled config" `Quick test_scaled;
    Alcotest.test_case "message costs" `Quick test_msg_costs;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_rejected;
    Alcotest.test_case "algo roundtrip" `Quick test_algo_roundtrip;
    Alcotest.test_case "algo axes" `Quick test_algo_axes;
    Alcotest.test_case "metrics counts" `Quick test_metrics_counts;
    Alcotest.test_case "metrics reset" `Quick test_metrics_reset;
    Alcotest.test_case "page write probability" `Quick test_page_write_prob;
    Alcotest.test_case "page write prob monotone" `Quick
      test_page_write_prob_monotone;
    Alcotest.test_case "page write prob over range" `Quick
      test_page_write_prob_range;
    QCheck_alcotest.to_alcotest prop_page_write_prob_bounds;
    Alcotest.test_case "experiment specs" `Quick test_experiment_specs;
    Alcotest.test_case "figure 5 data" `Quick test_figure5_data;
    Alcotest.test_case "trace off allocates no log strings" `Slow
      test_trace_lazy_when_off;
  ]
