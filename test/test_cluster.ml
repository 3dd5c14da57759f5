(* Cluster-sweep and generic-workload conformance tests.

   Four layers:
   - the faulted golden: a fig3 storm cell rendered at full float
     precision must be byte-identical to the capture taken before the
     generic workload layer landed — proof that the new Wparams fields
     and the Refstring/Client dispatch leave preset runs untouched even
     under fault injection;
   - sweep plumbing: job shape, series reassembly, CSV schema;
   - physics: declustering shifts the page-grain callback rate and
     costs PS throughput while the object-grain protocols hold;
   - conformance: generic mixes on 1 and 2 servers under a fault storm
     stay serializable (oracle attached, audit always on) for all five
     protocols. *)

open Oodb_core

(* --- Golden byte-identity under a fault storm ----------------------------- *)

(* Captured at the parent commit (pre-generic-workload) with this exact
   job description: fig3 cell, wp=0.1, Faults.storm rate 0.02, warmup
   3s, measure 12s.  31 fields at %.17g: any extra RNG draw or
   reordered event in the preset path shows up here. *)
let render (r : Runner.result) =
  Printf.sprintf
    "%s|%.17g|%.17g|%.17g|%d|%d|%d|%d|%d|%.17g|%.17g|%d|%.17g|%.17g|%.17g|%.17g|%d|%.17g|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%.17g|%.17g|%.17g"
    (Algo.to_string r.Runner.algo) r.Runner.throughput r.Runner.resp_mean
    r.Runner.resp_ci90 r.Runner.resp_batches r.Runner.commits r.Runner.aborts
    r.Runner.deadlocks r.Runner.messages r.Runner.msgs_per_commit
    r.Runner.kbytes_per_commit r.Runner.disk_ios r.Runner.server_cpu_util
    r.Runner.client_cpu_util r.Runner.disk_util r.Runner.net_util
    r.Runner.lock_waits r.Runner.avg_lock_wait r.Runner.callback_blocks
    r.Runner.merges r.Runner.deescalations r.Runner.page_write_grants
    r.Runner.object_write_grants r.Runner.overflows r.Runner.token_waits
    r.Runner.token_bounces r.Runner.crashes r.Runner.retransmits
    r.Runner.resp_p50 r.Runner.resp_p99 r.Runner.lock_wait_p99

let golden_storm =
  [
    "PS|9.5|1.1120748278840511|0.45242677798773173|4|114|13|13|7291|63.956140350877192|102.86622807017544|888|0.50034986111093038|0.18937386301664144|0.75151785224079393|0.10128213333333354|45|0.24848146987186062|57|0|0|1214|0|0|0|0|1|138|0.85769589859089446|3.8805107322101797|1.5225248334680845";
    "OS|6.083333333333333|2.1558051965587035|2.6693771469076699|2|73|1|1|15940|218.35616438356163|75.804473458904113|651|0.93881095715768759|0.23967878114085259|0.5411906380019551|0.047655449223491776|4|0.3324121317705222|10|0|0|0|870|0|0|0|1|322|1.584893192461114|5.5861655079462764|0.75771386562429921";
    "PS-OO|6.5|1.4667951648703197|0.49970881170940051|3|78|11|0|5769|73.961538461538467|139.25445713141025|778|0.40852222703355107|0.14277164246069524|0.6540169717058355|0.093679766666664721|3|0.28891406813538661|2|30|0|0|1007|0|0|0|5|248|0.83603069365146476|8.1143536697796002|0.52228404859176969";
    "PS-OA|11.083333333333334|0.89081823165733565|0.29007027944281316|5|133|1|1|8827|66.368421052631575|100.86278195488721|1041|0.59892611111088023|0.21938236338731437|0.88277557223115943|0.1160597333333408|10|0.26134341192161309|10|39|0|0|1653|0|0|0|3|195|0.75470595669689122|4.1900791057866646|0.73140324517551925";
    "PS-AA|9.1666666666666661|1.2453207839646536|0.50445770071320428|4|110|11|1|6967|63.336363636363636|100.85230823863637|827|0.47282535338913617|0.17938122137201093|0.69702652295138112|0.095477366666663954|12|0.27866372463426725|9|23|28|1063|76|0|0|0|2|201|0.6812920690579608|4.2986623470822805|1.2137926453021706";
  ]

let test_storm_golden () =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    { (Experiments.cfg_of spec) with Config.faults = Faults.storm ~rate:0.02 }
  in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  List.iter2
    (fun algo golden ->
      let j =
        Job.make ~sweep:"cluster-golden" ~label:("storm " ^ Algo.to_string algo)
          ~cfg ~algo ~params ~warmup:3.0 ~measure:12.0 ()
      in
      Alcotest.(check string)
        (Printf.sprintf "faulted %s cell byte-identical to parent"
           (Algo.to_string algo))
        golden
        (render (Job.run j)))
    Algo.all golden_storm

(* --- Sweep plumbing -------------------------------------------------------- *)

let clustersweep = Grid.spec "clustersweep"
let cells = List.length (clustersweep.Experiments.rows ())

let test_cluster_jobs_shape () =
  let jobs = Experiments.jobs_of_spec clustersweep in
  Alcotest.(check int) "six policy x skew cells" 6 cells;
  Alcotest.(check int) "cells x algos jobs"
    (cells * List.length Algo.all)
    (List.length jobs);
  (* Policy-major ordering with distinct labels. *)
  let labels = List.map (fun (j : Job.t) -> j.Job.label) jobs in
  Alcotest.(check int) "labels distinct" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  let first = List.hd jobs in
  Alcotest.(check bool) "first cell is the best-clustered policy" true
    (first.Job.label = Printf.sprintf "dfs z=0.00 %-5s" "PS")

let tiny_series () = Grid.run ~time_scale:0.02 ~jobs:1 clustersweep

(* A row's clustering quality, as its table key cell reads. *)
let quality (p : Experiments.point) =
  float_of_string (List.nth p.Experiments.row.Experiments.keys 2).Experiments.csv_text

let test_cluster_series_and_csv () =
  let s = tiny_series () in
  Alcotest.(check int) "one point per cell" cells
    (List.length s.Experiments.points);
  List.iter
    (fun (p : Experiments.point) ->
      Alcotest.(check bool) "quality in range" true
        (quality p >= 0.0 && quality p <= 1.0);
      Alcotest.(check int) "five protocols" (List.length Algo.all)
        (List.length p.Experiments.results))
    s.Experiments.points;
  (* dfs cells carry strictly better clustering quality than scatter. *)
  let quality_of policy =
    quality
      (List.find
         (fun (p : Experiments.point) ->
           String.starts_with
             ~prefix:(Workload.Placement.name policy ^ " ")
             p.Experiments.row.Experiments.tag)
         s.Experiments.points)
  in
  Alcotest.(check bool) "dfs clusters better than scatter" true
    (quality_of Workload.Placement.Dfs_ref
    > quality_of Workload.Placement.Scatter +. 0.1);
  let csv = Report.to_csv s in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "csv header"
    "policy,theta,quality,algo,throughput,resp_ms,commits,aborts,deadlocks,callback_blocks,msgs_per_commit,resp_p50_ms,resp_p99_ms,lock_wait_p99_ms"
    (List.hd lines);
  Alcotest.(check int) "csv rows"
    (cells * List.length Algo.all)
    (List.length (List.tl lines));
  (* The table renderer accepts the series. *)
  Alcotest.(check bool) "table mentions the sweep" true
    (String.starts_with ~prefix:"clustersweep: "
       (Report.render ~percentiles:false ~detail:false s))

(* --- Clustering physics ---------------------------------------------------- *)

(* Page-grain PS pays for declustering: moving the same object base
   from the depth-first layout to the level-sequential one (quality
   0.27 -> 0.00) raises its callback-block rate per commit and costs
   throughput.  Margins are wide — at full scale the shift is ~1.7x on
   callbacks and ~1.7x on throughput. *)
let cluster_cell ~policy ~algo =
  let params = Experiments.cluster_params ~policy ~theta:0.0 in
  let j =
    Job.make ~sweep:"cluster-physics"
      ~label:(Workload.Placement.name policy ^ " " ^ Algo.to_string algo)
      ~cfg:Config.default ~algo ~params ~warmup:10.0 ~measure:60.0 ()
  in
  Job.run j

let test_declustering_hurts_page_grain () =
  let dfs = cluster_cell ~policy:Workload.Placement.Dfs_ref ~algo:Algo.PS in
  let seq = cluster_cell ~policy:Workload.Placement.Sequential ~algo:Algo.PS in
  let rate (r : Runner.result) =
    float_of_int r.Runner.callback_blocks /. float_of_int (max 1 r.Runner.commits)
  in
  Alcotest.(check bool)
    (Printf.sprintf "PS callback rate shifts up (%.2f -> %.2f)" (rate dfs)
       (rate seq))
    true
    (rate seq > 1.2 *. rate dfs);
  Alcotest.(check bool)
    (Printf.sprintf "PS throughput drops (%.2f -> %.2f tps)"
       dfs.Runner.throughput seq.Runner.throughput)
    true
    (seq.Runner.throughput < 0.8 *. dfs.Runner.throughput)

let test_object_grain_holds () =
  let dfs = cluster_cell ~policy:Workload.Placement.Dfs_ref ~algo:Algo.OS in
  let seq = cluster_cell ~policy:Workload.Placement.Sequential ~algo:Algo.OS in
  (* OS locks and calls back at object grain; placement moves its
     throughput by a few percent, not the tens PS loses. *)
  Alcotest.(check bool)
    (Printf.sprintf "OS throughput holds (%.2f -> %.2f tps)"
       dfs.Runner.throughput seq.Runner.throughput)
    true
    (seq.Runner.throughput > 0.85 *. dfs.Runner.throughput)

(* --- Oracle + audit conformance -------------------------------------------- *)

(* Generic mixes under a client-fault storm on one and two servers:
   every protocol keeps committing and the recorded history stays
   conflict-serializable (the audit re-checks invariants after every
   injected fault; the oracle checks the full history at end of run). *)
let generic_storm_run ~algo ~servers ~policy ~theta ~mix ~seed =
  let cfg =
    {
      Config.default with
      Config.servers;
      faults = Faults.storm ~rate:0.02;
      oracle = true;
    }
  in
  let params =
    Workload.Presets.ocb ~objects:4_000 ~policy ~theta ~mix
      ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page
      ~num_clients:cfg.Config.num_clients ~write_prob:0.2 ~seed:7 ()
  in
  Runner.run ~seed ~max_events:3_000_000 ~warmup:3.0 ~measure:15.0 ~cfg ~algo
    ~params ()

let conformance algo () =
  List.iteri
    (fun i (servers, policy, theta) ->
      let mix =
        if i mod 2 = 0 then { Workload.Generic.traversal = 50; match_ = 20; update = 30 }
        else Workload.Generic.default_mix
      in
      let r = generic_storm_run ~algo ~servers ~policy ~theta ~mix ~seed:(i + 1) in
      Alcotest.(check bool)
        (Printf.sprintf "commits on %d server(s), %s" servers
           (Workload.Placement.name policy))
        true (r.Runner.commits > 0))
    [
      (1, Workload.Placement.Dfs_ref, 0.8);
      (2, Workload.Placement.Scatter, 0.0);
    ]

let suite =
  [
    Alcotest.test_case "faulted storm cell golden" `Quick test_storm_golden;
    Alcotest.test_case "cluster jobs shape" `Quick test_cluster_jobs_shape;
    Alcotest.test_case "cluster series + csv schema" `Quick
      test_cluster_series_and_csv;
    Alcotest.test_case "declustering hurts page grain" `Quick
      test_declustering_hurts_page_grain;
    Alcotest.test_case "object grain holds" `Quick test_object_grain_holds;
    Alcotest.test_case "conformance PS" `Quick (conformance Algo.PS);
    Alcotest.test_case "conformance OS" `Quick (conformance Algo.OS);
    Alcotest.test_case "conformance PS-OO" `Quick (conformance Algo.PS_OO);
    Alcotest.test_case "conformance PS-OA" `Quick (conformance Algo.PS_OA);
    Alcotest.test_case "conformance PS-AA" `Quick (conformance Algo.PS_AA);
  ]
