(* One benchmark for the simulator's host cost: four named workloads,
   end-to-end metrics from untraced passes, and (with --trace 1) a
   per-layer breakdown from a traced pass, probes and two differential
   passes.  See README.md in this directory for the metrics, the
   workloads and the regression rule.

     dune exec bench/suite/oodb_bench.exe -- [--workload NAME]...
       [--seed N] [--seconds S] [--trace 0|1] [--smoke]

   A pass runs every cell of a workload once; a run repeats identical
   passes (same seeds) in a closed loop until --seconds have elapsed
   and reports medians over passes.  Without --workload, each of the
   four workloads runs in its own child process, one at a time. *)

open Oodb_core
module Pool = Harness.Pool

type workload = {
  name : string;
  jobs : int;  (** pool workers *)
  build : seed:int -> Job.t list;
}

let fig3 = Option.get (Experiments.find "fig3")

let per_algo ~seed ~sweep ~label ~cfg ~params ~warmup ~measure ?max_events () =
  List.map
    (fun algo ->
      Job.make ~base_seed:seed ?max_events ~sweep
        ~label:(Printf.sprintf "%s %s" label (Algo.to_string algo))
        ~cfg ~algo ~params ~warmup ~measure ())
    Algo.all

(* Window lengths are chosen so that one pass takes a few host seconds
   on a 2-core host, leaving room for several passes per run. *)
let workloads =
  [
    (* The paper's fig3 sweep as users run it: 40 cells over the pool.
       The 1250-page database exceeds the 312-page client cache, so the
       disk, buffer and network models are busy. *)
    {
      name = "fig3-sweep";
      jobs = 2;
      build =
        (fun ~seed ->
          Experiments.jobs_of_spec ~seed ~time_scale:0.1 fig3);
    };
    (* OCB generic transactions on a 250-page object base that fits the
       client cache: no disk traffic, the cost is in the callback path. *)
    {
      name = "cluster-ocb";
      jobs = 1;
      build =
        (fun ~seed ->
          List.concat_map
            (fun policy ->
              per_algo ~seed ~sweep:"cluster-ocb"
                ~label:(Workload.Placement.name policy)
                ~cfg:Config.default
                ~params:(Experiments.cluster_params ~policy ~theta:0.0)
                ~warmup:6.0 ~measure:24.0
                ())
            [ Workload.Placement.Dfs_ref; Workload.Placement.Scatter ]);
    };
    (* 50k clients with a long think time and a scaled-up server: no
       contention, so the cost is per-population state, set-up, the GC
       and the audit's global checks. *)
    {
      name = "scale-50k";
      jobs = 1;
      build =
        (fun ~seed ->
          let clients = 50_000 in
          let cfg =
            {
              Config.default with
              Config.num_clients = clients;
              server_mips = 1500.0;
              server_disks = 128;
              network_mbits = 2000.0;
            }
          in
          let params =
            Workload.Presets.(
              make Uniform ~think_time:(0.05 *. float_of_int clients)
                ~db_pages:cfg.Config.db_pages
                ~objects_per_page:cfg.Config.objects_per_page
                ~num_clients:clients ~locality:Low ~write_prob:0.1)
          in
          per_algo ~seed ~sweep:"scale-50k" ~label:"uniform" ~cfg ~params
            ~warmup:5.0 ~measure:12.0 ());
    };
    (* fig3 wp=0.1 on 4 hash-partitioned servers under a fault storm
       with the oracle on: the only workload where the audit's fault
       hook and the oracle do any work.  A storm's cost swings with its
       few server crashes (one per 50 simulated seconds of a cell), so a pass
       runs eight independent short storms per protocol to keep the
       seed-to-seed spread of its cost near 3%. *)
    {
      name = "storm-4srv";
      jobs = 1;
      build =
        (fun ~seed ->
          let cfg =
            {
              (Experiments.cfg_of fig3) with
              Config.servers = 4;
              partition = Config.Hash;
              oracle = true;
              faults = Faults.storm ~rate:0.02;
            }
          in
          List.concat_map
            (fun r ->
              per_algo ~seed ~sweep:"storm-4srv"
                ~label:(Printf.sprintf "rate=0.02 r%d" r)
                ~cfg ~params:(Experiments.params_of fig3 ~write_prob:0.1)
                ~warmup:1.0 ~measure:4.0 ~max_events:50_000_000 ())
            (List.init 8 Fun.id));
    };
  ]

(* --- Child processes ---------------------------------------------------- *)

(* Run [f] in a forked child process and return its result.  Every pass
   runs in a child of its own: a finished simulation leaves the stacks
   of its still-suspended fibers allocated (OCaml 5 frees a fiber's
   stack only when the fiber ends), so passes sharing one process would
   grow it by tens of MiB a pass on scale-50k, and a pass's peak RSS
   would depend on how many passes ran before it. *)
let in_child f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc r [];
    flush stdout;
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try Marshal.from_channel ic
      with End_of_file | Failure _ -> Error "child process ended without a result"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match r with Ok v -> v | Error e -> failwith e)

(* --- Passes ------------------------------------------------------------- *)

(* --smoke keeps the first cell of each protocol and sets every window
   to x0.05 of the paper's 30 s + 120 s. *)
let jobs_of w ~seed ~smoke =
  let jobs = w.build ~seed in
  if smoke then
    List.filteri (fun i _ -> i < List.length Algo.all) jobs
    |> List.map (fun j -> { j with Job.warmup = 1.5; measure = 6.0 })
  else jobs

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fl = float_of_int

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process, from /proc/self/status, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> fl kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let p99_ms hists f =
  match hists with
  | [] -> 0.0
  | h :: rest ->
    let m = Telemetry.Histogram.copy (f h) in
    List.iter (fun h -> Telemetry.Histogram.merge ~into:m (f h)) rest;
    1000.0 *. Telemetry.Histogram.quantile m 0.99

(* Simulated statistics summed (or averaged) over a pass's cells: the
   identity check.  A change that claims only host speed leaves every
   one unchanged. *)
let model_counts cells hists =
  let m f = sumi (fun c -> f c.Cell.model) cells in
  let mean f = sumf (fun c -> f c.Cell.model) cells /. fl (List.length cells) in
  let commits = fl (m (fun m -> m.Cell.commits)) in
  let per_commit f = fl (m f) /. commits in
  [
    ("simcore.events", "count", fl (sumi (fun c -> c.Cell.events) cells));
    ("cpu.server_util", "ratio", mean (fun m -> m.Cell.server_util));
    ("disk.ios_per_commit", "count", per_commit (fun m -> m.Cell.disk_ios));
    ("disk.util", "ratio", mean (fun m -> m.Cell.disk_util));
    ("net.msgs_per_commit", "count", per_commit (fun m -> m.Cell.messages));
    ("net.kb_per_commit", "KiB", per_commit (fun m -> m.Cell.bytes) /. 1024.0);
    ("net.util", "ratio", mean (fun m -> m.Cell.net_util));
    ("lock.waits_per_commit", "count", per_commit (fun m -> m.Cell.lock_waits));
    ("lock.wait_p99_ms", "ms", p99_ms hists (fun h -> h.Metrics.h_lock_wait));
    ("waits_for.deadlocks", "count", fl (m (fun m -> m.Cell.deadlocks)));
    ("copy.copies_end", "count", fl (m (fun m -> m.Cell.copies_end)));
    ("cb.blocks_per_commit", "count", per_commit (fun m -> m.Cell.cb_blocks));
    ("cb.round_p99_ms", "ms", p99_ms hists (fun h -> h.Metrics.h_cb_round));
    ("faults.injected", "count", fl (m (fun m -> m.Cell.faults_injected)));
    ("net.retries", "count", fl (m (fun m -> m.Cell.retries)));
    ("crash.srv_recoveries", "count", fl (m (fun m -> m.Cell.srv_recoveries)));
    ("client.commits", "count", commits);
    ( "client.commit_ratio",
      "ratio",
      commits /. (commits +. fl (m (fun m -> m.Cell.aborts))) );
    ("client.resp_p99_ms", "ms", p99_ms hists (fun h -> h.Metrics.h_response));
  ]

type pass = {
  wall_s : float;
  build_s : float;
  pool_s : float;
  cells : Cell.t list;
  failures : string list;
  attempted : int;
  counts : (string * string * float) list;
  peak_rss_mb : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  spans : Span.t list;
}

(* How a cell runs: traced or not, and the two differential switches
   of [Cell.run]. *)
type variant = { trace : bool; hook : bool; oracle : bool; probe : bool }

let plain = { trace = false; hook = true; oracle = true; probe = false }

(* One pass over every cell of the workload, in a child process.  Each
   cell runs once per variant, back to back, so that variants compare
   cell by cell and the host's slow drifts between passes cancel; the
   result holds one pass record per variant. *)
let run_passes ~trace ~variants w ~seed ~smoke =
  in_child (fun () ->
      let r = Span.recorder ~on:trace ~cell:(-1) ~parent:(-1) in
      let gc0 = Gc.quick_stat () in
      let (build_s, (outcomes, pool_s)), wall_s =
        Span.time r "pass" (fun () ->
            let jobs, build_s =
              Span.time r "workload.build" (fun () -> jobs_of w ~seed ~smoke)
            in
            ( build_s,
              Span.time r "harness.pool" (fun () ->
                  let parent = r.Span.parent in
                  Pool.map ~jobs:w.jobs
                    (fun (cell, job) ->
                      List.map
                        (fun v ->
                          match
                            Cell.run ~hook:v.hook ~oracle:v.oracle ~probe:v.probe
                              ~trace:v.trace ~cell ~parent job
                          with
                          | c -> Ok c
                          | exception e ->
                            Error (Job.describe job ^ ": " ^ Printexc.to_string e))
                        variants)
                    (List.mapi (fun i j -> (i, j)) jobs)) ))
      in
      let gc1 = Gc.quick_stat () in
      let rss = peak_rss_mb () in
      List.mapi
        (fun i _ ->
          let outcomes = List.map (fun per_cell -> List.nth per_cell i) outcomes in
          let cells, hists =
            List.split (List.filter_map Result.to_option outcomes)
          in
          {
            wall_s;
            build_s;
            pool_s;
            cells;
            failures =
              List.filter_map (function Error e -> Some e | Ok _ -> None) outcomes;
            attempted = List.length outcomes;
            counts = model_counts cells hists;
            peak_rss_mb = rss;
            minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
            major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
            promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
            spans =
              List.concat (r.Span.spans :: List.map (fun c -> c.Cell.spans) cells);
          })
        variants)

let run_pass ~trace w ~seed ~smoke =
  List.hd (run_passes ~trace ~variants:[ { plain with trace } ] w ~seed ~smoke)

let events p = sumi (fun c -> c.Cell.events) p.cells
let sim_s p = sumf (fun c -> c.Cell.sim_s) p.cells

(* Set-up seconds of the workload: the median job build plus, for each
   cell, the median of its set-up over the identical passes, so that a
   GC slice landing in one cell's set-up in one pass does not count. *)
let setup_s passes =
  let by_cell = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun c -> Hashtbl.add by_cell c.Cell.index (c.Cell.create_s +. c.Cell.start_s))
        p.cells)
    passes;
  median (List.map (fun p -> p.build_s) passes)
  +. sumf
       (fun c -> median (Hashtbl.find_all by_cell c.Cell.index))
       (List.hd passes).cells

let same_counts a b = compare a.counts b.counts = 0

(* --- Probes ------------------------------------------------------------- *)

(* Host floor of the event core: a two-fiber mailbox ping-pong, as in
   bench/prof.ml, best of three. *)
let floor_ns_per_event () =
  let once () =
    let e = Simcore.Engine.create () in
    let a = Simcore.Mailbox.create e and b = Simcore.Mailbox.create e in
    let rounds = 100_000 in
    Simcore.Proc.spawn e (fun () ->
        for _ = 1 to rounds do
          Simcore.Mailbox.send b 1;
          ignore (Simcore.Mailbox.recv a)
        done);
    Simcore.Proc.spawn e (fun () ->
        for _ = 1 to rounds do
          ignore (Simcore.Mailbox.recv b);
          Simcore.Mailbox.send a 2
        done);
    let t0 = Span.clock () in
    Simcore.Engine.run e;
    (Span.clock () -. t0) *. 1e9 /. fl (Simcore.Engine.events_processed e)
  in
  List.fold_left (fun acc () -> Float.min acc (once ())) infinity [ (); (); () ]

(* Live heap KiB per client right after set-up of the first cell. *)
let live_kb_per_client (job : Job.t) =
  in_child (fun () ->
      Gc.full_major ();
      let before = (Gc.stat ()).Gc.live_words in
      let sys =
        Model.create ~cfg:job.Job.cfg ~algo:job.Job.algo ~params:job.Job.params
          ~seed:(Job.seed job)
      in
      Netlayer.install_edge_exchange sys;
      Audit.install sys;
      Client.start sys;
      Crash.install sys;
      Gc.full_major ();
      let after = (Gc.stat ()).Gc.live_words in
      fl ((after - before) * (Sys.word_size / 8))
      /. 1024.0
      /. fl (Sys.opaque_identity sys).Model.clients.Model.n)

(* --- Mirror check ------------------------------------------------------- *)

(* The workload's first cell on a 2 s + 5 s window, through the mirror
   and through [Runner.run]: the benchmark must time the program users
   run, audit included. *)
let mirror_check w ~seed =
  in_child (fun () ->
      let job =
        { (List.hd (w.build ~seed)) with Job.warmup = 2.0; measure = 5.0 }
      in
      let m = (fst (Cell.run ~trace:false ~cell:0 ~parent:(-1) job)).Cell.model in
      let r = Job.run job in
      let ok =
        compare
          (m.Cell.commits, m.Cell.throughput, m.Cell.messages, m.Cell.resp_p99)
          (r.Runner.commits, r.Runner.throughput, r.Runner.messages,
           r.Runner.resp_p99)
        = 0
      in
      if not ok then
        Printf.eprintf
          "mirror check failed on %s: commits %d/%d, throughput %.17g/%.17g, \
           messages %d/%d, resp_p99 %.17g/%.17g\n%!"
          (Job.describe job) m.Cell.commits r.Runner.commits m.Cell.throughput
          r.Runner.throughput m.Cell.messages r.Runner.messages m.Cell.resp_p99
          r.Runner.resp_p99;
      ok)

(* --- Metrics ------------------------------------------------------------ *)

let end_to_end passes =
  let med f = median (List.map f passes) in
  [
    ("wall_s", "s", med (fun p -> p.wall_s));
    ("events_per_s", "1/s", med (fun p -> fl (events p) /. sim_s p));
    ("setup_s", "s", setup_s passes);
    ( "minor_words_per_event",
      "words",
      med (fun p -> sumf (fun c -> c.Cell.minor_words) p.cells /. fl (events p)) );
    ("peak_rss_mb", "MiB", med (fun p -> p.peak_rss_mb));
  ]

(* [traced] is the traced pass; [plain], [paired], [nohook] and
   [nooracle] are the variants of one differential pass: untraced,
   traced, without [Audit.install] (and with the probes), and with the
   oracle off. *)
let per_layer w ~traced ~plain ~paired ~nohook ~nooracle ~floor_ns ~live_kb =
  let cs = traced.cells in
  let sim = sim_s traced in
  let ev = fl (events traced) in
  let boundaries = fl (sumi (fun c -> c.Cell.boundaries) cs) in
  let txns = fl (sumi (fun c -> c.Cell.txns) cs) in
  (* Probe time per call, weighted by how often the run made that call:
     estimated host seconds the run spent in it. *)
  let probed f weight =
    sumf
      (fun c ->
        Option.fold ~none:0.0 ~some:(fun p -> f p *. fl (weight c)) c.Cell.probes)
      nohook.cells
    *. 1e-6
  in
  let boundary_s = probed (fun p -> p.Cell.boundary_us) (fun c -> c.Cell.boundaries) in
  let gen_s = probed (fun p -> p.Cell.gen_us) (fun c -> c.Cell.txns) in
  let cell_times = List.map (fun c -> c.Cell.cell_s) cs in
  let protocol =
    List.concat_map
      (fun algo ->
        let mine = List.filter (fun c -> c.Cell.algo = algo) cs in
        let a = Algo.to_string algo in
        let s = sumf (fun c -> c.Cell.sim_s) mine in
        [
          ( "protocol." ^ a ^ ".events_per_s",
            "1/s",
            fl (sumi (fun c -> c.Cell.events) mine) /. s );
          ("protocol." ^ a ^ ".sim_s", "s", s);
        ])
      Algo.all
  in
  [
    ("audit.boundaries", "count", boundaries);
    ("audit.boundary_us", "us", boundary_s *. 1e6 /. boundaries);
    ("audit.boundary_share", "ratio", boundary_s /. sim);
    ( "audit.full_us",
      "us",
      median
        (List.filter_map
           (fun c -> Option.map (fun p -> p.Cell.full_us) c.Cell.probes)
           nohook.cells) );
    ("audit.hook_s", "s", sim_s plain -. sim_s nohook);
    ("audit.end_s", "s", sumf (fun c -> c.Cell.end_audit_s) cs);
    ("oracle.record_s", "s", sim_s plain -. sim_s nooracle);
    ("oracle.check_s", "s", sumf (fun c -> c.Cell.oracle_s) cs);
    ("oracle.ops", "count", fl (sumi (fun c -> c.Cell.oracle_ops) cs));
  ]
  @ protocol
  @ [
      ("workload.build_s", "s", traced.build_s);
      ("workload.gen_us_per_txn", "us", gen_s *. 1e6 /. txns);
      ("workload.gen_share", "ratio", gen_s /. sim);
      ("model.create_s", "s", sumf (fun c -> c.Cell.create_s) cs);
      ("model.start_s", "s", sumf (fun c -> c.Cell.start_s) cs);
      ("model.live_kb_per_client", "KiB", live_kb);
      ( "harness.pool_efficiency",
        "ratio",
        sumf Fun.id cell_times /. (fl w.jobs *. traced.pool_s) );
      ("harness.cell_p50_s", "s", median cell_times);
      ("harness.cell_max_s", "s", List.fold_left Float.max 0.0 cell_times);
      ("simcore.floor_ns_per_event", "ns", floor_ns);
      ("simcore.floor_share", "ratio", floor_ns *. 1e-9 *. ev /. sim);
      ("gc.promoted_words_per_event", "words", traced.promoted_words /. ev);
      ("gc.minor_collections", "count", fl traced.minor_collections);
      ("gc.major_collections", "count", fl traced.major_collections);
    ]
  @ traced.counts
  @ [
      ( "trace.overhead",
        "ratio",
        (sumf (fun c -> c.Cell.cell_s) paired.cells
         /. sumf (fun c -> c.Cell.cell_s) plain.cells)
        -. 1.0 );
    ]

(* --- Output ------------------------------------------------------------- *)

let print_metric w (name, unit, value) =
  Printf.printf "metric %s %s %.17g %s\n" w.name name value unit

(* A failed run can leave a median or ratio undefined; JSON has no NaN. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, value) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number value) unit)
          metrics))

(* --- One workload ------------------------------------------------------- *)

let trace_dir = "_oodb_bench"

let run_workload w ~seed ~seconds ~trace ~smoke =
  let mirror_ok = mirror_check w ~seed in
  let t0 = Span.clock () in
  let rec loop acc =
    let p = run_pass ~trace:false w ~seed ~smoke in
    Printf.eprintf
      "%s: pass %d, %.3f s, %d events, %d/%d cells ok, peak rss %.1f MiB\n%!"
      w.name (List.length acc + 1) p.wall_s (events p) (List.length p.cells)
      p.attempted p.peak_rss_mb;
    List.iter (Printf.eprintf "failed cell: %s\n%!") p.failures;
    let acc = p :: acc in
    if smoke || Span.clock () -. t0 >= seconds then List.rev acc else loop acc
  in
  let passes = loop [] in
  let first = List.hd passes in
  let attempted = sumi (fun p -> p.attempted) passes in
  let failed = sumi (fun p -> List.length p.failures) passes in
  let repeatable = List.for_all (same_counts first) passes in
  if not repeatable then
    Printf.eprintf "%s: model-side counts differ between identical passes\n%!"
      w.name;
  let e2e = end_to_end passes in
  List.iter (print_metric w) e2e;
  print_metric w ("cells", "count", fl first.attempted);
  print_metric w ("failed_cells", "count", fl failed);
  let ok = ref (mirror_ok && failed = 0 && repeatable) in
  let metrics =
    if not trace then e2e
    else begin
      let traced = run_pass ~trace:true w ~seed ~smoke in
      let diff =
        run_passes ~trace:false w ~seed ~smoke
          ~variants:
            [
              plain;
              { plain with trace = true };
              { plain with hook = false; probe = true };
              { plain with oracle = false };
            ]
      in
      List.iter
        (fun (what, p) ->
          if p.failures <> [] || not (same_counts first p) then begin
            Printf.eprintf
              "%s: the %s pass does not reproduce the untraced counts\n%!"
              w.name what;
            ok := false
          end)
        (List.combine
           [ "traced"; "paired untraced"; "paired traced"; "hook-off"; "oracle-off" ]
           (traced :: diff));
      let layer =
        match diff with
        | [ plain; paired; nohook; nooracle ] ->
          per_layer w ~traced ~plain ~paired ~nohook ~nooracle
            ~floor_ns:(floor_ns_per_event ())
            ~live_kb:(live_kb_per_client (List.hd (jobs_of w ~seed ~smoke)))
        | _ -> assert false
      in
      List.iter (print_metric w) layer;
      Span.pp_self_times stdout traced.spans;
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      let path = Filename.concat trace_dir (w.name ^ ".json") in
      Span.write_chrome path traced.spans;
      Printf.printf "trace %s %s\n" w.name path;
      layer
    end
  in
  print_endline (json_result ~correct:!ok ~attempted ~failed metrics);
  !ok

(* --- Command line ------------------------------------------------------- *)

let usage =
  "oodb_bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
   [--smoke]"

let () =
  let names = ref [] and seed = ref 42 and seconds = ref 20.0 in
  let trace = ref false and smoke = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> names := s :: !names),
        "NAME  run only this workload (repeatable): "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_int seed, "N  base seed of every workload (default 42)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  repeat passes until S host seconds have elapsed (default 20)" );
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"),
        "  1 adds the traced pass, the differential pass and the probes" );
      ( "--smoke",
        Arg.Set smoke,
        " one pass of one cell per protocol, every window x0.05" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let selected =
    match List.rev !names with
    | [] -> workloads
    | ns ->
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) workloads with
          | Some w -> w
          | None ->
            Printf.eprintf "unknown workload %s\n" n;
            exit 2)
        ns
  in
  (* The pool reads its GC setting through a lazy value that each worker
     forces on start; two domains forcing it at once raise
     [CamlinternalLazy.Undefined].  Forcing it here, before any child is
     forked, keeps the workers from racing. *)
  ignore (Pool.map ~jobs:1 Fun.id [ () ]);
  (* Each workload in a child process of its own, one at a time. *)
  let ok =
    List.fold_left
      (fun ok w ->
        in_child (fun () ->
            run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace
              ~smoke:!smoke)
        && ok)
      true selected
  in
  if not ok then exit 1
