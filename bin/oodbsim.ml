(* Command-line interface for running one simulation configuration —
   or a small sweep of them: pick a protocol, a workload, a locality
   setting and one or more write probabilities, and get the full metric
   report per point.  Multiple points run in parallel over a domain
   pool (--jobs); every point is described as a harness Job, so its
   random stream depends only on the description, not on scheduling. *)

open Cmdliner
open Oodb_core

let algo_conv =
  let parse s =
    match Algo.of_string s with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown algorithm %S (expected PS, OS, PS-OO, PS-OA, PS-AA)" s))
  in
  Arg.conv (parse, fun ppf a -> Algo.pp ppf a)

let workload_conv =
  let parse s =
    match Workload.Presets.name_of_string s with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown workload %S (expected HOTCOLD, UNIFORM, HICON, PRIVATE, \
              INTERLEAVED-PRIVATE)"
             s))
  in
  Arg.conv
    (parse, fun ppf w -> Format.pp_print_string ppf (Workload.Presets.name_to_string w))

let partition_conv =
  let parse = function
    | "hash" -> Ok Oodb_core.Config.Hash
    | "range" -> Ok Oodb_core.Config.Range
    | s -> Error (`Msg (Printf.sprintf "unknown partition policy %S (hash|range)" s))
  in
  Arg.conv
    ( parse,
      fun ppf p ->
        Format.pp_print_string ppf
          (match p with Oodb_core.Config.Hash -> "hash" | Oodb_core.Config.Range -> "range") )

let placement_conv =
  let parse s =
    match Workload.Placement.of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown placement policy %S (seq|dfs|scatter)" s))
  in
  Arg.conv
    (parse, fun ppf p -> Format.pp_print_string ppf (Workload.Placement.name p))

(* "60/20/20" — traversal/match/update weights. *)
let mix_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ a; b; c ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
      | Some traversal, Some match_, Some update ->
        Ok { Workload.Generic.traversal; match_; update }
      | _ -> Error (`Msg (Printf.sprintf "bad mix %S (expected T/M/U)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad mix %S (expected T/M/U)" s))
  in
  Arg.conv
    ( parse,
      fun ppf (m : Workload.Generic.mix) ->
        Format.fprintf ppf "%d/%d/%d" m.traversal m.match_ m.update )

(* "period:amp", e.g. "60:0.5". *)
let diurnal_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ p; a ] -> (
      match (float_of_string_opt p, float_of_string_opt a) with
      | Some period, Some amp -> Ok (period, amp)
      | _ -> Error (`Msg (Printf.sprintf "bad diurnal %S (expected PERIOD:AMP)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad diurnal %S (expected PERIOD:AMP)" s))
  in
  Arg.conv (parse, fun ppf (p, a) -> Format.fprintf ppf "%g:%g" p a)

(* "at:duration:boost", e.g. "40:20:3". *)
let flash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ at; d; b ] -> (
      match
        (float_of_string_opt at, float_of_string_opt d, float_of_string_opt b)
      with
      | Some at, Some duration, Some boost -> Ok (at, duration, boost)
      | _ ->
        Error (`Msg (Printf.sprintf "bad flash %S (expected AT:DURATION:BOOST)" s)))
    | _ ->
      Error (`Msg (Printf.sprintf "bad flash %S (expected AT:DURATION:BOOST)" s))
  in
  Arg.conv (parse, fun ppf (a, d, b) -> Format.fprintf ppf "%g:%g:%g" a d b)

let locality_conv =
  let parse = function
    | "low" -> Ok Workload.Presets.Low
    | "high" -> Ok Workload.Presets.High
    | s -> Error (`Msg (Printf.sprintf "unknown locality %S (low|high)" s))
  in
  Arg.conv
    ( parse,
      fun ppf l ->
        Format.pp_print_string ppf
          (match l with Workload.Presets.Low -> "low" | Workload.Presets.High -> "high") )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

(* Output paths are checked before the run, so a bad one costs a
   one-line error instead of a whole simulation and a backtrace.  The
   probe leaves the file system as it found it. *)
let cannot_write msg =
  Format.eprintf "oodbsim: cannot write %s@." msg;
  exit 2

let check_writable path =
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
  | oc ->
    close_out oc;
    if not existed then Sys.remove path
  | exception Sys_error msg -> cannot_write msg

let check_dump_dir dir =
  (try mkdir_p dir with Sys_error msg -> cannot_write msg);
  check_writable (Filename.concat dir "oracle-0.txt")

(* On oracle failure, write each violating cell's full history next to
   the error message so the run can be analysed offline (CI uploads the
   directory as an artifact). *)
let write_oracle_dumps ~dump_dir failures =
  match dump_dir with
  | None -> ()
  | Some dir ->
    List.iter
      (fun (f : Harness.Pool.failure) ->
        match f.Harness.Pool.error with
        | Runner.Oracle_failed (msg, dump) ->
          let path =
            Filename.concat dir
              (Printf.sprintf "oracle-%d.txt" f.Harness.Pool.index)
          in
          let oc = open_out path in
          output_string oc (msg ^ "\n\n" ^ dump);
          close_out oc;
          Format.eprintf "oracle dump written to %s@." path
        | _ -> ())
      failures

(* One trace file per sweep point: "t.json" stays "t.json" for a single
   point and becomes "t-wp0.100.json" etc. when sweeping, so points
   don't clobber each other. *)
let timeline_path base ~multi ~label =
  if not multi then base
  else
    let dir = Filename.dirname base in
    let file = Filename.basename base in
    let stem, ext =
      match Filename.extension file with
      | "" -> (file, ".json")
      | e -> (Filename.remove_extension file, e)
    in
    Filename.concat dir (Printf.sprintf "%s-%s%s" stem label ext)

let run algo workload locality write_probs clients db_scale servers partition
    seed njobs warmup measure verbose oracle oracle_dump_dir
    timeline_file percentiles crash_rate restart_delay msg_loss msg_dup
    disk_stall srv_crash_rate srv_restart_delay log_flush
    skip_reconstruction max_events generic objects classes fanout graph_depth
    placement zipf mix traversal_depth match_size update_size think diurnal
    flash =
  let write_probs = if write_probs = [] then [ 0.1 ] else write_probs in
  let faults =
    {
      Faults.off with
      Faults.crash_rate;
      restart_delay;
      msg_loss_prob = msg_loss;
      msg_dup_prob = msg_dup;
      disk_stall_prob = disk_stall;
      srv_crash_rate;
      srv_restart_delay;
      log_flush_interval = log_flush;
    }
  in
  Faults.validate faults;
  let cfg =
    Config.scaled
      {
        Config.default with
        num_clients = clients;
        servers;
        partition;
        faults;
        oracle;
        srv_skip_reconstruction = skip_reconstruction;
        timeline = timeline_file <> None;
      }
      ~factor:db_scale
  in
  let est = Config.memory_estimate_bytes cfg in
  if est > 4 * 1024 * 1024 * 1024 then
    Format.eprintf
      "oodbsim: warning: %d clients need roughly %d GB of memory at these \
       cache sizes@."
      cfg.Config.num_clients
      (est / (1024 * 1024 * 1024));
  let jobs =
    try
      Config.validate cfg;
      let arrival =
        match (diurnal, flash) with
        | None, None -> None
        | _ ->
          let a = Workload.Arrival.off in
          let a =
            match diurnal with
            | None -> a
            | Some (diurnal_period, diurnal_amp) ->
              { a with Workload.Arrival.diurnal_period; diurnal_amp }
          in
          let a =
            match flash with
            | None -> a
            | Some (flash_at, flash_duration, flash_boost) ->
              { a with Workload.Arrival.flash_at; flash_duration; flash_boost }
          in
          Some a
      in
      let mk_params write_prob =
        if generic then
          Workload.Presets.ocb ?objects ?classes ?fanout ?depth:graph_depth
            ?policy:placement ?theta:zipf ?mix ?traversal_depth ?match_size
            ?update_size ~think_time:think ?arrival ~db_pages:cfg.Config.db_pages
            ~objects_per_page:cfg.Config.objects_per_page
            ~num_clients:cfg.Config.num_clients ~write_prob ()
        else
          let params =
            Workload.Presets.make ~think_time:think workload
              ~db_pages:cfg.Config.db_pages
              ~objects_per_page:cfg.Config.objects_per_page
              ~num_clients:cfg.Config.num_clients ~locality ~write_prob
          in
          (* Traffic shapes compose with the presets too; [None] keeps
             the paper's constant arrival rate. *)
          Option.iter Workload.Arrival.validate arrival;
          { params with Workload.Wparams.arrival }
      in
      List.map
        (fun write_prob ->
          let params = mk_params write_prob in
          Job.make ~base_seed:seed ?max_events ~sweep:"oodbsim"
            ~label:(Printf.sprintf "wp=%.3f" write_prob)
            ~cfg ~algo ~params ~warmup ~measure ())
        write_probs
    with Invalid_argument msg ->
      Format.eprintf "oodbsim: %s@." msg;
      exit 2
  in
  let multi = List.length jobs > 1 in
  let timeline_of (j : Job.t) =
    Option.map
      (fun base ->
        timeline_path base ~multi
          ~label:
            (Printf.sprintf "wp%s"
               (Scanf.sscanf j.Job.label "wp=%s" (fun s -> s))))
      timeline_file
  in
  List.iter (fun j -> Option.iter check_writable (timeline_of j)) jobs;
  Option.iter check_dump_dir oracle_dump_dir;
  let results =
    try Harness.Pool.run ~jobs:njobs jobs
    with Harness.Pool.Sweep_failed failures as e ->
      List.iter
        (fun (f : Harness.Pool.failure) ->
          Format.eprintf "%s: %s@." f.Harness.Pool.description
            (Printexc.to_string f.Harness.Pool.error))
        failures;
      write_oracle_dumps ~dump_dir:oracle_dump_dir failures;
      raise e
  in
  List.iter2
    (fun (j : Job.t) r ->
      if multi then Format.printf "--- %s ---@." j.Job.label;
      Format.printf "%a@." Report.pp_result r;
      if percentiles then Format.printf "%a@." Report.pp_percentiles r;
      match (timeline_of j, r.Runner.timeline) with
      | Some path, Some tl ->
        let dropped = Telemetry.Perfetto.write_file tl ~path in
        Format.printf "timeline: %d events -> %s%s@."
          (Telemetry.Timeline.length tl)
          path
          (if dropped > 0 then
             Printf.sprintf " (%d spans truncated by ring wrap)" dropped
           else "")
      | _ -> ())
    jobs results;
  if verbose then begin
    Format.printf "@.system parameters:@.%a@." Config.pp cfg;
    Format.printf "@.workloads at this configuration:@.%a@."
      Report.pp_workload_table cfg
  end

let algo_t =
  Arg.(value & opt algo_conv Algo.PS_AA & info [ "a"; "algo" ] ~doc:"Protocol")

let workload_t =
  Arg.(
    value
    & opt workload_conv Workload.Presets.Hotcold
    & info [ "w"; "workload" ] ~doc:"Workload preset")

let locality_t =
  Arg.(
    value
    & opt locality_conv Workload.Presets.Low
    & info [ "l"; "locality" ] ~doc:"Page locality (low|high)")

let wp_t =
  Arg.(
    value & opt_all float []
    & info [ "p"; "write-prob" ]
        ~doc:
          "Per-object write probability (repeatable for a sweep; default \
           0.1)")

let clients_t =
  let mb_per_1k =
    Config.memory_estimate_bytes { Config.default with Config.num_clients = 1000 }
    / (1024 * 1024)
  in
  Arg.(
    value & opt int 10
    & info [ "c"; "clients" ]
        ~doc:
          (Printf.sprintf
             "Client workstations. Sparse sharing tables keep server-side \
              costs proportional to actual copy holders, so populations in \
              the tens of thousands are routine; budget roughly %d MB of \
              memory per 1000 clients at the default cache sizes. The \
              per-client-hot-region presets (HOTCOLD, PRIVATE) support at \
              most 25/50 clients; use UNIFORM or HICON beyond that."
             mb_per_1k))

let scale_t =
  Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Database/buffer scale factor")

let servers_t =
  Arg.(
    value & opt int 1
    & info [ "servers" ] ~docv:"N"
        ~doc:
          "Number of partitioned page servers (default 1, the paper's \
           singleton topology; each server owns the pages its partition \
           maps to, with cross-server callback forwarding and distributed \
           deadlock detection)")

let partition_t =
  Arg.(
    value
    & opt partition_conv Oodb_core.Config.Hash
    & info [ "partition" ]
        ~doc:
          "Page-to-server placement policy: $(b,hash) (page mod servers) or \
           $(b,range) (contiguous page ranges)")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base random seed")

let jobs_t =
  Arg.(
    value
    & opt int (Harness.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains when sweeping several write probabilities")

let warmup_t =
  Arg.(value & opt float 30.0 & info [ "warmup" ] ~doc:"Warm-up (sim seconds)")

let measure_t =
  Arg.(
    value & opt float 120.0 & info [ "measure" ] ~doc:"Measurement (sim seconds)")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print parameter tables")

let oracle_t =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Record the transaction history and check it for \
           conflict-serializability, commit-order consistency and \
           recoverability at end of run (fails loudly with a witness on \
           violation; results are unchanged)")

let oracle_dump_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "oracle-dump-dir" ] ~docv:"DIR"
        ~doc:
          "On an oracle violation, write the full recorded history of each \
           failing cell into DIR (created if needed)")

let timeline_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          "Record a binary event timeline (transactions, crashes, CPU/disk/\
           network activity, callbacks) and write it as a Chrome/Perfetto \
           trace.json to FILE; sweeps write one file per point \
           (FILE-wp0.100.json).  Results are unchanged.")

let percentiles_t =
  Arg.(
    value & flag
    & info [ "percentiles" ]
        ~doc:
          "Also print histogram-derived latency percentiles: response \
           p50/p90/p99, lock-wait and callback round-trip p99, and per \
           message class p99")

let crash_rate_t =
  Arg.(
    value & opt float 0.0
    & info [ "crash-rate" ]
        ~doc:
          "Mean client crashes per simulated second per client \
           (exponential inter-crash times; 0 = never)")

let restart_delay_t =
  Arg.(
    value
    & opt float Faults.off.Faults.restart_delay
    & info [ "restart-delay" ]
        ~doc:"Client downtime before a cold restart (sim seconds)")

let msg_loss_t =
  Arg.(
    value & opt float 0.0
    & info [ "msg-loss" ]
        ~doc:
          "Probability a message transmission is lost (retransmitted \
           after a timeout with exponential backoff)")

let msg_dup_t =
  Arg.(
    value & opt float 0.0
    & info [ "msg-dup" ]
        ~doc:"Probability a delivered message is duplicated")

let disk_stall_t =
  Arg.(
    value & opt float 0.0
    & info [ "disk-stall" ]
        ~doc:"Probability a disk I/O stalls transiently before service")

let srv_crash_rate_t =
  Arg.(
    value & opt float 0.0
    & info [ "srv-crash-rate" ]
        ~doc:
          "Mean server crashes per simulated second per server \
           (exponential inter-crash times; 0 = never).  A crashed server \
           loses all volatile state but keeps its flushed redo log; on \
           restart it replays the log and rebuilds callback state from \
           surviving clients before reopening.")

let srv_restart_delay_t =
  Arg.(
    value
    & opt float Faults.off.Faults.srv_restart_delay
    & info [ "srv-restart-delay" ]
        ~doc:"Server downtime before restart begins (sim seconds)")

let log_flush_t =
  Arg.(
    value
    & opt float Faults.off.Faults.log_flush_interval
    & info [ "log-flush" ]
        ~doc:
          "Redo-log flush period (sim seconds): the durability point a \
           crashed server replays from; shorter means less replay work \
           on restart")

let skip_reconstruction_t =
  Arg.(
    value & flag
    & info [ "skip-reconstruction" ]
        ~doc:
          "SABOTAGE: restart servers without rebuilding the callback \
           copy tables from surviving clients, so stale cached copies \
           go unnoticed.  Exists to prove the serializability oracle \
           catches the resulting anomalies; pair with --oracle.")

let generic_t =
  Arg.(
    value & flag
    & info [ "generic" ]
        ~doc:
          "Use the OCB-style generic object-base workload instead of a \
           preset: a seed-deterministic class/reference graph laid out by a \
           clustering policy, driven by a traversal/match/update transaction \
           mix.  The $(b,--workload)/$(b,--locality) presets are ignored; \
           shape it with $(b,--objects), $(b,--classes), $(b,--fanout), \
           $(b,--graph-depth), $(b,--placement), $(b,--zipf), $(b,--mix), \
           $(b,--traversal-depth), $(b,--match-size), $(b,--update-size).")

let objects_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "objects" ] ~docv:"N"
        ~doc:"Generic workload: object-base size (default 25000)")

let classes_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "classes" ] ~docv:"N"
        ~doc:"Generic workload: number of classes (default 20)")

let fanout_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "fanout" ] ~docv:"N"
        ~doc:
          "Generic workload: mean inter-object references per non-leaf \
           object (default 3)")

let graph_depth_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "graph-depth" ] ~docv:"N"
        ~doc:"Generic workload: reference-graph depth in levels (default 8)")

let placement_t =
  Arg.(
    value
    & opt (some placement_conv) None
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "Generic workload: object-placement (clustering) policy — \
           $(b,seq) (creation order), $(b,dfs) (depth-first by reference, \
           the default) or $(b,scatter) (random, worst-case clustering)")

let zipf_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "zipf" ] ~docv:"THETA"
        ~doc:
          "Generic workload: Zipf skew of hotspot object/root selection \
           (0 = uniform, the default; larger = hotter)")

let mix_t =
  Arg.(
    value
    & opt (some mix_conv) None
    & info [ "mix" ] ~docv:"T/M/U"
        ~doc:
          "Generic workload: relative weights of traversal, match and \
           update transactions (default 60/20/20)")

let traversal_depth_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "traversal-depth" ] ~docv:"N"
        ~doc:"Generic workload: levels walked by a traversal (default 6)")

let match_size_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "match-size" ] ~docv:"N"
        ~doc:"Generic workload: instances read by a match (default 20)")

let update_size_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "update-size" ] ~docv:"N"
        ~doc:"Generic workload: objects written by an update (default 8)")

let think_t =
  Arg.(
    value & opt float 0.0
    & info [ "think" ] ~docv:"SECONDS"
        ~doc:
          "Think time between a client's transactions (sim seconds; \
           default 0, the paper's closed zero-think loop)")

let diurnal_t =
  Arg.(
    value
    & opt (some diurnal_conv) None
    & info [ "diurnal" ] ~docv:"PERIOD:AMP"
        ~doc:
          "Sinusoidal arrival-rate modulation: one cycle every PERIOD sim \
           seconds with amplitude AMP in [0,1) (think times divide by the \
           instantaneous rate factor)")

let flash_t =
  Arg.(
    value
    & opt (some flash_conv) None
    & info [ "flash" ] ~docv:"AT:DURATION:BOOST"
        ~doc:
          "Flash crowd: multiply the arrival rate by BOOST during \
           [AT, AT+DURATION) sim seconds")

let max_events_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Abort the run after N engine events (liveness bound for \
           fault-storm fuzzing in CI)")

let cmd =
  let doc =
    "simulate a page/object-server OODBMS under fine-grained sharing \
     protocols (Carey, Franklin & Zaharioudakis, SIGMOD 1994)"
  in
  Cmd.v
    (Cmd.info "oodbsim" ~doc)
    Term.(
      const run $ algo_t $ workload_t $ locality_t $ wp_t $ clients_t $ scale_t
      $ servers_t $ partition_t $ seed_t $ jobs_t $ warmup_t $ measure_t $ verbose_t $ oracle_t
      $ oracle_dump_dir_t $ timeline_t $ percentiles_t $ crash_rate_t
      $ restart_delay_t $ msg_loss_t $ msg_dup_t $ disk_stall_t
      $ srv_crash_rate_t $ srv_restart_delay_t $ log_flush_t
      $ skip_reconstruction_t $ max_events_t $ generic_t $ objects_t
      $ classes_t $ fanout_t $ graph_depth_t $ placement_t $ zipf_t $ mix_t
      $ traversal_depth_t $ match_size_t $ update_size_t $ think_t $ diurnal_t
      $ flash_t)

let () = exit (Cmd.eval cmd)
