(* Every spec renders through the same code: a grid of key columns by
   protocol columns for the table, the normalized table and the
   percentile table; one line per cell for the detail block; one row
   per cell for the CSV.  Every number comes from {!Metric}. *)

open Experiments

let throughput (p : point) a =
  match List.assoc_opt a p.results with
  | Some r -> Metric.throughput.get r
  | None -> nan

let keys_header (s : series) =
  match s.points with
  | [] -> ""
  | p :: _ -> String.concat "" (List.map (fun k -> k.header) p.row.keys)

let keys_text (p : point) =
  String.concat "" (List.map (fun k -> k.text) p.row.keys)

(* One line per row: its key cells, then one [width]-wide cell per
   protocol. *)
let grid b (s : series) ~width ~head cell =
  Buffer.add_string b (keys_header s);
  List.iter
    (fun a -> Printf.bprintf b "%*s" width (head (Algo.to_string a)))
    s.spec.algos;
  Buffer.add_char b '\n';
  List.iter
    (fun p ->
      Buffer.add_string b (keys_text p);
      List.iter (fun a -> Printf.bprintf b "%*s" width (cell p a)) s.spec.algos;
      Buffer.add_char b '\n')
    s.points

let table b (s : series) =
  let cell f p a = Printf.sprintf "%.2f" (f p a) in
  Printf.bprintf b "%s: %s\nthroughput (transactions/second)\n" s.spec.id
    s.spec.title;
  grid b s ~width:9 ~head:Fun.id (cell throughput);
  if s.spec.normalize then begin
    Buffer.add_string b "normalized to PS-AA\n";
    grid b s ~width:9 ~head:Fun.id
      (cell (fun p a ->
           let base = throughput p Algo.PS_AA in
           if base > 0.0 then throughput p a /. base else nan))
  end

(* --- Percentiles --------------------------------------------------------- *)

let pp_percentiles ppf (r : Runner.result) =
  Format.fprintf ppf
    "@[<v>percentiles (ms): response p50/p90/p99 %.0f/%.0f/%.0f, lock wait \
     p99 %.1f, callback round-trip p99 %.1f@]"
    Metric.(resp_p50_ms.get r)
    Metric.(resp_p90_ms.get r)
    Metric.(resp_p99_ms.get r)
    Metric.(lock_wait_p99_ms.get r)
    Metric.(cb_round_p99_ms.get r);
  let h = r.hists.Metrics.h_msg_latency in
  let nonempty =
    List.filter
      (fun cls ->
        not (Telemetry.Histogram.is_empty h.(Metrics.class_index cls)))
      Metrics.all_msg_classes
  in
  if nonempty <> [] then begin
    Format.fprintf ppf "@\n@[<v>message-class p99 (ms):";
    List.iter
      (fun cls ->
        Format.fprintf ppf " %s=%.1f" (Metrics.msg_class_name cls)
          (1000.0
          *. Telemetry.Histogram.quantile h.(Metrics.class_index cls) 0.99))
      nonempty;
    Format.fprintf ppf "@]"
  end;
  (* Retry-wait percentiles appear only when some send actually needed a
     retry, so fault-free output is unchanged. *)
  let rw = r.hists.Metrics.h_retry_wait in
  if not (Telemetry.Histogram.is_empty rw) then begin
    Format.fprintf ppf
      "@\n@[<v>retried sends: n=%d, timeout-to-success p50/p99 %.0f/%.0f ms, \
       per class:"
      (Telemetry.Histogram.count rw)
      (1000.0 *. Telemetry.Histogram.quantile rw 0.50)
      (1000.0 *. Telemetry.Histogram.quantile rw 0.99);
    List.iter
      (fun cls ->
        let n = r.hists.Metrics.h_msg_retries.(Metrics.class_index cls) in
        if n > 0 then
          Format.fprintf ppf " %s=%d" (Metrics.msg_class_name cls) n)
      Metrics.all_msg_classes;
    Format.fprintf ppf "@]"
  end

(* Merge the per-cell response histograms of a series per algorithm, in
   point order — deterministic whatever pool executed the cells, since
   merging is order-invariant on counts and the iteration order is
   fixed by the job list. *)
let merged_response_hists (s : series) =
  List.map
    (fun a ->
      let merged = Telemetry.Histogram.create () in
      List.iter
        (fun p ->
          match List.assoc_opt a p.results with
          | Some r ->
            Telemetry.Histogram.merge ~into:merged
              r.Runner.hists.Metrics.h_response
          | None -> ())
        s.points;
      (a, merged))
    s.spec.algos

let percentiles b (s : series) =
  let module H = Telemetry.Histogram in
  Printf.bprintf b "%s response-time percentiles (ms)\n" s.spec.id;
  grid b s ~width:21
    ~head:(fun a -> a ^ " p50/p90/p99")
    (fun p a ->
      match List.assoc_opt a p.results with
      | Some r ->
        Printf.sprintf "%.0f/%.0f/%.0f"
          Metric.(resp_p50_ms.get r)
          Metric.(resp_p90_ms.get r)
          Metric.(resp_p99_ms.get r)
      | None -> "-");
  Printf.bprintf b "merged across %s\n" s.spec.axis;
  List.iter
    (fun (a, h) ->
      if not (H.is_empty h) then
        Printf.bprintf b
          "%-6s n=%-6d mean=%6.0fms p50=%6.0fms p90=%6.0fms p99=%6.0fms \
           max=%6.0fms\n"
          (Algo.to_string a) (H.count h)
          (1000.0 *. H.mean h)
          (1000.0 *. H.quantile h 0.50)
          (1000.0 *. H.quantile h 0.90)
          (1000.0 *. H.quantile h 0.99)
          (1000.0 *. H.max_value h))
    (merged_response_hists s)

(* A line's fields: each one's text, then its value in its format. *)
let fields b (fs : detail list) r =
  List.iter
    (fun (before, m, fmt) ->
      Buffer.add_string b before;
      Buffer.add_string b (Printf.sprintf fmt (m.Metric.get r)))
    fs

let detail b (s : series) =
  Printf.bprintf b "%s\n" s.spec.detail_heading;
  List.iter
    (fun p ->
      List.iter
        (fun (a, r) ->
          Printf.bprintf b "%s %-6s" p.row.tag (Algo.to_string a);
          fields b s.spec.detail r;
          Buffer.add_char b '\n')
        p.results)
    s.points

(* --- One run ------------------------------------------------------------- *)

(* oodbsim's result block, one field list per line.  A line with a gate
   [(m, floor)] prints only when [m] exceeds [floor]: shards only for a
   partitioned server, fault lines only when a fault fired, the oracle
   line only when the oracle ran.  A run that exercises none of those
   layers prints exactly what a build without them printed. *)
let result_lines : ((Metric.t * float) option * detail list) list =
  Metric.
    [
      ( None,
        [
          (": ", throughput, "%.2f tps"); (" (resp ", resp_ms, "%.0f ms");
          (" +/- ", resp_ci_ms, "%.0f"); (", ", resp_batches, "%.0f batches)");
        ] );
      ( None,
        [
          ("commits ", commits, "%.0f"); (", aborts ", aborts, "%.0f");
          (", deadlocks ", deadlocks, "%.0f");
        ] );
      ( None,
        [
          ("msgs/commit ", msgs_per_commit, "%.1f");
          (", KB/commit ", kbytes_per_commit, "%.1f");
          (", disk I/Os ", disk_ios, "%.0f");
        ] );
      ( None,
        [
          ("util: server CPU ", server_cpu, "%.2f");
          (", client CPU ", client_cpu, "%.2f"); (", disk ", disk_util, "%.2f");
          (", net ", net_util, "%.2f");
        ] );
      ( None,
        [
          ("lock waits ", lock_waits, "%.0f");
          (" (avg ", avg_lock_wait_ms, "%.1f ms)");
          (", callback blocks ", callback_blocks, "%.0f");
          (", merges ", merges, "%.0f");
        ] );
      ( None,
        [
          ("de-escalations ", deescalations, "%.0f");
          (", write grants page/object ", page_grants, "%.0f");
          ("/", object_grants, "%.0f");
        ] );
      ( Some (servers, 1.0),
        [
          ("shards: ", servers, "%.0f servers");
          (", callback forwards ", cb_forwards, "%.0f");
          (", edge exchanges ", edge_exchanges, "%.0f");
        ] );
      ( Some (faults_injected, 0.0),
        [
          ("faults: ", faults_injected, "%.0f injected");
          (" (crashes ", crashes, "%.0f"); (", losses ", msg_losses, "%.0f");
          (", dups ", msg_dups, "%.0f"); (", stalls ", disk_stalls, "%.0f)");
          (", crash aborts ", crash_aborts, "%.0f");
          (", retransmits ", retransmits, "%.0f");
          (", recoveries ", recoveries, "%.0f");
          (" (mean ", recovery_ms, "%.0f ms)");
        ] );
      ( Some (srv_crashes, 0.0),
        [
          ("server faults: ", srv_crashes, "%.0f crashes");
          (", ", srv_recoveries, "%.0f recoveries");
          (" (mean ", srv_recovery_ms, "%.0f ms)");
          (", ", srv_giveaways, "%.0f giveaways");
          (", ", retries, "%.0f retries");
          (" (wait p99 ", retry_wait_p99_ms, "%.0f ms)");
        ] );
      ( Some (oracle_ops, 0.0),
        [
          ("oracle: serializable (", oracle_commits, "%.0f committed");
          (", ", oracle_ops, "%.0f ops checked)");
        ] );
    ]

let pp_result ppf (r : Runner.result) =
  let lines =
    List.filter_map
      (fun (gate, fs) ->
        match gate with
        | Some (m, floor) when m.Metric.get r <= floor -> None
        | _ ->
          let b = Buffer.create 128 in
          fields b fs r;
          Some (Buffer.contents b))
      result_lines
  in
  Format.fprintf ppf "@[<v>%s / %s%a@]" (Algo.to_string r.algo) r.workload
    (Format.pp_print_list Format.pp_print_string)
    lines

let render ~percentiles:pct ~detail:det s =
  let b = Buffer.create 4096 in
  table b s;
  if pct then begin
    Buffer.add_char b '\n';
    percentiles b s
  end;
  if det then detail b s;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_csv (s : series) =
  let b = Buffer.create 4096 in
  let line cells = Buffer.add_string b (String.concat "," cells ^ "\n") in
  (match s.points with
  | [] -> ()
  | p :: _ ->
    line
      (List.map (fun k -> k.csv_header) p.row.keys
      @ ("algo" :: List.map (fun m -> m.Metric.name) s.spec.csv)));
  List.iter
    (fun p ->
      List.iter
        (fun (a, r) ->
          line
            (List.map (fun k -> k.csv_text) p.row.keys
            @ Algo.to_string a
              :: List.map (fun m -> Metric.to_csv m r) s.spec.csv))
        p.results)
    s.points;
  Buffer.contents b

let pp_figure5 ppf curves =
  Format.fprintf ppf
    "@[<v>fig5: per-page update probability vs per-object write probability@,";
  Format.fprintf ppf "%8s" "wp";
  List.iter (fun (k, _) -> Format.fprintf ppf "%9s" (Printf.sprintf "k=%d" k)) curves;
  Format.fprintf ppf "@,";
  (match curves with
  | [] -> ()
  | (_, first) :: _ ->
    List.iteri
      (fun i (w, _) ->
        Format.fprintf ppf "%8.2f" w;
        List.iter
          (fun (_, pts) ->
            let _, v = List.nth pts i in
            Format.fprintf ppf "%9.3f" v)
          curves;
        Format.fprintf ppf "@,")
      first);
  Format.fprintf ppf "@]"

let pp_workload_table ppf cfg =
  let open Workload in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun which ->
      List.iter
        (fun locality ->
          let p =
            Presets.make which ~db_pages:cfg.Config.db_pages
              ~objects_per_page:cfg.Config.objects_per_page
              ~num_clients:cfg.Config.num_clients ~locality ~write_prob:0.0
          in
          let c0 = p.Wparams.clients.(0) in
          Format.fprintf ppf
            "%-20s %-4s transSize=%2d locality=%d-%d hot=%s hotProb=%.0f%% \
             cold=[%d,%d]%s@,"
            p.Wparams.name
            (match locality with Presets.Low -> "low" | Presets.High -> "high")
            p.Wparams.trans_size p.Wparams.page_locality.Wparams.lo
            p.Wparams.page_locality.Wparams.hi
            (match c0.Wparams.hot_region with
            | Some r -> Printf.sprintf "[%d,%d]/client" r.Wparams.first r.Wparams.last
            | None -> "none")
            (100.0 *. c0.Wparams.hot_access_prob)
            c0.Wparams.cold_region.Wparams.first
            c0.Wparams.cold_region.Wparams.last
            (if c0.Wparams.cold_write_prob = 0.0 && c0.Wparams.hot_write_prob = 0.0
             then
               match which with
               | Presets.Private_ | Presets.Interleaved_private ->
                 " (cold read-only)"
               | _ -> ""
             else ""))
        [ Presets.Low; Presets.High ])
    Presets.all;
  Format.fprintf ppf "@]"
