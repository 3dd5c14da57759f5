open Workload

type key = {
  header : string;
  text : string;
  csv_header : string;
  csv_text : string;
}

type row = {
  keys : key list;
  tag : string;
  label : Algo.t -> string;
  cfg : Config.t;
  params : Wparams.t;
  warmup : float;
  measure : float;
}

type detail = string * Metric.t * (float -> string, unit, string) format

type spec = {
  id : string;
  title : string;
  algos : Algo.t list;
  base_cfg : Config.t;
  workload : write_prob:float -> Wparams.t;
  rows : unit -> row list;
  axis : string;
  normalize : bool;
  detail_heading : string;
  detail : detail list;
  csv : Metric.t list;
}

let sprintf = Printf.sprintf

let key width header text csv_header csv_text =
  {
    header = sprintf "%*s" width header;
    text = sprintf "%*s" width text;
    csv_header;
    csv_text;
  }

let wp_key wp = key 8 "wp" (sprintf "%.2f" wp) "write_prob" (sprintf "%.3f" wp)

(* Most grids label a cell "<tag> <algo>"; the label is the seed key, so
   grids whose labels were first written otherwise keep their own. *)
let row ?label ?(warmup = 30.0) ?(measure = 120.0) ~tag keys cfg params =
  let label =
    match label with
    | Some l -> l
    | None -> fun a -> sprintf "%s %-5s" tag (Algo.to_string a)
  in
  { keys; tag; label; cfg; params; warmup; measure }

let spec ?(algos = Algo.all) ?(normalize = false) ?detail_heading ~id ~title
    ~cfg ~workload ~axis ~detail ~csv rows =
  let detail_heading =
    Option.value detail_heading ~default:("\n" ^ id ^ " details")
  in
  {
    id;
    title;
    algos;
    base_cfg = cfg;
    workload;
    rows;
    axis;
    normalize;
    detail_heading;
    detail;
    csv;
  }

let preset ?trans_size ?page_locality ?access_pattern ?think_time
    ?(which = Presets.Hotcold) ?(locality = Presets.Low) cfg ~write_prob =
  Presets.make ?trans_size ?page_locality ?access_pattern ?think_time which
    ~db_pages:cfg.Config.db_pages ~objects_per_page:cfg.Config.objects_per_page
    ~num_clients:cfg.Config.num_clients ~locality ~write_prob

(* --- Detail fields and CSV schemas --------------------------------------- *)

let figure_detail : detail list =
  Metric.
    [
      (" tput=", throughput, "%6.2f"); (" resp=", resp_ms, "%6.0fms");
      (" ci=", resp_ci_ms, "%5.0fms"); (" msgs/c=", msgs_per_commit, "%6.1f");
      (" aborts=", aborts, "%4.0f"); (" dlk=", deadlocks, "%3.0f");
      (" srvCPU=", server_cpu, "%4.2f"); (" disk=", disk_util, "%4.2f");
      (" net=", net_util, "%4.2f"); (" deesc=", deescalations, "%4.0f");
      (" merges=", merges, "%4.0f"); (" pw/ow=", page_grants, "%.0f");
      ("/", object_grants, "%.0f");
    ]

let figure_csv =
  Metric.
    [
      servers; throughput; resp_ms; resp_ci_ms; commits; aborts; deadlocks;
      msgs_per_commit; kbytes_per_commit; disk_ios; server_cpu; client_cpu;
      disk_util; net_util; deescalations; merges; page_grants; object_grants;
      resp_p50_ms; resp_p90_ms; resp_p99_ms; lock_wait_p99_ms; cb_round_p99_ms;
      retries; retry_wait_p99_ms;
    ]

(* The head of every sweep's detail line. *)
let outcome : detail list =
  Metric.
    [
      (" tput=", throughput, "%6.2f"); (" commits=", commits, "%5.0f");
      (" aborts=", aborts, "%4.0f");
    ]

let tail_csv = Metric.[ resp_p50_ms; resp_p99_ms; lock_wait_p99_ms ]

(* The sensitivity and ablation grids' columns. *)
let summary_detail : detail list =
  Metric.
    [
      (" tput=", throughput, "%6.2f"); (" msgs/c=", msgs_per_commit, "%6.1f");
      (" KB/c=", kbytes_per_commit, "%6.1f"); (" resp=", resp_ms, "%6.0fms");
      (" srvCPU=", server_cpu, "%4.2f"); (" disk=", disk_util, "%4.2f");
    ]

let summary_csv =
  Metric.
    [
      throughput; resp_ms; commits; aborts; deadlocks; msgs_per_commit;
      kbytes_per_commit; server_cpu; disk_util;
    ]
  @ tail_csv

(* --- The paper's figures --------------------------------------------------- *)

let figure ?(scaled = false) id title which locality =
  let scale, trans_size, write_probs, warmup =
    if scaled then (9, Some 90, [ 0.0; 0.05; 0.15; 0.3 ], 60.0)
    else (1, None, [ 0.0; 0.02; 0.05; 0.1; 0.15; 0.2; 0.3; 0.5 ], 30.0)
  in
  let cfg = Config.scaled Config.default ~factor:scale in
  let workload = preset ?trans_size ~which ~locality cfg in
  spec ~id ~title ~cfg ~workload ~normalize:scaled ~axis:"write probabilities"
    ~detail:figure_detail ~csv:figure_csv (fun () ->
      List.map
        (fun wp ->
          row ~warmup ~tag:(sprintf "wp=%.2f" wp)
            [ key 0 "" "" "figure" id; wp_key wp ]
            cfg (workload ~write_prob:wp))
        write_probs)

let figures =
  Presets.
    [
      figure "fig3" "HOTCOLD, low page locality (30 pages, 1-7 obj)" Hotcold Low;
      figure "fig4" "HOTCOLD, high page locality (10 pages, 8-16 obj)" Hotcold
        High;
      figure "fig6" "UNIFORM, low page locality" Uniform Low;
      figure "fig7" "UNIFORM, high page locality" Uniform High;
      figure "fig8" "HICON, low page locality" Hicon Low;
      figure "fig9" "HICON, high page locality" Hicon High;
      figure "fig10" "PRIVATE, high page locality" Private_ High;
      figure "fig11" "Interleaved PRIVATE (false sharing)" Interleaved_private
        High;
      figure ~scaled:true "fig12" "HOTCOLD scaled x9, normalized to PS-AA"
        Hotcold Low;
      figure ~scaled:true "fig13" "UNIFORM scaled x9, normalized to PS-AA"
        Uniform Low;
      figure ~scaled:true "fig14" "HICON scaled x9, normalized to PS-AA" Hicon
        Low;
    ]

(* --- Sweeps over fig3's wp=0.1 cell ---------------------------------------- *)

(* fig3's wp=0.1 point (HOTCOLD, low locality) is the base cell of the
   robustness, sharding and availability sweeps: enough conflict for
   faults to strand interesting state, small enough to sweep quickly.
   Each sweep's zero point reproduces the plain fig3 cell. *)
let fig3 = List.hd figures

let fig3_sweep ~id ~title ~axis ~detail_heading ~detail ~csv ~tag ~key_of
    ~vary values =
  spec ~id ~title ~cfg:fig3.base_cfg ~workload:fig3.workload ~axis
    ~detail_heading ~detail:(outcome @ detail)
    ~csv:(Metric.[ throughput; resp_ms; commits; aborts; deadlocks ] @ csv)
    (fun () ->
      let params = fig3.workload ~write_prob:0.1 in
      List.map
        (fun v ->
          row ~tag:(tag v) [ key_of v ] (vary fig3.base_cfg v) params)
        values)

(* Client crash/loss/stall storms of increasing rate. *)
let faultsweep =
  let rate r = sprintf "%.3f" r in
  fig3_sweep ~id:"faultsweep"
    ~title:"crash/loss/stall storm (HOTCOLD low, wp=0.10)" ~axis:"storm rates"
    ~detail_heading:"fault detail"
    ~detail:
      Metric.
        [
          (" crashes=", crashes, "%3.0f");
          (" crash-aborts=", crash_aborts, "%3.0f");
          (" lost=", msg_losses, "%4.0f"); (" dup=", msg_dups, "%3.0f");
          (" retrans=", retransmits, "%4.0f");
          (" stalls=", disk_stalls, "%4.0f");
          (" recoveries=", recoveries, "%3.0f");
          (" rec=", recovery_ms, "%5.0fms");
        ]
    ~csv:
      (Metric.
         [
           crashes; crash_aborts; msg_losses; msg_dups; retransmits; disk_stalls;
           faults_injected; recoveries; recovery_ms; resp_p50_ms; resp_p99_ms;
           lock_wait_p99_ms; retries; retry_wait_p99_ms;
         ])
    ~tag:(fun r -> "rate=" ^ rate r)
    ~key_of:(fun r -> key 8 "rate" (rate r) "rate" (rate r))
    ~vary:(fun cfg r -> { cfg with Config.faults = Faults.storm ~rate:r })
    [ 0.0; 0.005; 0.01; 0.02; 0.05 ]

(* The page server split into 1, 2 and 4 hash partitions. *)
let shardsweep =
  fig3_sweep ~id:"shardsweep"
    ~title:"partitioned page server (HOTCOLD low, wp=0.10)"
    ~axis:"server counts" ~detail_heading:"shard detail"
    ~detail:
      Metric.
        [
          (" dlk=", deadlocks, "%3.0f"); (" msgs/c=", msgs_per_commit, "%6.1f");
          (" fwd=", cb_forwards, "%5.0f"); (" edges=", edge_exchanges, "%5.0f");
          (" srvCPU=", server_cpu, "%4.2f"); (" disk=", disk_util, "%4.2f");
          (" net=", net_util, "%4.2f");
        ]
    ~csv:
      (Metric.
         [
           msgs_per_commit; cb_forwards; edge_exchanges; disk_ios; server_cpu;
           disk_util; net_util;
         ]
      @ tail_csv)
    ~tag:(sprintf "srv=%d")
    ~key_of:(fun n ->
      key 8 "servers" (string_of_int n) "servers" (string_of_int n))
    ~vary:(fun cfg n ->
      { cfg with Config.servers = n; partition = Config.Hash })
    [ 1; 2; 4 ]

(* Whole-server crashes on a 2-way partitioned server, client faults
   off: how throughput and tail latency degrade when a partition
   disappears and recovers.  Two servers is the smallest topology where
   partial-partition degradation is visible (transactions confined to
   the surviving partition keep committing). *)
let srvfaultsweep =
  let rate r = sprintf "%.3f" r in
  fig3_sweep ~id:"srvfaultsweep"
    ~title:"server crash & recovery (HOTCOLD low, wp=0.10, 2 servers)"
    ~axis:"server crash rates" ~detail_heading:"server-fault detail"
    ~detail:
      Metric.
        [
          (" crashes=", srv_crashes, "%3.0f");
          (" recoveries=", srv_recoveries, "%3.0f");
          (" rec=", srv_recovery_ms, "%6.0fms");
          (" giveaways=", srv_giveaways, "%4.0f");
          (" retries=", retries, "%5.0f");
          (" rwait99=", retry_wait_p99_ms, "%5.0fms");
          (" p99=", resp_p99_ms, "%6.0fms");
        ]
    ~csv:
      (Metric.
         [
           srv_crashes; srv_recoveries; srv_recovery_ms; srv_giveaways; retries;
           retry_wait_p99_ms;
         ]
      @ tail_csv)
    ~tag:(fun r -> "srate=" ^ rate r)
    ~key_of:(fun r -> key 8 "srate" (rate r) "srate" (rate r))
    ~vary:(fun cfg r ->
      {
        cfg with
        Config.servers = 2;
        partition = Config.Hash;
        faults = { Faults.off with Faults.srv_crash_rate = r };
      })
    [ 0.0; 0.002; 0.005; 0.01; 0.02 ]

(* --- Cluster sweep (generic-workload clustering experiment) ------------- *)

(* The OCB-style generic workload rerun under each placement policy and
   two hotspot skews: how much each protocol pays for a badly clustered
   object base.  Page-grain PS feels declustering through false sharing
   (traversal working sets smear across pages), while the object-grain
   protocols should stay comparatively flat.  Policies are ordered from
   best to worst expected clustering quality. *)
let cluster_policies = [ Placement.Dfs_ref; Placement.Sequential;
                         Placement.Scatter ]

(* 5000 objects = 250 pages: the whole base fits the 312-page client
   buffer, so after warm-up the sweep is contention-bound, not
   disk-bound — placement then moves only the page-grain lock/callback
   footprint, which is the effect under test (a 25k-object base drowns
   it in cold-fetch disk traffic for every protocol).  Transactions are
   kept small (a depth-4 traversal capped at 24 objects, match 10,
   update 4) so that true object-level conflicts stay rare and what
   remains is page co-tenancy: ~15 objects per transaction out of 5000
   rarely collide on objects, but at scatter they spread over ~15 of
   250 pages, so page-grain write locks keep colliding with unrelated
   work — the false-sharing signal. *)
let ocb ~policy ~theta ~write_prob =
  let cfg = Config.default in
  Presets.ocb ~objects:5_000 ~policy ~theta ~traversal_depth:4
    ~traversal_cap:24 ~match_size:10 ~update_size:4
    ~db_pages:cfg.Config.db_pages
    ~objects_per_page:cfg.Config.objects_per_page
    ~num_clients:cfg.Config.num_clients ~write_prob ()

let cluster_params ~policy ~theta = ocb ~policy ~theta ~write_prob:0.2

let clustersweep =
  spec ~id:"clustersweep"
    ~title:"OCB generic workload, placement x skew (wp=0.20)"
    ~cfg:Config.default ~workload:(ocb ~policy:Placement.Dfs_ref ~theta:0.0)
    ~axis:"placement x skew cells" ~detail_heading:"cluster detail"
    ~detail:
      (outcome
      @ Metric.
          [
            (" dlk=", deadlocks, "%3.0f");
            (" cb-blk=", callback_blocks, "%5.0f");
            (" msgs/c=", msgs_per_commit, "%6.1f");
            (" p99=", resp_p99_ms, "%6.1fms");
          ])
    ~csv:
      (Metric.
         [
           throughput; resp_ms; commits; aborts; deadlocks; callback_blocks;
           msgs_per_commit;
         ]
      @ tail_csv)
    (fun () ->
      List.concat_map
        (fun policy ->
          List.map
            (fun theta ->
              let params = cluster_params ~policy ~theta in
              (* co-resident reference-edge fraction of the layout *)
              let q =
                match params.Wparams.generic with
                | Some g -> Generic.quality g
                | None -> assert false
              in
              let name = Placement.name policy in
              let z = sprintf "z=%.2f" theta in
              row
                ~label:(fun a -> sprintf "%s %s %-5s" name z (Algo.to_string a))
                ~tag:(sprintf "%s %s q=%.2f" name z q)
                [
                  key 8 "policy" name "policy" name;
                  key 6 "z" (sprintf "%.2f" theta) "theta"
                    (sprintf "%.2f" theta);
                  key 6 "qual" (sprintf "%.2f" q) "quality" (sprintf "%.4f" q);
                ]
                Config.default params)
            [ 0.0; 0.8 ])
        cluster_policies)

(* --- Section 5.6.2 sensitivity grids ------------------------------------- *)

(* A base cell (HOTCOLD, low locality, unless [workload] says otherwise)
   under one knob.  Section 5.6.2 summarizes these sweeps without
   figures. *)
let knob_grid ?(algos = Algo.[ PS; PS_AA; OS ])
    ?(workload = preset Config.default) ~id ~title ~axis rows =
  spec ~algos ~id ~title ~cfg:Config.default ~workload ~axis
    ~detail:summary_detail ~csv:summary_csv rows

let sens_clients =
  knob_grid ~id:"sens-clients"
    ~title:"number of client workstations (HOTCOLD low, wp=0.1)"
    ~axis:"client counts" (fun () ->
      List.map
        (fun n ->
          let cfg = { Config.default with Config.num_clients = n } in
          row
            ~label:(fun a -> sprintf "%2d clients  %-6s" n (Algo.to_string a))
            ~tag:(sprintf "%2d clients" n)
            [ key 8 "clients" (string_of_int n) "clients" (string_of_int n) ]
            cfg (preset cfg ~write_prob:0.1))
        [ 1; 5; 10; 25 ])

let sens_cluster =
  knob_grid ~id:"sens-cluster"
    ~title:"clustered vs unclustered access (HOTCOLD low, wp=0.1)"
    ~axis:"access patterns" (fun () ->
      List.map
        (fun (access_pattern, name) ->
          row
            ~label:(fun a -> sprintf "%-12s %-6s" name (Algo.to_string a))
            ~tag:(sprintf "%-11s" name)
            [ key 12 "access" name "access" name ]
            Config.default
            (preset ~access_pattern Config.default ~write_prob:0.1))
        Wparams.
          [ (Unclustered, "unclustered"); (Clustered, "clustered") ])

let sens_network =
  knob_grid ~id:"sens-network"
    ~title:"network bandwidth reduced 10x (HOTCOLD low, wp=0.1)"
    ~axis:"network bandwidths" (fun () ->
      List.map
        (fun (mbits, name) ->
          let cfg = { Config.default with Config.network_mbits = mbits } in
          row
            ~label:(fun a -> sprintf "%-10s %-6s" name (Algo.to_string a))
            ~tag:(sprintf "%-9s" name)
            [ key 10 "network" name "network_mbits" (sprintf "%.0f" mbits) ]
            cfg (preset cfg ~write_prob:0.1))
        [ (80.0, "80 Mbit/s"); (8.0, "8 Mbit/s") ])

(* A page locality of exactly one object per page (120-page
   transactions): the paper's only regime where OS wins under HOTCOLD
   and briefly under UNIFORM. *)
let sens_locality1 =
  knob_grid ~algos:Algo.all ~id:"sens-locality1"
    ~title:
      "extreme page locality of 1 (120 pages x 1 object; the paper's only OS \
       win)"
    ~axis:"workloads x write probabilities" (fun () ->
      List.concat_map
        (fun which ->
          let name = Presets.name_to_string which in
          List.map
            (fun wp ->
              row
                ~label:(fun a ->
                  sprintf "%-8s wp=%.2f %-6s" name wp (Algo.to_string a))
                ~tag:(sprintf "%-7s wp=%.2f" name wp)
                [ key 8 "workload" name "workload" name; wp_key wp ]
                Config.default
                (preset ~trans_size:120
                   ~page_locality:{ Wparams.lo = 1; hi = 1 }
                   ~which Config.default ~write_prob:wp))
            [ 0.05; 0.2 ])
        Presets.[ Hotcold; Uniform ])

(* --- Section 6 variants and design ablations ----------------------------- *)

(* Merge-at-server (ship dirty pages) vs redo-at-server (ship log
   records, replay at the server): Section 6.1 predicts redo saves
   client-server data volume but burdens the server with the replay
   work, eroding data-shipping's offload advantage. *)
let abl_commit =
  knob_grid ~algos:Algo.[ PS; PS_AA ] ~id:"abl-commit"
    ~title:"commit processing (merge-at-server vs redo-at-server)"
    ~axis:"commit modes x write probabilities" (fun () ->
      List.concat_map
        (fun (mode, name) ->
          let cfg = { Config.default with Config.commit_mode = mode } in
          List.map
            (fun wp ->
              row
                ~label:(fun a ->
                  sprintf "%-14s %-6s wp=%.2f" name (Algo.to_string a) wp)
                ~tag:(sprintf "%-10s wp=%.2f" name wp)
                [ key 12 "commit" name "commit_mode" name; wp_key wp ]
                cfg (preset cfg ~write_prob:wp))
            [ 0.05; 0.2 ])
        Config.[ (Ship_pages, "ship-pages"); (Redo_at_server, "redo-log") ])

(* Merging concurrent page updates vs the write-token approach
   ([Moha91]; the paper's stated future work), on Interleaved PRIVATE,
   whose false sharing makes pages bounce. *)
let abl_token =
  let token_workload cfg =
    preset ~which:Presets.Interleaved_private ~locality:Presets.High cfg
  in
  knob_grid ~algos:Algo.[ PS_OO; PS_AA ]
    ~workload:(token_workload Config.default) ~id:"abl-token"
    ~title:"concurrent page updates (merge vs write token)"
    ~axis:"update modes x write probabilities" (fun () ->
      List.concat_map
        (fun (mode, name) ->
          let cfg = { Config.default with Config.update_mode = mode } in
          List.map
            (fun wp ->
              row
                ~label:(fun a ->
                  sprintf "%-12s %-6s wp=%.2f" name (Algo.to_string a) wp)
                ~tag:(sprintf "%-11s wp=%.2f" name wp)
                [ key 12 "update" name "update_mode" name; wp_key wp ]
                cfg (token_workload cfg ~write_prob:wp))
            [ 0.1; 0.3 ])
        Config.[ (Merge, "merge"); (Write_token, "write-token") ])

(* Object server with grouped-object transfer (Section 6.2): group
   sizes 1 (pure OS) to 20 (page-sized groups) recover the page
   server's transfer economy but not its consistency economy. *)
let abl_group =
  knob_grid ~algos:[ Algo.OS ] ~id:"abl-group"
    ~title:"grouped-object server (OS transfer group size)"
    ~axis:"localities x group sizes" (fun () ->
      List.concat_map
        (fun locality ->
          let loc =
            match locality with Presets.Low -> "low" | Presets.High -> "high"
          in
          List.map
            (fun g ->
              let cfg = { Config.default with Config.os_group_size = g } in
              row
                ~label:(fun _ -> sprintf "OS group=%-2d locality=%s" g loc)
                ~tag:(sprintf "group=%-2d locality=%-4s" g loc)
                [
                  key 8 "locality" loc "locality" loc;
                  key 6 "group" (string_of_int g) "group_size" (string_of_int g);
                ]
                cfg
                (preset ~locality cfg ~write_prob:0.05))
            [ 1; 5; 10; 20 ])
        Presets.[ Low; High ])

(* Size-changing updates and page overflow (Section 6.1): forwarding
   costs as the fraction of growing updates rises. *)
let abl_overflow =
  knob_grid ~algos:[ Algo.PS_AA ] ~id:"abl-overflow"
    ~title:"size-changing updates and page overflow"
    ~axis:"size-change probabilities" (fun () ->
      List.map
        (fun scp ->
          let cfg =
            {
              Config.default with
              Config.size_change_prob = scp;
              overflow_prob = 0.1;
            }
          in
          let tag = sprintf "size-change prob=%.2f" scp in
          let scp = sprintf "%.2f" scp in
          row ~label:(fun _ -> tag) ~tag
            [ key 8 "scp" scp "size_change_prob" scp ]
            cfg (preset cfg ~write_prob:0.2))
        [ 0.0; 0.2; 0.5; 1.0 ])

(* Closed-system load sensitivity: client think time between
   transactions. *)
let abl_think =
  knob_grid ~algos:[ Algo.PS_AA ] ~id:"abl-think"
    ~title:"client think time (closed-system load)" ~axis:"think times"
    (fun () ->
      List.map
        (fun think ->
          let tag = sprintf "think time %.1fs" think in
          let t = sprintf "%.1f" think in
          row ~label:(fun _ -> tag) ~tag
            [ key 8 "think" t "think_time" t ]
            Config.default
            (preset ~think_time:think Config.default ~write_prob:0.1))
        [ 0.0; 0.5; 2.0 ])

(* How gracefully each sharing protocol degrades when clients crash,
   messages drop or duplicate and disks stall. *)
let abl_faults =
  knob_grid ~algos:Algo.all ~id:"abl-faults"
    ~title:"fault storm (crash/loss/stall) vs fault-free"
    ~axis:"fault profiles" (fun () ->
      List.map
        (fun (faults, name) ->
          row
            ~label:(fun a ->
              sprintf "%-11s %-6s wp=0.10" name (Algo.to_string a))
            ~tag:(sprintf "%-10s" name)
            [ key 11 "faults" name "faults" name ]
            { Config.default with Config.faults }
            (preset Config.default ~write_prob:0.1))
        [ (Faults.off, "fault-free"); (Faults.storm ~rate:0.02, "storm-0.02") ])

let all =
  figures
  @ [
      faultsweep; shardsweep; srvfaultsweep; clustersweep; sens_clients;
      sens_cluster; sens_network; sens_locality1; abl_commit; abl_token;
      abl_group; abl_overflow; abl_think; abl_faults;
    ]

let find id = List.find_opt (fun s -> s.id = id) all
let cfg_of spec = spec.base_cfg
let params_of spec ~write_prob = spec.workload ~write_prob

let jobs_of_spec ?(seed = 42) ?(time_scale = 1.0) ?(oracle = false)
    ?(timeline = false) ?servers ?partition ?max_events spec =
  List.concat_map
    (fun row ->
      let cfg =
        {
          row.cfg with
          Config.oracle;
          timeline;
          servers = Option.value servers ~default:row.cfg.Config.servers;
          partition = Option.value partition ~default:row.cfg.Config.partition;
        }
      in
      List.map
        (fun algo ->
          Job.make ~base_seed:seed ?max_events ~sweep:spec.id
            ~label:(row.label algo) ~cfg ~algo ~params:row.params
            ~warmup:(row.warmup *. time_scale)
            ~measure:(row.measure *. time_scale) ())
        spec.algos)
    (spec.rows ())

type point = { row : row; results : (Algo.t * Runner.result) list }
type series = { spec : spec; points : point list }

let series_of_results spec results =
  let rows = spec.rows () in
  let width = List.length spec.algos in
  if List.length results <> width * List.length rows then
    invalid_arg "Experiments.series_of_results: result/cell mismatch";
  let results = Array.of_list results in
  {
    spec;
    points =
      List.mapi
        (fun i row ->
          {
            row;
            results =
              List.mapi (fun j a -> (a, results.((i * width) + j))) spec.algos;
          })
        rows;
  }

let progress_line (j : Job.t) (r : Runner.result) =
  Printf.sprintf "%s %s: %.2f tps" j.Job.sweep j.Job.label r.Runner.throughput

let figure5 () =
  let wps = [ 0.0; 0.05; 0.1; 0.15; 0.2; 0.3; 0.4; 0.5 ] in
  List.map
    (fun k ->
      ( k,
        List.map
          (fun w ->
            (w, Analytic.page_write_prob ~object_write_prob:w ~objects_accessed:k))
          wps ))
    Analytic.figure5_localities
