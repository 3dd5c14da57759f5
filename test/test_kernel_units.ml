(* Unit tests of the kernel plumbing: message transport costs, client
   cache operations, direct callback handling, server request handlers,
   and report rendering. *)

open Oodb_core
open Storage

let oid page slot = Ids.Oid.make ~page ~slot

let mk_sys ?(clients = 2) ?(algo = Algo.PS_OO) () =
  let cfg = { Config.default with Config.num_clients = clients } in
  let params =
    Workload.Presets.make Workload.Presets.Uniform ~db_pages:cfg.Config.db_pages
      ~objects_per_page:cfg.Config.objects_per_page ~num_clients:clients
      ~locality:Workload.Presets.Low ~write_prob:0.0
  in
  Model.create ~cfg ~algo ~params ~seed:3

(* Run [f] as a fiber; return its result and the duration it took in
   simulated time. *)
let run_fiber_timed sys f =
  let engine = sys.Model.engine in
  let t0 = Simcore.Engine.now engine in
  let result = ref None in
  Simcore.Proc.spawn engine (fun () ->
      let v = f () in
      result := Some (v, Simcore.Engine.now engine -. t0));
  Simcore.Engine.run_until engine (t0 +. 30.0);
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "fiber did not complete"

let run_fiber sys f = fst (run_fiber_timed sys f)

(* --- Netlayer ----------------------------------------------------------- *)

let test_netlayer_costs () =
  let sys = mk_sys () in
  let cfg = sys.Model.cfg in
  let (), latency =
    run_fiber_timed sys (fun () ->
        Netlayer.control sys ~cls:Metrics.M_read_req ~src:(Netlayer.Client 0)
          ~dst:(Netlayer.Server 0))
  in
  (* End-to-end latency = send CPU + wire + receive CPU. *)
  let bytes = Config.control_bytes cfg in
  let cpu_s = Config.msg_instr cfg ~bytes /. (cfg.Config.client_mips *. 1e6) in
  let cpu_r = Config.msg_instr cfg ~bytes /. (cfg.Config.server_mips *. 1e6) in
  let wire = float_of_int (bytes * 8) /. (cfg.Config.network_mbits *. 1e6) in
  Alcotest.(check (float 1e-9)) "latency" (cpu_s +. wire +. cpu_r) latency;
  Alcotest.(check int) "counted" 1
    (Metrics.messages_of sys.Model.metrics Metrics.M_read_req);
  Alcotest.(check int) "bytes" bytes (Metrics.bytes sys.Model.metrics)

let test_netlayer_page_bigger_than_control () =
  let sys = mk_sys () in
  let (), t_control =
    run_fiber_timed sys (fun () ->
        Netlayer.control sys ~cls:Metrics.M_read_req ~src:(Netlayer.Client 0)
          ~dst:(Netlayer.Server 0))
  in
  let (), t_page =
    run_fiber_timed sys (fun () ->
        Netlayer.page_data sys ~cls:Metrics.M_read_reply ~src:(Netlayer.Server 0)
          ~dst:(Netlayer.Client 0))
  in
  Alcotest.(check bool) "page message costs more" true (t_page > t_control)

(* --- Cache_ops ----------------------------------------------------------- *)

let mk_txn sys client =
  let txn =
    {
      Model.tid = Model.fresh_tid sys;
      client;
      epoch = sys.Model.clients.Model.epoch.(client);
      ops = [||];
      started = 0.0;
      first_started = 0.0;
      restarts = 0;
      read_pages = Ids.Page_set.empty;
      read_objs = Ids.Oid_set.empty;
      wpages = Ids.Page_set.empty;
      wobjs = Ids.Oid_set.empty;
      updated = Ids.Oid_set.empty;
      doomed = false;
      rpc_sid = -1;
    }
  in
  Model.set_running sys client txn;
  txn

let test_install_page_fresh () =
  let sys = mk_sys () in
  let cache = sys.Model.clients.Model.cache.(0) in
  let txn = mk_txn sys 0 in
  let unavailable = Ids.Int_set.of_list [ 3; 7 ] in
  let evicted = Cache_ops.install_page sys 0 txn 5 ~unavailable ~version:4 in
  Alcotest.(check bool) "no eviction" true (evicted = None);
  match Lru.peek cache 5 with
  | Some e ->
    Alcotest.(check bool) "unavailable kept" true
      (Ids.Int_set.equal e.Model.unavailable unavailable);
    Alcotest.(check int) "version" 4 e.Model.fetch_version;
    Alcotest.(check bool) "fresh copy starts clean" true
      (Ids.Int_set.is_empty e.Model.dirty)
  | None -> Alcotest.fail "page not cached"

(* Copy registration happens server-side when the copy is shipped, so a
   full PS-OO read must leave the available objects (and only those)
   registered for the reader. *)
let test_read_registers_object_copies () =
  let sys = mk_sys ~algo:Algo.PS_OO () in
  let txn = mk_txn sys 0 in
  Locking.Lock_table.force_grant sys.Model.servers.(0).olocks (oid 5 3) ~txn:77;
  Model.index_obj_lock sys.Model.servers.(0) (oid 5 3);
  (match run_fiber sys (fun () -> Srv.read_rpc sys txn (oid 5 0)) with
  | Srv.R_page { unavailable; version } ->
    ignore (Cache_ops.install_page sys 0 txn 5 ~unavailable ~version)
  | _ -> Alcotest.fail "expected page");
  Alcotest.(check int) "available object registered once" 1
    (Locking.Copy_table.refs sys.Model.servers.(0).pcopies 5 ~slot:0 ~client:0);
  Alcotest.(check int) "foreign-locked object not registered" 0
    (Locking.Copy_table.refs sys.Model.servers.(0).pcopies 5 ~slot:3 ~client:0)

let test_install_page_merges_local_dirty () =
  let sys = mk_sys () in
  let cache = sys.Model.clients.Model.cache.(0) in
  let txn = mk_txn sys 0 in
  run_fiber sys (fun () ->
      ignore
        (Cache_ops.install_page sys 0 txn 5 ~unavailable:Ids.Int_set.empty
           ~version:0);
      (match Lru.peek cache 5 with
      | Some e -> e.Model.dirty <- Ids.Int_set.of_list [ 2 ]
      | None -> assert false);
      (* Re-receive with slot 2 marked unavailable by the server: the
         local uncommitted update must stay visible/available. *)
      ignore
        (Cache_ops.install_page sys 0 txn 5
           ~unavailable:(Ids.Int_set.of_list [ 2; 9 ])
           ~version:3));
  (match Lru.peek cache 5 with
  | Some e ->
    Alcotest.(check bool) "own update stays available" false
      (Ids.Int_set.mem 2 e.Model.unavailable);
    Alcotest.(check bool) "foreign mark applied" true
      (Ids.Int_set.mem 9 e.Model.unavailable)
  | None -> Alcotest.fail "page lost");
  Alcotest.(check int) "client merge counted" 1
    (Metrics.client_merges sys.Model.metrics)

let test_install_page_eviction_reports_dirty () =
  let sys = mk_sys () in
  let cache = sys.Model.clients.Model.cache.(0) in
  let txn = mk_txn sys 0 in
  let cap = Lru.capacity cache in
  (* Fill the cache, dirty page 0, then overflow. *)
  for p = 0 to cap - 1 do
    ignore
      (Cache_ops.install_page sys 0 txn p ~unavailable:Ids.Int_set.empty
         ~version:0)
  done;
  (match Lru.peek cache 0 with
  | Some e -> e.Model.dirty <- Ids.Int_set.of_list [ 1 ]
  | None -> assert false);
  Lru.touch cache 0;
  (* Insert enough fresh pages to evict page 0 (now MRU, evicted last). *)
  let shipped = ref [] in
  for p = cap to 2 * cap do
    match
      Cache_ops.install_page sys 0 txn p ~unavailable:Ids.Int_set.empty
        ~version:0
    with
    | Some (victim, dirty, _) -> shipped := (victim, dirty) :: !shipped
    | None -> ()
  done;
  Alcotest.(check bool) "dirty victim reported exactly once" true
    (match List.filter (fun (v, _) -> v = 0) !shipped with
    | [ (0, d) ] -> Ids.Int_set.equal d (Ids.Int_set.of_list [ 1 ])
    | _ -> false)

let test_drop_page_protects_dirty () =
  let sys = mk_sys () in
  let cache = sys.Model.clients.Model.cache.(0) in
  let txn = mk_txn sys 0 in
  ignore
    (Cache_ops.install_page sys 0 txn 5 ~unavailable:Ids.Int_set.empty
       ~version:0);
  (match Lru.peek cache 5 with
  | Some e -> e.Model.dirty <- Ids.Int_set.of_list [ 0 ]
  | None -> assert false);
  Alcotest.(check bool) "dirty drop rejected" true
    (try
       Cache_ops.drop_page sys 0 5 ~discard_dirty:false;
       false
     with Invalid_argument _ -> true);
  Cache_ops.drop_page sys 0 5 ~discard_dirty:true;
  Alcotest.(check bool) "dropped" false (Lru.mem cache 5)

(* --- Cb (direct) ----------------------------------------------------------- *)

let test_cb_not_cached () =
  let sys = mk_sys () in
  List.iter
    (fun kind ->
      let r = run_fiber sys (fun () -> Cb.handle sys ~sv:sys.Model.servers.(0) ~client:1 ~writer:99 kind) in
      Alcotest.(check bool) "not cached" true (r = Cb.Not_cached))
    [ Cb.Purge_page 5; Cb.Purge_obj (oid 5 0); Cb.Adaptive (oid 5 0) ]

let test_cb_adaptive_purges_idle () =
  let sys = mk_sys () in
  let cache = sys.Model.clients.Model.cache.(1) in
  let txn = mk_txn sys 1 in
  ignore
    (Cache_ops.install_page sys 1 txn 5 ~unavailable:Ids.Int_set.empty
       ~version:0);
  ignore (Model.clear_running sys 1);
  (* txn over, page idle *)
  let r =
    run_fiber sys (fun () -> Cb.handle sys ~sv:sys.Model.servers.(0) ~client:1 ~writer:99 (Cb.Adaptive (oid 5 0)))
  in
  Alcotest.(check bool) "purged" true (r = Cb.Purged);
  Alcotest.(check bool) "gone" false (Lru.mem cache 5)

let test_cb_adaptive_marks_in_use () =
  let sys = mk_sys () in
  let cache = sys.Model.clients.Model.cache.(1) in
  let txn = mk_txn sys 1 in
  ignore
    (Cache_ops.install_page sys 1 txn 5 ~unavailable:Ids.Int_set.empty
       ~version:0);
  (* The running txn uses another object of the page. *)
  txn.Model.read_objs <- Ids.Oid_set.singleton (oid 5 1);
  txn.Model.read_pages <- Ids.Page_set.singleton 5;
  let r =
    run_fiber sys (fun () -> Cb.handle sys ~sv:sys.Model.servers.(0) ~client:1 ~writer:99 (Cb.Adaptive (oid 5 0)))
  in
  Alcotest.(check bool) "marked" true (r = Cb.Marked);
  (match Lru.peek cache 5 with
  | Some e ->
    Alcotest.(check bool) "slot marked" true (Ids.Int_set.mem 0 e.Model.unavailable)
  | None -> Alcotest.fail "page purged instead of marked")

(* --- Srv handlers ------------------------------------------------------------ *)

let mk_read_txn sys client = mk_txn sys client

let test_read_rpc_ps_plain_page () =
  let sys = mk_sys ~algo:Algo.PS () in
  let txn = mk_read_txn sys 0 in
  let r = run_fiber sys (fun () -> Srv.read_rpc sys txn (oid 7 3)) in
  (match r with
  | Srv.R_page { unavailable; version } ->
    Alcotest.(check bool) "no marks under PS" true
      (Ids.Int_set.is_empty unavailable);
    Alcotest.(check int) "fresh page version 0" 0 version
  | _ -> Alcotest.fail "expected page");
  Alcotest.(check bool) "copy registered" true
    (Locking.Copy_table.holds sys.Model.servers.(0).pcopies 7 ~client:0);
  (* The cold read went to disk. *)
  Alcotest.(check bool) "disk I/O" true
    (Resources.Disk_array.io_count sys.Model.servers.(0).sdisks >= 1)

let test_read_rpc_marks_foreign_lock () =
  let sys = mk_sys ~algo:Algo.PS_OO () in
  let txn0 = mk_read_txn sys 0 in
  (* Simulate a foreign object lock held by txn 77. *)
  Locking.Lock_table.force_grant sys.Model.servers.(0).olocks (oid 7 4) ~txn:77;
  Model.index_obj_lock sys.Model.servers.(0) (oid 7 4);
  let r = run_fiber sys (fun () -> Srv.read_rpc sys txn0 (oid 7 3)) in
  (match r with
  | Srv.R_page { unavailable; _ } ->
    Alcotest.(check bool) "foreign-locked slot marked" true
      (Ids.Int_set.mem 4 unavailable);
    Alcotest.(check bool) "requested slot clear" false
      (Ids.Int_set.mem 3 unavailable)
  | _ -> Alcotest.fail "expected page")

let test_buffer_page_write_back () =
  let sys = mk_sys () in
  let txn = mk_read_txn sys 0 in
  let cap = Config.server_buf_pages sys.Model.cfg in
  run_fiber sys (fun () ->
      (* Fill the server buffer, dirty one page, then force eviction. *)
      ignore (Srv.read_rpc sys txn (oid 0 0));
      Storage.Buffer_pool.mark_dirty sys.Model.servers.(0).sbuffer 0;
      for p = 1 to cap do
        ignore (Srv.read_rpc sys txn (oid p 0))
      done);
  (* cap+1 reads + 1 write-back of the dirty victim. *)
  Alcotest.(check int) "write-back counted"
    (cap + 2)
    (Resources.Disk_array.io_count sys.Model.servers.(0).sdisks)

(* --- Report -------------------------------------------------------------- *)

let tiny_series () =
  let spec = Grid.restrict (Grid.spec "fig3") [ "wp=0.00" ] in
  let rows () =
    List.map
      (fun (r : Experiments.row) -> { r with Experiments.warmup = 2.0; measure = 5.0 })
      (spec.Experiments.rows ())
  in
  Grid.run ~time_scale:0.2 ~jobs:1 { spec with Experiments.rows }

let test_csv_shape () =
  let series = tiny_series () in
  let csv = Report.to_csv series in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' csv)
  in
  (* header + one row per (wp, algo) *)
  Alcotest.(check int) "rows" (1 + List.length Algo.all) (List.length lines);
  Alcotest.(check bool) "header" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 6 = "figure")

let suite =
  [
    Alcotest.test_case "netlayer costs" `Quick test_netlayer_costs;
    Alcotest.test_case "netlayer page > control" `Quick
      test_netlayer_page_bigger_than_control;
    Alcotest.test_case "install_page fresh" `Quick test_install_page_fresh;
    Alcotest.test_case "read registers object copies" `Quick
      test_read_registers_object_copies;
    Alcotest.test_case "install_page merges local dirty" `Quick
      test_install_page_merges_local_dirty;
    Alcotest.test_case "install_page reports dirty eviction" `Quick
      test_install_page_eviction_reports_dirty;
    Alcotest.test_case "drop_page protects dirty" `Quick
      test_drop_page_protects_dirty;
    Alcotest.test_case "cb: not cached" `Quick test_cb_not_cached;
    Alcotest.test_case "cb: adaptive purges idle" `Quick
      test_cb_adaptive_purges_idle;
    Alcotest.test_case "cb: adaptive marks in use" `Quick
      test_cb_adaptive_marks_in_use;
    Alcotest.test_case "srv: PS read ships plain page" `Quick
      test_read_rpc_ps_plain_page;
    Alcotest.test_case "srv: read marks foreign locks" `Quick
      test_read_rpc_marks_foreign_lock;
    Alcotest.test_case "srv: buffer write-back" `Quick test_buffer_page_write_back;
    Alcotest.test_case "report: csv shape" `Slow test_csv_shape;
  ]
