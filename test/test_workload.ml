open Workload
open Storage

let cfg_db = 1250
let opp = 20

let mk_params ?(which = Presets.Hotcold) ?(locality = Presets.Low)
    ?(write_prob = 0.2) ?(clients = 10) () =
  Presets.make which ~db_pages:cfg_db ~objects_per_page:opp
    ~num_clients:clients ~locality ~write_prob

let gen ?(seed = 1) ?(client = 0) params =
  Refstring.generate ~rng:(Simcore.Rng.create ~seed) ~params ~client
    ~objects_per_page:opp

(* --- Refstring ----------------------------------------------------------- *)

let test_distinct_pages () =
  let params = mk_params () in
  let t = gen params in
  let pages = Refstring.pages t in
  Alcotest.(check int) "trans_size pages" params.Wparams.trans_size
    (List.length pages);
  Alcotest.(check int) "distinct" (List.length pages)
    (List.length (List.sort_uniq compare pages))

let test_locality_range () =
  let params = mk_params () in
  let t = gen params in
  let by_page = Hashtbl.create 32 in
  Array.iter
    (fun (op : Refstring.op) ->
      let p = op.oid.Ids.Oid.page in
      Hashtbl.replace by_page p (1 + Option.value ~default:0 (Hashtbl.find_opt by_page p)))
    t;
  Hashtbl.iter
    (fun _ k ->
      if k < params.Wparams.page_locality.Wparams.lo
         || k > params.Wparams.page_locality.Wparams.hi
      then Alcotest.failf "page with %d objects outside locality range" k)
    by_page

let test_objects_distinct () =
  let params = mk_params () in
  let t = gen params in
  let oids = Array.to_list (Array.map (fun (op : Refstring.op) -> op.oid) t) in
  Alcotest.(check int) "no duplicate objects" (List.length oids)
    (List.length (List.sort_uniq Ids.Oid.compare oids))

let test_write_probability_extremes () =
  let p0 = mk_params ~write_prob:0.0 () in
  let t0 = gen p0 in
  Alcotest.(check int) "no writes at wp=0" 0 (Refstring.write_count t0);
  let p1 = mk_params ~write_prob:1.0 () in
  let t1 = gen p1 in
  Alcotest.(check int) "all writes at wp=1" (Refstring.object_count t1)
    (Refstring.write_count t1)

let test_clustered_pattern () =
  let params = { (mk_params ()) with Wparams.access_pattern = Wparams.Clustered } in
  let t = gen params in
  (* In a clustered string, each page's references are contiguous. *)
  let seen_done = Hashtbl.create 32 in
  let current = ref (-1) in
  Array.iter
    (fun (op : Refstring.op) ->
      let p = op.oid.Ids.Oid.page in
      if p <> !current then begin
        if Hashtbl.mem seen_done p then Alcotest.fail "page revisited";
        if !current >= 0 then Hashtbl.replace seen_done !current ();
        current := p
      end)
    t

let test_hot_cold_split () =
  let params = mk_params ~write_prob:0.0 () in
  (* client 3's hot region is pages 150..199 *)
  let hot = ref 0 and total = ref 0 in
  for seed = 1 to 40 do
    let t = gen ~seed ~client:3 params in
    Array.iter
      (fun (op : Refstring.op) ->
        incr total;
        let p = op.oid.Ids.Oid.page in
        if p >= 150 && p <= 199 then incr hot)
      t
  done;
  let frac = float_of_int !hot /. float_of_int !total in
  (* 80% of page picks are hot; cold picks can also land in the hot
     range (cold = whole DB), so expect a bit above 0.8. *)
  Alcotest.(check bool) "hot fraction near 0.8" true (frac > 0.7 && frac < 0.95)

let test_determinism () =
  let params = mk_params () in
  let a = gen ~seed:9 params and b = gen ~seed:9 params in
  Alcotest.(check bool) "same seed same string" true (a = b);
  let c = gen ~seed:10 params in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_private_cold_read_only () =
  let params = mk_params ~which:Presets.Private_ ~locality:Presets.High
      ~write_prob:1.0 () in
  for seed = 1 to 20 do
    let t = gen ~seed params in
    Array.iter
      (fun (op : Refstring.op) ->
        if op.write && op.oid.Ids.Oid.page >= cfg_db / 2 then
          Alcotest.fail "write in the read-only cold region")
      t
  done

let test_private_hot_disjoint () =
  let params = mk_params ~which:Presets.Private_ ~locality:Presets.High () in
  (* Hot regions of different clients never overlap. *)
  Array.iteri
    (fun i (c : Wparams.per_client) ->
      Array.iteri
        (fun j (c' : Wparams.per_client) ->
          if i < j then
            match (c.hot_region, c'.hot_region) with
            | Some a, Some b ->
              if not (a.Wparams.last < b.Wparams.first || b.Wparams.last < a.Wparams.first)
              then Alcotest.fail "hot regions overlap"
            | _ -> Alcotest.fail "missing hot region")
        params.Wparams.clients)
    params.Wparams.clients

let test_avg_objects_per_txn () =
  (* Both locality settings average ~120 objects per transaction. *)
  List.iter
    (fun locality ->
      let params = mk_params ~locality () in
      let total = ref 0 in
      let n = 60 in
      for seed = 1 to n do
        total := !total + Refstring.object_count (gen ~seed params)
      done;
      let avg = float_of_int !total /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "avg near 120 (got %.1f)" avg)
        true
        (avg > 105.0 && avg < 135.0))
    [ Presets.Low; Presets.High ]

(* --- Interleave ---------------------------------------------------------- *)

let remap = Interleave.remap ~hot_pages_per_client:25 ~objects_per_page:20 ~num_clients:10

let test_interleave_cold_unchanged () =
  let o = Ids.Oid.make ~page:700 ~slot:3 in
  Alcotest.(check bool) "cold identity" true (Ids.Oid.equal o (remap o))

let test_interleave_combined_region () =
  (* Client 0 (pages 0-24) and client 1 (pages 25-49) combine into 0-49;
     client 0 gets slots 0-9, client 1 slots 10-19. *)
  for page = 0 to 24 do
    for slot = 0 to 19 do
      let m = remap (Ids.Oid.make ~page ~slot) in
      if m.Ids.Oid.page < 0 || m.Ids.Oid.page > 49 then
        Alcotest.fail "left combined region";
      if m.Ids.Oid.slot > 9 then Alcotest.fail "client 0 must map to top half"
    done
  done;
  for page = 25 to 49 do
    for slot = 0 to 19 do
      let m = remap (Ids.Oid.make ~page ~slot) in
      if m.Ids.Oid.page < 0 || m.Ids.Oid.page > 49 then
        Alcotest.fail "left combined region";
      if m.Ids.Oid.slot < 10 then Alcotest.fail "client 1 must map to bottom half"
    done
  done

let test_interleave_injective () =
  let seen = Hashtbl.create 1024 in
  for page = 0 to 249 do
    for slot = 0 to 19 do
      let m = remap (Ids.Oid.make ~page ~slot) in
      if Hashtbl.mem seen m then Alcotest.fail "remap not injective";
      Hashtbl.add seen m ()
    done
  done;
  Alcotest.(check int) "bijection onto hot area" (250 * 20) (Hashtbl.length seen)

let test_interleave_doubles_pages () =
  (* One original page spreads over exactly two combined pages. *)
  let pages =
    List.sort_uniq compare
      (List.concat_map
         (fun slot -> [ (remap (Ids.Oid.make ~page:3 ~slot)).Ids.Oid.page ])
         (List.init 20 Fun.id))
  in
  Alcotest.(check int) "two pages" 2 (List.length pages)

let prop_interleave_in_range =
  QCheck.Test.make ~name:"interleave stays within the paired hot area" ~count:500
    QCheck.(pair (int_range 0 249) (int_range 0 19))
    (fun (page, slot) ->
      let m = remap (Ids.Oid.make ~page ~slot) in
      let pair_base = page / 25 land lnot 1 * 25 in
      m.Ids.Oid.page >= pair_base
      && m.Ids.Oid.page < pair_base + 50
      && m.Ids.Oid.slot >= 0 && m.Ids.Oid.slot < 20)

(* --- Presets / validation ------------------------------------------------ *)

let test_validate_rejects_bad_region () =
  let params = mk_params () in
  let bad =
    { params with
      Wparams.clients =
        Array.map
          (fun c -> { c with Wparams.cold_region = { Wparams.first = 0; last = 2000 } })
          params.Wparams.clients }
  in
  Alcotest.(check bool) "rejected" true
    (try
       Wparams.validate bad ~db_pages:cfg_db ~objects_per_page:opp;
       false
     with Invalid_argument _ -> true)

let test_validate_rejects_big_locality () =
  let params = mk_params () in
  let bad = { params with Wparams.page_locality = { Wparams.lo = 1; hi = 30 } } in
  Alcotest.(check bool) "rejected" true
    (try
       Wparams.validate bad ~db_pages:cfg_db ~objects_per_page:opp;
       false
     with Invalid_argument _ -> true)

let test_validate_rejects_bad_think () =
  let params = mk_params () in
  List.iter
    (fun think_time ->
      Alcotest.(check bool)
        (Printf.sprintf "think_time %g rejected" think_time)
        true
        (try
           Wparams.validate
             { params with Wparams.think_time }
             ~db_pages:cfg_db ~objects_per_page:opp;
           false
         with Invalid_argument _ -> true))
    [ -1.0; Float.nan; Float.infinity; Float.neg_infinity ];
  Wparams.validate
    { params with Wparams.think_time = 100.0 }
    ~db_pages:cfg_db ~objects_per_page:opp

let test_preset_regions () =
  let p = mk_params ~which:Presets.Hicon () in
  (match p.Wparams.clients.(0).Wparams.hot_region with
  | Some r ->
    Alcotest.(check int) "HICON hot size" 250 (Wparams.region_size r)
  | None -> Alcotest.fail "HICON needs a hot region");
  let u = mk_params ~which:Presets.Uniform () in
  Alcotest.(check bool) "UNIFORM has no hot region" true
    (u.Wparams.clients.(0).Wparams.hot_region = None)

let test_preset_scaling () =
  (* Scaled x9 database keeps region proportions. *)
  let p =
    Presets.make Presets.Hotcold ~db_pages:(cfg_db * 9) ~objects_per_page:opp
      ~num_clients:10 ~locality:Presets.Low ~write_prob:0.1
  in
  match p.Wparams.clients.(2).Wparams.hot_region with
  | Some r -> Alcotest.(check int) "hot scales x9" 450 (Wparams.region_size r)
  | None -> Alcotest.fail "expected hot region"

(* Presets whose clients all draw alike share one parameter record; a
   preset with per-client hot regions still builds one per client. *)
let test_preset_sharing () =
  let n = 10 in
  let shared name (p : Wparams.t) =
    Alcotest.(check bool) (name ^ " shares one record") true
      (p.clients.(0) == p.clients.(n - 1))
  in
  shared "UNIFORM" (mk_params ~which:Presets.Uniform ~clients:n ());
  shared "HICON" (mk_params ~which:Presets.Hicon ~clients:n ());
  shared "ocb"
    (Presets.ocb ~objects:2_000 ~db_pages:cfg_db ~objects_per_page:opp
       ~num_clients:n ~write_prob:0.2 ());
  let hc = mk_params ~which:Presets.Hotcold ~clients:n () in
  Alcotest.(check bool) "HOTCOLD hot regions distinct" true
    (hc.clients.(0).hot_region <> hc.clients.(n - 1).hot_region)

let test_name_roundtrip () =
  List.iter
    (fun w ->
      Alcotest.(check bool) "roundtrip" true
        (Presets.name_of_string (Presets.name_to_string w) = Some w))
    Presets.all

let prop_refstring_within_db =
  QCheck.Test.make ~name:"refstring objects stay within the database" ~count:100
    QCheck.(pair (int_range 0 9) (int_range 0 10000))
    (fun (client, seed) ->
      let params = mk_params ~which:Presets.Interleaved_private
          ~locality:Presets.High () in
      let t = gen ~seed ~client params in
      Array.for_all
        (fun (op : Refstring.op) ->
          op.oid.Ids.Oid.page >= 0 && op.oid.Ids.Oid.page < cfg_db
          && op.oid.Ids.Oid.slot >= 0 && op.oid.Ids.Oid.slot < opp)
        t)

(* Every RNG draw of the preset generator, pinned: a digest of 200
   refstrings drawn from one stream, cycling over the clients.  The
   hand-built clients exercise the region fall-through paths: a hot
   region smaller than [trans_size], and a cold region (overlapping the
   hot one) that fills up. *)
let refstring_digest params =
  let rng = Simcore.Rng.create ~seed:11 in
  let n = Array.length params.Wparams.clients in
  let b = Buffer.create 65536 in
  for i = 0 to 199 do
    Array.iter
      (fun (op : Refstring.op) ->
        Printf.bprintf b "%d.%d%c " op.oid.Ids.Oid.page op.oid.Ids.Oid.slot
          (if op.write then 'w' else 'r'))
      (Refstring.generate ~rng ~params ~client:(i mod n) ~objects_per_page:opp);
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_refstring_digests () =
  let hand_built ~hot ~cold ~hot_access_prob =
    let base = mk_params ~which:Presets.Uniform () in
    let c =
      {
        Wparams.hot_region = Some hot;
        cold_region = cold;
        hot_access_prob;
        hot_write_prob = 0.3;
        cold_write_prob = 0.1;
      }
    in
    { base with Wparams.clients = [| c |] }
  in
  let cases =
    List.concat_map
      (fun which ->
        List.map
          (fun locality ->
            ( Printf.sprintf "%s %s" (Presets.name_to_string which)
                (if locality = Presets.Low then "low" else "high"),
              mk_params ~which ~locality () ))
          [ Presets.Low; Presets.High ])
      Presets.all
    @ [
        ( "hot region smaller than trans_size",
          hand_built ~hot:{ Wparams.first = 100; last = 109 }
            ~cold:{ Wparams.first = 0; last = cfg_db - 1 }
            ~hot_access_prob:0.9 );
        ( "overlapping cold region fills up",
          hand_built ~hot:{ Wparams.first = 0; last = 59 }
            ~cold:{ Wparams.first = 40; last = 64 } ~hot_access_prob:0.1 );
      ]
  in
  let want =
    [
      ("HOTCOLD low", "fefe78dae627de4e18a2e647ace57f68");
      ("HOTCOLD high", "305852fe181d772fc63a6aa091f89f5b");
      ("UNIFORM low", "f10cc8e2a431b6272efba03b9d1dda35");
      ("UNIFORM high", "fcdfc0269fd1692fd428c6aeca30de30");
      ("HICON low", "a6e43d899696f869e25dd2dd47f2f78f");
      ("HICON high", "eb155f8a3a1bcae911ef0e7ddac9bd0b");
      ("PRIVATE low", "6783e59c78634f6688e14adb1b287821");
      ("PRIVATE high", "8d1f1ae7d3dff43e33cb4b844ccaee6e");
      ("INTERLEAVED-PRIVATE low", "df343d84f584b39dc34d7ff6c06df751");
      ("INTERLEAVED-PRIVATE high", "f415d33bfd396eb8276c873a2ed277a9");
      ("hot region smaller than trans_size", "a1c6804fe8ff2e40830a8d47c400d7e2");
      ("overlapping cold region fills up", "13edfb5c7f6ff5fa37010f4b665c1c08");
    ]
  in
  Alcotest.(check int) "case count" (List.length want) (List.length cases);
  List.iter
    (fun (name, params) ->
      Alcotest.(check string) name (List.assoc name want)
        (refstring_digest params))
    cases

(* --- Generic object-base workloads --------------------------------------- *)

(* Small bases keep the property battery fast; the structural
   invariants don't depend on population size. *)
let small_spec =
  QCheck.Gen.(
    int_range 50 3000 >>= fun objects ->
    int_range 1 (min 10 objects) >>= fun classes ->
    int_range 1 6 >>= fun fanout ->
    int_range 1 (min 12 objects) >>= fun depth ->
    return { Objbase.classes; objects; fanout; depth })

let arb_spec =
  QCheck.make small_spec ~print:(fun (s : Objbase.spec) ->
      Printf.sprintf "{classes=%d; objects=%d; fanout=%d; depth=%d}" s.classes
        s.objects s.fanout s.depth)

let prop_objbase_deterministic =
  QCheck.Test.make ~name:"objbase: same (spec, seed) builds identical base"
    ~count:30 arb_spec (fun spec ->
      let a = Objbase.generate spec ~seed:7 in
      let b = Objbase.generate spec ~seed:7 in
      a.Objbase.class_of = b.Objbase.class_of
      && a.Objbase.refs = b.Objbase.refs
      && a.Objbase.roots = b.Objbase.roots
      && a.Objbase.instances = b.Objbase.instances)

let prop_objbase_no_dangling =
  QCheck.Test.make ~name:"objbase: no dangling references, one level down"
    ~count:30 arb_spec (fun spec ->
      let b = Objbase.generate spec ~seed:11 in
      let n = Objbase.num_objects b in
      Array.for_all Fun.id
        (Array.mapi
           (fun obj targets ->
             Array.for_all
               (fun t ->
                 t >= 0 && t < n
                 && Objbase.level_of spec t = Objbase.level_of spec obj + 1)
               targets)
           b.Objbase.refs))

let prop_objbase_partition =
  QCheck.Test.make
    ~name:"objbase: class instances partition the population" ~count:30
    arb_spec (fun spec ->
      let b = Objbase.generate spec ~seed:3 in
      let total =
        Array.fold_left (fun acc m -> acc + Array.length m) 0
          b.Objbase.instances
      in
      total = Objbase.num_objects b
      && Array.length b.Objbase.roots > 0
      && Objbase.max_depth b <= spec.Objbase.depth)

let prop_placement_bijection =
  QCheck.Test.make ~name:"placement: every policy is a bijection" ~count:20
    arb_spec (fun spec ->
      let b = Objbase.generate spec ~seed:5 in
      List.for_all
        (fun policy ->
          let pos = Placement.layout policy b ~seed:9 in
          let sorted = Array.copy pos in
          Array.sort compare sorted;
          sorted = Array.init (Objbase.num_objects b) Fun.id)
        Placement.all)

let test_objbase_fanout_empirical () =
  let spec = { Objbase.classes = 10; objects = 5000; fanout = 3; depth = 8 } in
  let b = Objbase.generate spec ~seed:42 in
  let mean = Objbase.mean_fanout b in
  Alcotest.(check bool)
    (Printf.sprintf "mean fanout near 3 (got %.2f)" mean)
    true
    (mean > 2.6 && mean < 3.4);
  Alcotest.(check int) "max depth reaches the graph depth" 8
    (Objbase.max_depth b)

let test_placement_quality_ordering () =
  let spec = { Objbase.classes = 10; objects = 5000; fanout = 3; depth = 8 } in
  let b = Objbase.generate spec ~seed:42 in
  let q policy =
    let pos = Placement.layout policy b ~seed:1 in
    Placement.quality b ~pos ~objects_per_page:opp
  in
  let qd = q Placement.Dfs_ref and qs = q Placement.Scatter in
  Alcotest.(check bool)
    (Printf.sprintf "dfs quality %.3f beats scatter %.3f" qd qs)
    true (qd > qs +. 0.1);
  List.iter
    (fun policy ->
      let v = q policy in
      Alcotest.(check bool) "quality in [0,1]" true (v >= 0.0 && v <= 1.0))
    Placement.all

let test_placement_name_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Placement.of_string (Placement.name p) = Some p))
    Placement.all

(* --- Zipf ----------------------------------------------------------------- *)

let test_zipf_pmf_sums_to_one () =
  List.iter
    (fun theta ->
      let z = Zipf.make ~n:200 ~theta in
      let sum = ref 0.0 in
      for k = 0 to 199 do
        sum := !sum +. Zipf.pmf z k
      done;
      Alcotest.(check bool)
        (Printf.sprintf "pmf sums to 1 at theta %.1f" theta)
        true
        (abs_float (!sum -. 1.0) < 1e-9))
    [ 0.0; 0.8; 1.0; 2.5 ]

let test_zipf_uniform_at_zero () =
  let z = Zipf.make ~n:10 ~theta:0.0 in
  let rng = Simcore.Rng.create ~seed:17 in
  let counts = Array.make 10 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let k = Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "theta=0 rank %d drawn %d/10000 times (expected ~1000)"
          k c)
    counts

let test_zipf_skew_empirical () =
  let z = Zipf.make ~n:100 ~theta:1.2 in
  let rng = Simcore.Rng.create ~seed:23 in
  let counts = Array.make 100 0 in
  let draws = 20_000 in
  for _ = 1 to draws do
    let k = Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* Empirical frequency of the hottest rank matches its pmf within
     ±15% relative, and the ranking is hot-to-cold overall. *)
  let f0 = float_of_int counts.(0) /. float_of_int draws in
  let p0 = Zipf.pmf z 0 in
  Alcotest.(check bool)
    (Printf.sprintf "rank-0 frequency %.4f near pmf %.4f" f0 p0)
    true
    (abs_float (f0 -. p0) /. p0 < 0.15);
  Alcotest.(check bool) "rank 0 hotter than rank 50" true
    (counts.(0) > counts.(50))

let test_zipf_one_draw_either_way () =
  (* Exactly one RNG draw per sample regardless of theta: streams
     stay aligned when only the skew knob changes. *)
  let probe theta =
    let rng = Simcore.Rng.create ~seed:31 in
    let z = Zipf.make ~n:50 ~theta in
    ignore (Zipf.draw z rng);
    Simcore.Rng.int rng 1_000_000
  in
  Alcotest.(check int) "stream position independent of theta" (probe 0.0)
    (probe 2.0)

(* --- Generic transaction generation --------------------------------------- *)

let mk_generic ?(objects = 2_000) ?(policy = Placement.Dfs_ref) ?(theta = 0.0)
    ?mix ?(write_prob = 0.2) ?(seed = 5) () =
  Generic.make ~objects ~policy ~theta ?mix ~write_prob ~db_pages:cfg_db
    ~objects_per_page:opp ~seed ()

let prop_generic_ops_valid =
  QCheck.Test.make
    ~name:"generic: transactions are non-empty, distinct, within the db"
    ~count:60
    QCheck.(triple (int_range 0 2) (int_range 0 1) (int_range 0 100_000))
    (fun (policy_idx, theta_idx, seed) ->
      let policy = List.nth Placement.all policy_idx in
      let theta = if theta_idx = 0 then 0.0 else 0.8 in
      let g = mk_generic ~policy ~theta () in
      let rng = Simcore.Rng.create ~seed in
      let ops = Generic.generate g ~rng in
      let oids = Array.map fst ops in
      Array.length ops > 0
      && Array.for_all
           (fun (o : Ids.Oid.t) ->
             o.Ids.Oid.page >= 0 && o.Ids.Oid.page < cfg_db
             && o.Ids.Oid.slot >= 0 && o.Ids.Oid.slot < opp)
           oids
      && Array.length oids
         = List.length
             (List.sort_uniq Ids.Oid.compare (Array.to_list oids)))

let prop_generic_deterministic =
  QCheck.Test.make
    ~name:"generic: rebuilt description + same rng replays the same txn"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      (* Two independently built values of the same description — as two
         pool workers would build them — generate identical streams. *)
      let a = mk_generic ~theta:0.8 () and b = mk_generic ~theta:0.8 () in
      Generic.name a = Generic.name b
      && Generic.quality a = Generic.quality b
      && Generic.generate a ~rng:(Simcore.Rng.create ~seed)
         = Generic.generate b ~rng:(Simcore.Rng.create ~seed))

let test_generic_mix_extremes () =
  let rng = Simcore.Rng.create ~seed:77 in
  (* All-match mix: read-only transactions. *)
  let m =
    mk_generic ~mix:{ Generic.traversal = 0; match_ = 100; update = 0 } ()
  in
  for _ = 1 to 50 do
    let ops = Generic.generate m ~rng in
    Array.iter
      (fun (_, write) ->
        if write then Alcotest.fail "match transactions must be read-only")
      ops
  done;
  (* All-update mix: write-only transactions. *)
  let u =
    mk_generic ~mix:{ Generic.traversal = 0; match_ = 0; update = 100 } ()
  in
  for _ = 1 to 50 do
    let ops = Generic.generate u ~rng in
    Array.iter
      (fun (_, write) ->
        if not write then Alcotest.fail "update transactions must write")
      ops
  done;
  (* All-traversal at write_prob 0: reads only. *)
  let t =
    mk_generic
      ~mix:{ Generic.traversal = 100; match_ = 0; update = 0 }
      ~write_prob:0.0 ()
  in
  for _ = 1 to 50 do
    let ops = Generic.generate t ~rng in
    Array.iter
      (fun (_, write) ->
        if write then Alcotest.fail "wp=0 traversal must not write")
      ops
  done

let test_generic_refstring_dispatch () =
  (* Presets.ocb routes Refstring.generate through the generic
     generator: same rng seed, same ops. *)
  let params =
    Presets.ocb ~objects:2_000 ~db_pages:cfg_db ~objects_per_page:opp
      ~num_clients:4 ~write_prob:0.2 ~seed:5 ()
  in
  let g = Option.get params.Wparams.generic in
  let via_refstring =
    Refstring.generate ~rng:(Simcore.Rng.create ~seed:41) ~params ~client:2
      ~objects_per_page:opp
  in
  let direct = Generic.generate g ~rng:(Simcore.Rng.create ~seed:41) in
  Alcotest.(check int) "same length" (Array.length direct)
    (Array.length via_refstring);
  Array.iteri
    (fun i (op : Refstring.op) ->
      let oid, write = direct.(i) in
      if not (Ids.Oid.equal op.oid oid) || op.write <> write then
        Alcotest.fail "dispatch altered the generic stream")
    via_refstring

let test_generic_zipf_concentrates () =
  (* At theta=2 the update mix hammers few distinct objects; at
     theta=0 it spreads out.  Count distinct oids over many txns. *)
  let distinct theta =
    let g =
      mk_generic ~theta
        ~mix:{ Generic.traversal = 0; match_ = 0; update = 100 }
        ()
    in
    let rng = Simcore.Rng.create ~seed:13 in
    let seen = Hashtbl.create 512 in
    for _ = 1 to 200 do
      Array.iter (fun (o, _) -> Hashtbl.replace seen o ()) (Generic.generate g ~rng)
    done;
    Hashtbl.length seen
  in
  let hot = distinct 2.0 and flat = distinct 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "skewed update set %d well below uniform %d" hot flat)
    true
    (hot * 4 < flat)

(* --- Validation paths ------------------------------------------------------ *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rejects_with what substring f =
  match f () with
  | exception Invalid_argument msg ->
    if not (contains_substring msg substring) then
      Alcotest.failf "%s: error %S does not mention %S" what msg substring
  | _ -> Alcotest.failf "%s: accepted" what

let test_generic_validation_errors () =
  let mk ?classes ?objects ?fanout ?depth ?theta ?mix ?traversal_depth
      ?write_prob () =
    Generic.make ?classes ?objects ?fanout ?depth ?theta ?mix ?traversal_depth
      ?write_prob ~db_pages:cfg_db ~objects_per_page:opp ~seed:1 ()
  in
  rejects_with "zero fanout" "fan-out" (fun () -> mk ~fanout:0 ());
  rejects_with "huge fanout" "fan-out" (fun () -> mk ~fanout:65 ());
  rejects_with "zero depth" "depth" (fun () -> mk ~depth:0 ());
  rejects_with "classes > objects" "class count" (fun () ->
      mk ~classes:50 ~objects:10 ~depth:2 ());
  rejects_with "theta out of range" "Zipf" (fun () -> mk ~theta:5.0 ());
  rejects_with "empty mix" "mix" (fun () ->
      mk ~mix:{ Generic.traversal = 0; match_ = 0; update = 0 } ());
  rejects_with "negative mix" "mix" (fun () ->
      mk ~mix:{ Generic.traversal = -1; match_ = 2; update = 1 } ());
  rejects_with "traversal deeper than graph" "traversal depth" (fun () ->
      mk ~depth:4 ~traversal_depth:9 ());
  rejects_with "write_prob out of range" "write probability" (fun () ->
      mk ~write_prob:1.5 ());
  rejects_with "base exceeds database" "does not fit" (fun () ->
      mk ~objects:((cfg_db * opp) + 1) ())

let test_arrival_validation_errors () =
  rejects_with "amp 1.0" "amplitude" (fun () ->
      Arrival.validate
        { Arrival.off with Arrival.diurnal_period = 10.0; diurnal_amp = 1.0 });
  rejects_with "amp without period" "period" (fun () ->
      Arrival.validate { Arrival.off with Arrival.diurnal_amp = 0.5 });
  rejects_with "boost 200" "boost" (fun () ->
      Arrival.validate
        { Arrival.off with Arrival.flash_duration = 5.0; flash_boost = 200.0 });
  rejects_with "negative period" "period" (fun () ->
      Arrival.validate { Arrival.off with Arrival.diurnal_period = -1.0 })

let test_arrival_shapes () =
  Alcotest.(check (float 1e-12)) "off is identity" 1.0
    (Arrival.rate_factor Arrival.off ~now:123.0);
  let a =
    {
      Arrival.diurnal_period = 40.0;
      diurnal_amp = 0.5;
      flash_at = 100.0;
      flash_duration = 10.0;
      flash_boost = 3.0;
    }
  in
  Arrival.validate a;
  Alcotest.(check (float 1e-9)) "diurnal peak" 1.5
    (Arrival.rate_factor a ~now:10.0);
  Alcotest.(check (float 1e-9)) "diurnal trough" 0.5
    (Arrival.rate_factor a ~now:30.0);
  (* now=100: diurnal sin(5*pi)=0, inside the flash window -> 3x. *)
  Alcotest.(check (float 1e-9)) "flash window boosts" 3.0
    (Arrival.rate_factor a ~now:100.0);
  (* now=110: the window [100,110) is over; diurnal trough again. *)
  Alcotest.(check (float 1e-9)) "flash window closes" 0.5
    (Arrival.rate_factor a ~now:110.0);
  Alcotest.(check (float 1e-9)) "think divides by the factor" 2.0
    (Arrival.think a ~base:3.0 ~now:10.0)

let test_preset_capacity_rejection () =
  (* The PR-8 population bound still produces its friendly error when
     reached through the unchanged preset path. *)
  rejects_with "HOTCOLD capacity" "at most" (fun () ->
      Presets.make Presets.Hotcold ~db_pages:cfg_db ~objects_per_page:opp
        ~num_clients:26 ~locality:Presets.Low ~write_prob:0.1);
  rejects_with "ocb population fits" "does not fit" (fun () ->
      Presets.ocb ~objects:((cfg_db * opp) + 1) ~db_pages:cfg_db
        ~objects_per_page:opp ~num_clients:5 ~write_prob:0.1 ())

let suite =
  [
    Alcotest.test_case "distinct pages" `Quick test_distinct_pages;
    Alcotest.test_case "locality range" `Quick test_locality_range;
    Alcotest.test_case "objects distinct" `Quick test_objects_distinct;
    Alcotest.test_case "write probability extremes" `Quick
      test_write_probability_extremes;
    Alcotest.test_case "clustered pattern" `Quick test_clustered_pattern;
    Alcotest.test_case "hot/cold split" `Quick test_hot_cold_split;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "PRIVATE cold is read-only" `Quick
      test_private_cold_read_only;
    Alcotest.test_case "PRIVATE hot regions disjoint" `Quick
      test_private_hot_disjoint;
    Alcotest.test_case "average objects per txn" `Quick test_avg_objects_per_txn;
    Alcotest.test_case "interleave: cold unchanged" `Quick
      test_interleave_cold_unchanged;
    Alcotest.test_case "interleave: combined region halves" `Quick
      test_interleave_combined_region;
    Alcotest.test_case "interleave: injective" `Quick test_interleave_injective;
    Alcotest.test_case "interleave: doubles pages" `Quick
      test_interleave_doubles_pages;
    QCheck_alcotest.to_alcotest prop_interleave_in_range;
    Alcotest.test_case "validate rejects bad region" `Quick
      test_validate_rejects_bad_region;
    Alcotest.test_case "validate rejects big locality" `Quick
      test_validate_rejects_big_locality;
    Alcotest.test_case "validate rejects bad think time" `Quick
      test_validate_rejects_bad_think;
    Alcotest.test_case "preset regions" `Quick test_preset_regions;
    Alcotest.test_case "preset scaling" `Quick test_preset_scaling;
    Alcotest.test_case "preset per-client sharing" `Quick test_preset_sharing;
    Alcotest.test_case "preset name roundtrip" `Quick test_name_roundtrip;
    QCheck_alcotest.to_alcotest prop_refstring_within_db;
    Alcotest.test_case "refstring digests pinned" `Quick test_refstring_digests;
    QCheck_alcotest.to_alcotest prop_objbase_deterministic;
    QCheck_alcotest.to_alcotest prop_objbase_no_dangling;
    QCheck_alcotest.to_alcotest prop_objbase_partition;
    QCheck_alcotest.to_alcotest prop_placement_bijection;
    Alcotest.test_case "objbase: empirical fanout and depth" `Quick
      test_objbase_fanout_empirical;
    Alcotest.test_case "placement: quality ordering" `Quick
      test_placement_quality_ordering;
    Alcotest.test_case "placement: name roundtrip" `Quick
      test_placement_name_roundtrip;
    Alcotest.test_case "zipf: pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
    Alcotest.test_case "zipf: uniform at theta 0" `Quick
      test_zipf_uniform_at_zero;
    Alcotest.test_case "zipf: empirical skew" `Quick test_zipf_skew_empirical;
    Alcotest.test_case "zipf: one rng draw either way" `Quick
      test_zipf_one_draw_either_way;
    QCheck_alcotest.to_alcotest prop_generic_ops_valid;
    QCheck_alcotest.to_alcotest prop_generic_deterministic;
    Alcotest.test_case "generic: mix extremes" `Quick test_generic_mix_extremes;
    Alcotest.test_case "generic: refstring dispatch" `Quick
      test_generic_refstring_dispatch;
    Alcotest.test_case "generic: zipf concentrates updates" `Quick
      test_generic_zipf_concentrates;
    Alcotest.test_case "generic: validation errors" `Quick
      test_generic_validation_errors;
    Alcotest.test_case "arrival: validation errors" `Quick
      test_arrival_validation_errors;
    Alcotest.test_case "arrival: traffic shapes" `Quick test_arrival_shapes;
    Alcotest.test_case "presets: capacity rejections" `Quick
      test_preset_capacity_rejection;
  ]
