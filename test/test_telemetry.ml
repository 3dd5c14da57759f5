(* Telemetry hardening: histogram quantile/merge properties, timeline
   ring semantics, Perfetto exporter conformance, and the golden
   byte-identity guarantee (timeline + percentiles on must not perturb
   the simulation). *)

open Oodb_core
module H = Telemetry.Histogram
module T = Telemetry.Timeline

(* --- Histogram units --------------------------------------------------- *)

let test_bucket_bounds () =
  let h = H.create () in
  for i = 0 to H.num_buckets h - 2 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "bucket %d upper edge = bucket %d lower edge" i (i + 1))
      (H.bucket_hi h i)
      (H.bucket_lo h (i + 1))
  done;
  let g = H.growth_factor h in
  Alcotest.(check bool)
    "growth factor ~ 2.6% for 90 buckets/decade" true
    (g > 1.02 && g < 1.03);
  for i = 0 to H.num_buckets h - 1 do
    let ratio = H.bucket_hi h i /. H.bucket_lo h i in
    if abs_float (ratio -. g) > 1e-9 then
      Alcotest.failf "bucket %d width ratio %.12f <> growth factor %.12f" i
        ratio g
  done

let test_empty () =
  let h = H.create () in
  Alcotest.(check bool) "empty" true (H.is_empty h);
  Alcotest.(check int) "count 0" 0 (H.count h);
  (* 0.0, not nan: Runner.result values are compared with structural
     equality in the determinism tests, and nan <> nan. *)
  Alcotest.(check (float 0.0)) "quantile of empty is 0" 0.0 (H.quantile h 0.5);
  Alcotest.(check (float 0.0)) "mean of empty is 0" 0.0 (H.mean h);
  Alcotest.(check (float 0.0)) "min of empty is 0" 0.0 (H.min_value h)

let test_single_value () =
  let h = H.create () in
  H.record h 0.0123;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "q=%.2f of a single sample is that sample" q)
        0.0123 (H.quantile h q))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ]

let test_out_of_range_exact () =
  let h = H.create () in
  H.record h 1e-9;
  Alcotest.(check (float 0.0)) "underflow reports exact min" 1e-9
    (H.quantile h 0.5);
  let h2 = H.create () in
  H.record h2 5e4;
  Alcotest.(check (float 0.0)) "overflow reports exact max" 5e4
    (H.quantile h2 0.5);
  let h3 = H.create () in
  H.record h3 (-3.0);
  Alcotest.(check int) "negative sample recorded (clamped)" 1 (H.count h3);
  Alcotest.(check (float 0.0)) "negative clamps to 0" 0.0 (H.min_value h3);
  H.record h3 nan;
  Alcotest.(check int) "NaN dropped" 1 (H.count h3)

let test_merge_geometry_mismatch () =
  let a = H.create () and b = H.create ~buckets_per_decade:10 () in
  Alcotest.check_raises "geometry mismatch rejected"
    (Invalid_argument "Histogram.merge: bucket geometries differ") (fun () ->
      H.merge ~into:a b)

let test_reset_and_copy () =
  let h = H.create () in
  List.iter (H.record h) [ 0.001; 0.01; 0.1 ];
  let c = H.copy h in
  H.record h 1.0;
  Alcotest.(check int) "copy is independent" 3 (H.count c);
  Alcotest.(check int) "original keeps recording" 4 (H.count h);
  H.reset h;
  Alcotest.(check bool) "reset empties" true (H.is_empty h);
  Alcotest.(check (float 0.0)) "reset quantile 0" 0.0 (H.quantile h 0.9)

(* --- Histogram properties (QCheck) ------------------------------------ *)

(* Log-uniform samples spanning the full regular bucket range
   [lo, hi) = [1e-6, 1e4). *)
let sample_gen =
  QCheck.map (fun u -> 1e-6 *. (10.0 ** (u *. 10.0)))
    (QCheck.float_bound_exclusive 1.0)

let samples_gen lo hi =
  QCheck.list_of_size (QCheck.Gen.int_range lo hi) sample_gen

let exact_quantile sorted q =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  sorted.(r - 1)

let prop_quantile_vs_exact =
  QCheck.Test.make ~name:"histogram quantile within one bucket of exact"
    ~count:300 (samples_gen 1 300) (fun xs ->
      let h = H.create () in
      List.iter (H.record h) xs;
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let g = H.growth_factor h in
      List.for_all
        (fun q ->
          let exact = exact_quantile sorted q in
          let est = H.quantile h q in
          (* One bucket of relative error, plus float slop for samples
             landing within an ulp of a bucket edge. *)
          est >= exact *. (1.0 -. 1e-9) && est <= exact *. g *. (1.0 +. 1e-9))
        [ 0.0; 0.1; 0.5; 0.9; 0.95; 0.99; 1.0 ])

let same_estimates a b =
  H.count a = H.count b
  && H.min_value a = H.min_value b
  && H.max_value a = H.max_value b
  && List.for_all (fun q -> H.quantile a q = H.quantile b q)
       [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
  &&
  let buckets h =
    let acc = ref [] in
    H.iter_buckets h (fun ~lo ~hi ~count -> acc := (lo, hi, count) :: !acc);
    !acc
  in
  buckets a = buckets b

let of_list xs =
  let h = H.create () in
  List.iter (H.record h) xs;
  h

let prop_merge_associative_commutative =
  QCheck.Test.make
    ~name:"merge associative + commutative + record-order invariant"
    ~count:200
    (QCheck.triple (samples_gen 0 60) (samples_gen 0 60) (samples_gen 0 60))
    (fun (a, b, c) ->
      (* (a+b)+c vs a+(b+c) *)
      let ab_c =
        let h = of_list a in
        H.merge ~into:h (of_list b);
        H.merge ~into:h (of_list c);
        h
      in
      let a_bc =
        let bc = of_list b in
        H.merge ~into:bc (of_list c);
        let h = of_list a in
        H.merge ~into:h bc;
        h
      in
      (* b+a vs a+b *)
      let ba =
        let h = of_list b in
        H.merge ~into:h (of_list a);
        h
      in
      let ab =
        let h = of_list a in
        H.merge ~into:h (of_list b);
        h
      in
      (* recording the concatenation directly, in either order *)
      let rec_ab = of_list (a @ b) and rec_ba = of_list (b @ a) in
      same_estimates ab_c a_bc && same_estimates ba ab
      && same_estimates rec_ab ab
      && same_estimates rec_ba ab)

(* --- Timeline ring ----------------------------------------------------- *)

let test_ring_wrap () =
  let t = T.create ~capacity:8 () in
  let trk = T.define_track t "trk" in
  let n = T.intern t "tick" in
  for i = 1 to 20 do
    T.instant t ~track:trk ~name:n (float_of_int i)
  done;
  Alcotest.(check int) "recorded counts everything" 20 (T.recorded t);
  Alcotest.(check int) "length capped at capacity" 8 (T.length t);
  Alcotest.(check int) "dropped = recorded - length" 12 (T.dropped t);
  let times = ref [] in
  T.iter t (fun ~kind:_ ~track:_ ~name:_ ~arg:_ ~t0 ~t1:_ ->
      times := t0 :: !times);
  Alcotest.(check (list (float 0.0)))
    "iter yields the tail, oldest first"
    [ 13.; 14.; 15.; 16.; 17.; 18.; 19.; 20. ]
    (List.rev !times);
  Alcotest.(check (float 0.0)) "last_time" 20.0 (T.last_time t);
  T.clear t;
  Alcotest.(check int) "clear empties" 0 (T.length t)

let test_span_entries () =
  let t = T.create ~capacity:16 () in
  let trk = T.define_track t "a" in
  let nm = T.intern t "work" in
  T.span_begin t ~track:trk ~name:nm ~arg:7 1.0;
  T.span_end t ~track:trk 2.5;
  T.complete t ~track:trk ~name:nm ~t0:3.0 ~t1:4.0 ();
  let seen = ref [] in
  T.iter t (fun ~kind ~track ~name ~arg ~t0 ~t1 ->
      seen := (kind, track, name, arg, t0, t1) :: !seen);
  match List.rev !seen with
  | [ (T.Begin, _, n1, 7, 1.0, _); (T.End, _, _, _, 2.5, _);
      (T.Complete, _, n2, -1, 3.0, 4.0) ] ->
    Alcotest.(check string) "interned name survives" "work" (T.name_of t n1);
    Alcotest.(check int) "complete reuses the interned id" n1 n2
  | l -> Alcotest.failf "unexpected entry sequence (%d entries)" (List.length l)

let test_dump_format () =
  let t = T.create ~capacity:4 () in
  let trk = T.define_track t "server" in
  let nm = T.intern t "commit" in
  T.instant t ~track:trk ~name:nm ~arg:42 1.25;
  let d = T.dump t in
  Alcotest.(check bool) "dump has header" true
    (String.length d > 0 && String.sub d 0 9 = "timeline:");
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "dump names the track" true (contains d "server");
  Alcotest.(check bool) "dump names the event" true (contains d "commit")

(* --- Minimal JSON parser (no JSON library in the image) ---------------- *)

type json =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JList of json list
  | JObj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
        | Some (('"' | '\\' | '/') as c) -> advance (); Buffer.add_char buf c; go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_char buf (if code < 128 then Char.chr code else '?');
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); JObj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); JObj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); JList [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); JList (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
    | Some '"' -> JStr (parse_string ())
    | Some 't' -> literal "true" (JBool true)
    | Some 'f' -> literal "false" (JBool false)
    | Some 'n' -> literal "null" JNull
    | Some _ -> JNum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field o k =
  match o with
  | JObj kvs -> List.assoc_opt k kvs
  | _ -> None

let str_field o k =
  match obj_field o k with Some (JStr s) -> Some s | _ -> None

let num_field o k =
  match obj_field o k with Some (JNum f) -> Some f | _ -> None

(* --- Perfetto exporter units ------------------------------------------ *)

let trace_events json =
  match obj_field json "traceEvents" with
  | Some (JList evs) -> evs
  | _ -> Alcotest.fail "trace has no traceEvents array"

let test_export_unclosed_begin () =
  let t = T.create ~capacity:16 () in
  let trk = T.define_track t "c" in
  let nm = T.intern t "txn" in
  T.span_begin t ~track:trk ~name:nm 1.0;
  T.instant t ~track:trk ~name:nm 5.0;
  let json = parse_json (Telemetry.Perfetto.to_json t) in
  let evs = trace_events json in
  let bs, es =
    List.fold_left
      (fun (b, e) ev ->
        match str_field ev "ph" with
        | Some "B" -> (b + 1, e)
        | Some "E" -> (b, e + 1)
        | _ -> (b, e))
      (0, 0) evs
  in
  Alcotest.(check int) "one B" 1 bs;
  Alcotest.(check int) "synthetic E closes it" 1 es;
  (* The synthetic end lands at the latest recorded time (5.0 s). *)
  let last_e =
    List.filter (fun ev -> str_field ev "ph" = Some "E") evs |> List.rev
    |> List.hd
  in
  Alcotest.(check (float 1e-6))
    "synthetic end at last_time (us)" 5e6
    (Option.get (num_field last_e "ts"))

let test_export_orphan_end_dropped () =
  let t = T.create ~capacity:4 () in
  let trk = T.define_track t "c" in
  let nm = T.intern t "txn" in
  T.span_begin t ~track:trk ~name:nm 1.0;
  (* Push the Begin out of the ring... *)
  for i = 2 to 6 do
    T.instant t ~track:trk ~name:nm (float_of_int i)
  done;
  (* ...then close it: the End's Begin is gone. *)
  T.span_end t ~track:trk 7.0;
  let json = parse_json (Telemetry.Perfetto.to_json t) in
  let evs = trace_events json in
  List.iter
    (fun ev ->
      match str_field ev "ph" with
      | Some "E" -> Alcotest.fail "orphan E leaked into the trace"
      | Some "B" -> Alcotest.fail "overwritten B leaked into the trace"
      | _ -> ())
    evs

(* --- Exporter conformance on a crash-storm run ------------------------- *)

(* Validate the whole pipeline on a run where recovery epochs matter:
   crash storms open "down" spans, transactions abort mid-flight, the
   ring wraps.  The trace must still be valid JSON with matched,
   non-overlapping, monotone spans per track. *)
let conformance_run () =
  let spec = Option.get (Experiments.find "fig3") in
  let cfg =
    {
      (Experiments.cfg_of spec) with
      Config.timeline = true;
      faults = Faults.storm ~rate:0.05;
    }
  in
  let params = Experiments.params_of spec ~write_prob:0.1 in
  let job =
    Job.make ~sweep:"telemetry-conformance" ~label:"storm" ~cfg
      ~algo:Algo.PS_OO ~params ~warmup:3.0 ~measure:25.0 ()
  in
  Job.run job

let test_exporter_conformance () =
  let r = conformance_run () in
  let tl =
    match r.Runner.timeline with
    | Some t -> t
    | None -> Alcotest.fail "cfg.timeline did not attach a recorder"
  in
  Alcotest.(check bool) "storm produced crashes" true (r.Runner.crashes > 0);
  let json = parse_json (Telemetry.Perfetto.to_json tl) in
  let evs = trace_events json in
  Alcotest.(check bool) "trace has events" true (List.length evs > 100);
  (* Per-track scan, in array order: monotone timestamps, balanced
     B/E nesting, serialized X spans.  %.3f-us printing can reorder
     equal-to-within-a-nanosecond stamps, hence the epsilon. *)
  let eps = 0.01 (* us *) in
  let by_tid = Hashtbl.create 32 in
  let down_spans = ref 0 in
  List.iter
    (fun ev ->
      match (str_field ev "ph", num_field ev "tid") with
      | Some "M", _ -> ()
      | Some ph, Some tid ->
        let ts =
          match num_field ev "ts" with
          | Some ts -> ts
          | None -> Alcotest.failf "event without ts (ph=%s)" ph
        in
        if ph = "B" && str_field ev "name" = Some "down" then
          incr down_spans;
        let last_ts, depth, busy_until =
          match Hashtbl.find_opt by_tid tid with
          | Some s -> s
          | None -> (neg_infinity, 0, neg_infinity)
        in
        if ts < last_ts -. eps then
          Alcotest.failf "tid %.0f: ts %.3f precedes %.3f" tid ts last_ts;
        let depth =
          match ph with
          | "B" -> depth + 1
          | "E" ->
            if depth = 0 then
              Alcotest.failf "tid %.0f: E with no open B at %.3f" tid ts;
            depth - 1
          | _ -> depth
        in
        let busy_until =
          if ph = "X" then begin
            let dur =
              match num_field ev "dur" with
              | Some d -> d
              | None -> Alcotest.failf "X without dur at %.3f" ts
            in
            if ts < busy_until -. eps then
              Alcotest.failf "tid %.0f: X at %.3f overlaps busy-until %.3f"
                tid ts busy_until;
            ts +. dur
          end
          else busy_until
        in
        Hashtbl.replace by_tid tid (ts, depth, busy_until)
      | _ -> Alcotest.fail "event without ph/tid")
    evs;
  Hashtbl.iter
    (fun tid (_, depth, _) ->
      if depth <> 0 then
        Alcotest.failf "tid %.0f: %d spans left open after synthetic closes"
          tid depth)
    by_tid;
  Alcotest.(check bool) "crash recovery epochs appear as down spans" true
    (!down_spans > 0)

(* --- Golden byte-identity with telemetry on ---------------------------- *)

(* The timeline recorder, like the oracle, is pure observation.  The
   fig3 reference point must render byte-identically to the golden
   capture with the recorder attached and percentiles computed. *)
let test_timeline_on_byte_identity () =
  let series =
    Grid.run ~timeline:true ~jobs:1 (Grid.fig3_point ())
  in
  Alcotest.(check string)
    "timeline on: fig3 reference point is byte-identical to telemetry off"
    Test_faults.golden_fig3_point
    (Test_faults.render_series series);
  (* And the recorder did actually run. *)
  List.iter
    (fun (p : Experiments.point) ->
      List.iter
        (fun ((a : Algo.t), (r : Runner.result)) ->
          match r.Runner.timeline with
          | Some tl ->
            if T.recorded tl = 0 then
              Alcotest.failf "%s: timeline attached but empty"
                (Algo.to_string a)
          | None ->
            Alcotest.failf "%s: no timeline attached" (Algo.to_string a))
        p.Experiments.results)
    series.Experiments.points;
  (* Percentile fields are derived from the same run: sane and ordered. *)
  let _, (r : Runner.result) =
    List.hd (List.hd series.Experiments.points).Experiments.results
  in
  Alcotest.(check bool) "p50 <= p90 <= p99 <= max" true
    (r.Runner.resp_p50 <= r.Runner.resp_p90
    && r.Runner.resp_p90 <= r.Runner.resp_p99
    && r.Runner.resp_p99
       <= H.max_value r.Runner.hists.Metrics.h_response +. 1e-12)

let suite =
  [
    Alcotest.test_case "histogram bucket bounds" `Quick test_bucket_bounds;
    Alcotest.test_case "histogram empty edges" `Quick test_empty;
    Alcotest.test_case "histogram single value" `Quick test_single_value;
    Alcotest.test_case "histogram out-of-range exact" `Quick
      test_out_of_range_exact;
    Alcotest.test_case "histogram merge geometry mismatch" `Quick
      test_merge_geometry_mismatch;
    Alcotest.test_case "histogram reset and copy" `Quick test_reset_and_copy;
    QCheck_alcotest.to_alcotest prop_quantile_vs_exact;
    QCheck_alcotest.to_alcotest prop_merge_associative_commutative;
    Alcotest.test_case "timeline ring wrap" `Quick test_ring_wrap;
    Alcotest.test_case "timeline span entries" `Quick test_span_entries;
    Alcotest.test_case "timeline dump format" `Quick test_dump_format;
    Alcotest.test_case "perfetto closes unclosed spans" `Quick
      test_export_unclosed_begin;
    Alcotest.test_case "perfetto drops orphan ends" `Quick
      test_export_orphan_end_dropped;
    Alcotest.test_case "perfetto conformance under crash storm" `Slow
      test_exporter_conformance;
    Alcotest.test_case "timeline-on golden byte-identity" `Slow
      test_timeline_on_byte_identity;
  ]
