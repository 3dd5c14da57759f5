open Storage

(* --- Ids --------------------------------------------------------------- *)

let test_oid_roundtrip () =
  let o = Ids.Oid.make ~page:7 ~slot:13 in
  let i = Ids.Oid.to_int ~objects_per_page:20 o in
  Alcotest.(check int) "encoding" 153 i;
  let o' = Ids.Oid.of_int ~objects_per_page:20 i in
  Alcotest.(check bool) "roundtrip" true (Ids.Oid.equal o o')

let test_oid_compare () =
  let a = Ids.Oid.make ~page:1 ~slot:5 in
  let b = Ids.Oid.make ~page:2 ~slot:0 in
  let c = Ids.Oid.make ~page:1 ~slot:6 in
  Alcotest.(check bool) "page dominates" true (Ids.Oid.compare a b < 0);
  Alcotest.(check bool) "slot breaks ties" true (Ids.Oid.compare a c < 0);
  Alcotest.(check bool) "equal" true (Ids.Oid.compare a a = 0)

let test_oid_invalid () =
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Ids.Oid.make ~page:(-1) ~slot:0);
       false
     with Invalid_argument _ -> true)

(* --- LRU --------------------------------------------------------------- *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Alcotest.(check (option (pair int string))) "evict none" None (Lru.add c 1 "a");
  Alcotest.(check (option (pair int string))) "evict none" None (Lru.add c 2 "b");
  Alcotest.(check (option string)) "find" (Some "a") (Lru.find c 1);
  Alcotest.(check int) "size" 2 (Lru.size c)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  (* 1 is LRU; adding 3 evicts it *)
  (match Lru.add c 3 "c" with
  | Some (k, v) ->
    Alcotest.(check int) "victim key" 1 k;
    Alcotest.(check string) "victim value" "a" v
  | None -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "victim gone" false (Lru.mem c 1)

let test_lru_touch_changes_victim () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  ignore (Lru.find c 1);
  (* touch 1: now 2 is LRU *)
  (match Lru.add c 3 "c" with
  | Some (k, _) -> Alcotest.(check int) "victim is 2" 2 k
  | None -> Alcotest.fail "expected eviction")

let test_lru_peek_no_touch () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  ignore (Lru.peek c 1);
  (* peek must NOT protect 1 *)
  (match Lru.add c 3 "c" with
  | Some (k, _) -> Alcotest.(check int) "victim still 1" 1 k
  | None -> Alcotest.fail "expected eviction")

let test_lru_replace_existing () =
  let c = Lru.create ~capacity:2 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 1 "a2");
  Alcotest.(check int) "no growth" 1 (Lru.size c);
  Alcotest.(check (option string)) "replaced" (Some "a2") (Lru.peek c 1)

let test_lru_remove () =
  let c = Lru.create ~capacity:3 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  Alcotest.(check (option string)) "removed value" (Some "a") (Lru.remove c 1);
  Alcotest.(check (option string)) "absent" None (Lru.remove c 1);
  Alcotest.(check int) "size" 1 (Lru.size c);
  (* removal must not corrupt the recency list *)
  ignore (Lru.add c 3 "c");
  ignore (Lru.add c 4 "d");
  (match Lru.add c 5 "e" with
  | Some (k, _) -> Alcotest.(check int) "victim is 2" 2 k
  | None -> Alcotest.fail "expected eviction")

let test_lru_to_list_order () =
  let c = Lru.create ~capacity:3 in
  ignore (Lru.add c 1 "a");
  ignore (Lru.add c 2 "b");
  ignore (Lru.add c 3 "c");
  ignore (Lru.find c 1);
  Alcotest.(check (list int)) "MRU first" [ 1; 3; 2 ]
    (List.map fst (Lru.to_list c))

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  ignore (Lru.add c 1 "a");
  (match Lru.add c 2 "b" with
  | Some (1, "a") -> ()
  | _ -> Alcotest.fail "expected eviction of 1");
  Alcotest.(check bool) "2 present" true (Lru.mem c 2)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 10) (list (int_range 0 30)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.for_all
        (fun k ->
          ignore (Lru.add c k k);
          Lru.size c <= cap)
        keys)

let prop_lru_eviction_is_lru =
  QCheck.Test.make ~name:"lru evicts the least recently used key" ~count:200
    QCheck.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      (* Track recency with a reference list (MRU at head). *)
      let recency = ref [] in
      List.for_all
        (fun k ->
          ignore (Lru.add c k k);
          recency := k :: List.filter (fun x -> x <> k) !recency;
          (* After each step the cache holds exactly the reference
             model's [cap] most recent keys. *)
          let expect = List.filteri (fun i _ -> i < cap) !recency in
          recency := expect;
          List.for_all (Lru.mem c) expect && Lru.size c = List.length expect)
        keys)

(* Mixed operations against a list reference model, at capacities and
   key ranges large enough that the table grows through several resizes
   from its initial size. *)
type lru_op =
  | Add of int * int
  | Find of int
  | Touch of int
  | Remove of int
  | Peek of int

let lru_op_gen =
  QCheck.Gen.(
    let key = int_range 0 2000 in
    frequency
      [
        (4, map2 (fun k v -> Add (k, v)) key nat);
        (2, map (fun k -> Find k) key);
        (1, map (fun k -> Touch k) key);
        (1, map (fun k -> Remove k) key);
        (1, map (fun k -> Peek k) key);
      ])

let prop_lru_matches_reference =
  QCheck.Test.make ~name:"lru matches a list model as its table grows"
    ~count:30
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d, %d ops" cap (List.length ops))
       QCheck.Gen.(
         pair (int_range 1 600)
           (int_range 2000 5000 >>= fun n -> list_repeat n lru_op_gen)))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      (* Bindings in recency order, most recently used first. *)
      let model = ref [] in
      let promote k v = model := (k, v) :: List.remove_assoc k !model in
      let step i op =
        let ok =
          match op with
          | Add (k, v) ->
            let expect =
              if List.mem_assoc k !model then (
                promote k v;
                None)
              else begin
                model := (k, v) :: !model;
                if List.length !model <= cap then None
                else
                  match List.rev !model with
                  | victim :: rest ->
                    model := List.rev rest;
                    Some victim
                  | [] -> assert false
              end
            in
            Lru.add c k v = expect
          | Find k ->
            let expect = List.assoc_opt k !model in
            Option.iter (promote k) expect;
            Lru.find c k = expect
          | Touch k ->
            Option.iter (promote k) (List.assoc_opt k !model);
            Lru.touch c k;
            true
          | Remove k ->
            let expect = List.assoc_opt k !model in
            model := List.remove_assoc k !model;
            Lru.remove c k = expect
          | Peek k -> Lru.peek c k = List.assoc_opt k !model
        in
        ok
        && Lru.size c = List.length !model
        && (i land 63 <> 0 || Lru.to_list c = !model)
      in
      let rec run i = function
        | [] -> Lru.to_list c = !model
        | op :: rest -> step i op && run (i + 1) rest
      in
      run 0 ops)

(* --- Buffer pool -------------------------------------------------------- *)

let test_pool_hit_miss () =
  let p = Buffer_pool.create ~capacity:2 in
  (match Buffer_pool.access p 1 with
  | Buffer_pool.Miss None -> ()
  | _ -> Alcotest.fail "expected cold miss");
  (match Buffer_pool.access p 1 with
  | Buffer_pool.Hit -> ()
  | _ -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "resident" true (Buffer_pool.resident p 1)

let test_pool_eviction_dirty () =
  let p = Buffer_pool.create ~capacity:2 in
  ignore (Buffer_pool.access p 1);
  ignore (Buffer_pool.access p 2);
  Buffer_pool.mark_dirty p 1;
  ignore (Buffer_pool.access p 2);
  (* touch 2 so 1 is LRU *)
  (match Buffer_pool.access p 3 with
  | Buffer_pool.Miss (Some (1, true)) -> ()
  | Buffer_pool.Miss (Some (v, d)) ->
    Alcotest.failf "wrong victim %d dirty=%b" v d
  | _ -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "victim gone" false (Buffer_pool.resident p 1)

let test_pool_clean () =
  let p = Buffer_pool.create ~capacity:2 in
  ignore (Buffer_pool.access p 1);
  Buffer_pool.mark_dirty p 1;
  Alcotest.(check bool) "dirty" true (Buffer_pool.is_dirty p 1);
  Buffer_pool.clean p 1;
  Alcotest.(check bool) "clean" false (Buffer_pool.is_dirty p 1);
  Alcotest.(check int) "dirty count" 0 (Buffer_pool.dirty_count p)

let test_pool_mark_dirty_absent () =
  let p = Buffer_pool.create ~capacity:2 in
  Alcotest.(check bool) "absent mark rejected" true
    (try
       Buffer_pool.mark_dirty p 9;
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "oid roundtrip" `Quick test_oid_roundtrip;
    Alcotest.test_case "oid compare" `Quick test_oid_compare;
    Alcotest.test_case "oid invalid" `Quick test_oid_invalid;
    Alcotest.test_case "lru basic" `Quick test_lru_basic;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru touch changes victim" `Quick test_lru_touch_changes_victim;
    Alcotest.test_case "lru peek does not touch" `Quick test_lru_peek_no_touch;
    Alcotest.test_case "lru replace existing" `Quick test_lru_replace_existing;
    Alcotest.test_case "lru remove" `Quick test_lru_remove;
    Alcotest.test_case "lru to_list order" `Quick test_lru_to_list_order;
    Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
    QCheck_alcotest.to_alcotest prop_lru_never_exceeds_capacity;
    QCheck_alcotest.to_alcotest prop_lru_eviction_is_lru;
    QCheck_alcotest.to_alcotest prop_lru_matches_reference;
    Alcotest.test_case "pool hit/miss" `Quick test_pool_hit_miss;
    Alcotest.test_case "pool dirty eviction" `Quick test_pool_eviction_dirty;
    Alcotest.test_case "pool clean" `Quick test_pool_clean;
    Alcotest.test_case "pool mark_dirty absent" `Quick test_pool_mark_dirty_absent;
  ]
