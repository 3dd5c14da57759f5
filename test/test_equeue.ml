open Simcore

(* The Equeue contract the engine's determinism rests on: entries drain
   in exact (time, seq) lexicographic order, whatever mix of heap
   (push_at) and ring (push_now) entries is queued, including ties at
   the same timestamp. *)

let test_arbitration () =
  let q = Equeue.create () in
  let log = ref [] in
  let tag id () = log := id :: !log in
  ignore (Equeue.push_at q ~time:1.0 (tag "h1") : int);
  ignore (Equeue.push_now q (tag "r0") : int);
  (* Same instant as the ring entry but a later seq: must pop after. *)
  ignore (Equeue.push_at q ~time:0.0 (tag "h0") : int);
  ignore (Equeue.push_now q (tag "r1") : int);
  Equeue.drain q;
  Alcotest.(check (list string))
    "(time, seq) arbitration" [ "r0"; "h0"; "r1"; "h1" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last pop" 1.0 (Equeue.clock q)

let test_ring_guard () =
  let q = Equeue.create () in
  Equeue.set_clock q 5.0;
  ignore (Equeue.push_now q (fun () -> ()) : int);
  Equeue.set_clock q 1.0;
  Alcotest.(check bool) "receded clock rejected" true
    (try
       ignore (Equeue.push_now q (fun () -> ()) : int);
       false
     with Invalid_argument _ -> true)

(* Reference model: the live set as an association list; pop takes the
   minimum by (time, seq).  The property drives the queue with a random
   script of tie-heavy pushes (offsets 0..3 seconds, so many entries
   share a timestamp), zero-delay pushes interleaved with pops, then
   drains, checking every popped id and the clock against the model. *)
let prop_drain_order =
  QCheck.Test.make ~name:"equeue drains in exact (time, seq) order"
    ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 3)))
    (fun ops ->
      let q = Equeue.create () in
      let live = ref [] in (* (time, seq, id) *)
      let log = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      let fresh () =
        let id = !next_id in
        incr next_id;
        id
      in
      let do_pop () =
        if not (Equeue.is_empty q) then begin
          let t, s, id =
            List.fold_left
              (fun (bt, bs, bid) (t, s, id) ->
                if t < bt || (t = bt && s < bs) then (t, s, id)
                else (bt, bs, bid))
              (infinity, max_int, -1) !live
          in
          live := List.filter (fun (_, s', _) -> s' <> s) !live;
          (Equeue.pop_min q) ();
          (match !log with
          | got :: _ -> if got <> id then ok := false
          | [] -> ok := false);
          if Equeue.clock q <> t then ok := false
        end
      in
      List.iter
        (fun (kind, bucket) ->
          match kind with
          | 0 ->
            (* Future (or same-instant) heap entry, tie-heavy times. *)
            let time = Equeue.clock q +. float_of_int bucket in
            let id = fresh () in
            let seq = Equeue.push_at q ~time (fun () -> log := id :: !log) in
            live := (time, seq, id) :: !live
          | 1 ->
            let time = Equeue.clock q in
            let id = fresh () in
            let seq = Equeue.push_now q (fun () -> log := id :: !log) in
            live := (time, seq, id) :: !live
          | _ -> do_pop ())
        ops;
      while not (Equeue.is_empty q) do
        do_pop ()
      done;
      !ok && !live = [] && List.length !log = !next_id)

let suite =
  [
    Alcotest.test_case "ring/heap arbitration" `Quick test_arbitration;
    Alcotest.test_case "ring rejects receded clock" `Quick test_ring_guard;
    QCheck_alcotest.to_alcotest prop_drain_order;
  ]
