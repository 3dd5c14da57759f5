open Simcore

let test_clock_starts_at_zero () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "now" 0.0 (Engine.now e)

let test_event_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_after e 3.0 (fun () -> log := 3 :: !log);
  Engine.schedule_after e 1.0 (fun () -> log := 1 :: !log);
  Engine.schedule_after e 2.0 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Engine.now e)

let test_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_after e 1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_after e 1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule_after e 1.0 (fun () -> log := "c" :: !log);
      Engine.schedule_after e 0.5 (fun () -> log := "b" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b"; "c" ] (List.rev !log)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule_at e t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run_until e 2.5;
  Alcotest.(check (list (float 0.0))) "fired up to limit" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at limit" 2.5 (Engine.now e);
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Engine.run_until e 10.0;
  Alcotest.(check int) "all fired" 4 (List.length !fired)

let test_zero_delay () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule_after e 0.0 (fun () -> fired := true);
  Engine.run e;
  Alcotest.(check bool) "fired" true !fired

(* The diagnostic must name both the clock and the requested time so a
   bad schedule is debuggable from the message alone. *)
let mem needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_past_rejected () =
  let e = Engine.create () in
  Engine.schedule_after e 5.0 (fun () -> ());
  Engine.run e;
  Alcotest.(check bool) "negative delay rejected with diagnostic" true
    (try
       Engine.schedule_after e (-1.0) (fun () -> ());
       false
     with Engine.Time_travel msg ->
       mem "clock 5" msg && mem "delta" msg);
  Alcotest.(check bool) "past time rejected with diagnostic" true
    (try
       Engine.schedule_at e 1.0 (fun () -> ());
       false
     with Engine.Time_travel msg ->
       mem "requested time 1" msg && mem "clock 5" msg)

let test_events_processed () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule_after e 1.0 (fun () -> ())
  done;
  Engine.run e;
  Alcotest.(check int) "count" 7 (Engine.events_processed e)

let prop_any_schedule_order =
  QCheck.Test.make ~name:"events fire in nondecreasing time order" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 100.0))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t -> Engine.schedule_at e t (fun () -> fired := Engine.now e :: !fired))
        times;
      Engine.run e;
      let fired = List.rev !fired in
      List.length fired = List.length times
      && fired = List.sort compare times)

let suite =
  [
    Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "FIFO at same instant" `Quick test_fifo_same_time;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "zero delay" `Quick test_zero_delay;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    QCheck_alcotest.to_alcotest prop_any_schedule_order;
  ]
