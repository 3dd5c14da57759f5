open Simcore

let test_spawn_runs () =
  let e = Engine.create () in
  let ran = ref false in
  Proc.spawn e (fun () -> ran := true);
  Engine.run e;
  Alcotest.(check bool) "fiber ran" true !ran

let test_hold_advances_time () =
  let e = Engine.create () in
  let t = ref 0.0 in
  Proc.spawn e (fun () ->
      Proc.hold 2.5;
      t := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-12)) "time advanced" 2.5 !t

let test_sequential_holds () =
  let e = Engine.create () in
  let log = ref [] in
  Proc.spawn e (fun () ->
      Proc.hold 1.0;
      log := Engine.now e :: !log;
      Proc.hold 1.0;
      log := Engine.now e :: !log);
  Engine.run e;
  Alcotest.(check (list (float 1e-12))) "cumulative" [ 1.0; 2.0 ] (List.rev !log)

let test_concurrent_fibers () =
  let e = Engine.create () in
  let log = ref [] in
  Proc.spawn e (fun () ->
      Proc.hold 2.0;
      log := "slow" :: !log);
  Proc.spawn e (fun () ->
      Proc.hold 1.0;
      log := "fast" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "interleave" [ "fast"; "slow" ] (List.rev !log)

let test_suspend_resume_value () =
  let e = Engine.create () in
  let waiter = ref None in
  let got = ref 0 in
  Proc.spawn e (fun () ->
      got := Proc.suspend (fun w -> waiter := Some w));
  Engine.run e;
  (match !waiter with
  | Some w -> Proc.resume w (Ok 42)
  | None -> Alcotest.fail "never suspended");
  Engine.run e;
  Alcotest.(check int) "resumed with value" 42 !got

let test_suspend_resume_error () =
  let e = Engine.create () in
  let waiter = ref None in
  let caught = ref false in
  Proc.spawn e (fun () ->
      try ignore (Proc.suspend (fun w -> waiter := Some w) : int)
      with Proc.Cancelled -> caught := true);
  Engine.run e;
  Proc.resume (Option.get !waiter) (Error Proc.Cancelled);
  Engine.run e;
  Alcotest.(check bool) "exception delivered" true !caught

let test_double_resume_rejected () =
  let e = Engine.create () in
  let waiter = ref None in
  Proc.spawn e (fun () -> ignore (Proc.suspend (fun w -> waiter := Some w) : int));
  Engine.run e;
  let w = Option.get !waiter in
  Proc.resume w (Ok 1);
  Alcotest.(check bool) "second resume raises" true
    (try
       Proc.resume w (Ok 2);
       false
     with Invalid_argument _ -> true)

let test_yield_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Proc.spawn e (fun () ->
      log := "a1" :: !log;
      Proc.yield ();
      log := "a2" :: !log);
  Proc.spawn e (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "yield lets others run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_ivar_basic () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Proc.spawn e (fun () -> got := Ivar.read iv);
  Proc.spawn e (fun () ->
      Proc.hold 1.0;
      Ivar.fill iv 7);
  Engine.run e;
  Alcotest.(check int) "read after fill" 7 !got

let test_ivar_read_when_full () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 5;
  let got = ref 0 in
  Proc.spawn e (fun () -> got := Ivar.read iv);
  Engine.run e;
  Alcotest.(check int) "immediate" 5 !got

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Proc.spawn e (fun () -> sum := !sum + Ivar.read iv)
  done;
  Proc.spawn e (fun () -> Ivar.fill iv 10);
  Engine.run e;
  Alcotest.(check int) "all woken" 30 !sum

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "double fill raises" true
    (try
       Ivar.fill iv 2;
       false
     with Invalid_argument _ -> true)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let got = ref [] in
  Proc.spawn e (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Proc.spawn e (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Proc.hold 1.0;
      Mailbox.send mb 3);
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  let t = ref 0.0 in
  Proc.spawn e (fun () ->
      ignore (Mailbox.recv mb);
      t := Engine.now e);
  Proc.spawn e (fun () ->
      Proc.hold 3.0;
      Mailbox.send mb ());
  Engine.run e;
  Alcotest.(check (float 1e-12)) "blocked until send" 3.0 !t

(* The mailbox and yield paths, pinned by event count: two fibers
   ping-pong 1,000 rounds over two mailboxes while a third yields 10
   times.  Every receive that blocks costs one wake event (1,999 here:
   the first message finds its receiver not yet parked), every yield
   two, and each spawn one, so the count moves only if a suspension path
   changes shape. *)
let test_pingpong_event_count () =
  let e = Engine.create () in
  let a = Mailbox.create e and b = Mailbox.create e in
  let rounds = 1000 in
  let sum = ref 0 and yields = ref 0 in
  Proc.spawn e (fun () ->
      for i = 1 to rounds do
        Mailbox.send b i;
        sum := !sum + Mailbox.recv a
      done);
  Proc.spawn e (fun () ->
      for _ = 1 to rounds do
        Mailbox.send a (Mailbox.recv b)
      done);
  Proc.spawn e (fun () ->
      for _ = 1 to 10 do
        Proc.yield ();
        incr yields
      done);
  Engine.run e;
  Alcotest.(check int) "every message echoed" (rounds * (rounds + 1) / 2) !sum;
  Alcotest.(check int) "every yield returned" 10 !yields;
  Alcotest.(check int) "mailboxes drained" 0 (Mailbox.length a + Mailbox.length b);
  Alcotest.(check int) "events processed" 2022 (Engine.events_processed e)

let test_gather () =
  let e = Engine.create () in
  let g = Gather.create 3 in
  let got = ref [] in
  Proc.spawn e (fun () -> got := Gather.wait g);
  for i = 1 to 3 do
    Proc.spawn e (fun () ->
        Proc.hold (float_of_int i);
        Gather.add g i)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "arrival order" [ 1; 2; 3 ] !got

let test_gather_empty () =
  let e = Engine.create () in
  let g = Gather.create 0 in
  let done_ = ref false in
  Proc.spawn e (fun () ->
      ignore (Gather.wait g);
      done_ := true);
  Engine.run e;
  Alcotest.(check bool) "empty gather returns" true !done_

let test_gather_overflow () =
  let g = Gather.create 1 in
  Gather.add g 1;
  Alcotest.(check bool) "overflow raises" true
    (try
       Gather.add g 2;
       false
     with Invalid_argument _ -> true)

let test_many_fibers () =
  let e = Engine.create () in
  let n = 1000 in
  let completed = ref 0 in
  for i = 1 to n do
    Proc.spawn e (fun () ->
        Proc.hold (float_of_int (i mod 17) /. 10.0);
        incr completed)
  done;
  Engine.run e;
  Alcotest.(check int) "all completed" n !completed

let suite =
  [
    Alcotest.test_case "spawn runs" `Quick test_spawn_runs;
    Alcotest.test_case "hold advances time" `Quick test_hold_advances_time;
    Alcotest.test_case "sequential holds" `Quick test_sequential_holds;
    Alcotest.test_case "concurrent fibers" `Quick test_concurrent_fibers;
    Alcotest.test_case "suspend/resume value" `Quick test_suspend_resume_value;
    Alcotest.test_case "suspend/resume error" `Quick test_suspend_resume_error;
    Alcotest.test_case "double resume rejected" `Quick test_double_resume_rejected;
    Alcotest.test_case "yield ordering" `Quick test_yield_ordering;
    Alcotest.test_case "ivar basic" `Quick test_ivar_basic;
    Alcotest.test_case "ivar read when full" `Quick test_ivar_read_when_full;
    Alcotest.test_case "ivar multiple readers" `Quick test_ivar_multiple_readers;
    Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
    Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox blocking recv" `Quick test_mailbox_blocking_recv;
    Alcotest.test_case "gather" `Quick test_gather;
    Alcotest.test_case "gather empty" `Quick test_gather_empty;
    Alcotest.test_case "gather overflow" `Quick test_gather_overflow;
    Alcotest.test_case "1000 fibers" `Quick test_many_fibers;
    Alcotest.test_case "mailbox ping-pong and yield event count" `Quick
      test_pingpong_event_count;
  ]
