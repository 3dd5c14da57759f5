open Simcore
open Resources

let feps = 1e-9

(* --- CPU --------------------------------------------------------------- *)

(* 1 MIPS CPU: n instructions take n microseconds. *)
let mk_cpu () =
  let e = Engine.create () in
  (e, Cpu.create e ~mips:1.0)

let test_cpu_system_service_time () =
  let e, cpu = mk_cpu () in
  let t = ref 0.0 in
  Proc.spawn e (fun () ->
      Cpu.system cpu 1_000_000.0;
      t := Engine.now e);
  Engine.run e;
  Alcotest.(check (float feps)) "1M instr at 1 MIPS = 1s" 1.0 !t

let test_cpu_system_fifo () =
  let e, cpu = mk_cpu () in
  let log = ref [] in
  for i = 1 to 3 do
    Proc.spawn e (fun () ->
        Cpu.system cpu 1_000_000.0;
        log := (i, Engine.now e) :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list (pair int (float feps))))
    "serialized FIFO"
    [ (1, 1.0); (2, 2.0); (3, 3.0) ]
    (List.rev !log)

let test_cpu_user_processor_sharing () =
  let e, cpu = mk_cpu () in
  (* Two equal user jobs sharing: each takes twice as long. *)
  let done_at = ref [] in
  for _ = 1 to 2 do
    Proc.spawn e (fun () ->
        Cpu.user cpu 1_000_000.0;
        done_at := Engine.now e :: !done_at)
  done;
  Engine.run e;
  List.iter
    (fun t -> Alcotest.(check (float 1e-6)) "PS doubles latency" 2.0 t)
    !done_at

let test_cpu_user_unequal_jobs () =
  let e, cpu = mk_cpu () in
  let short = ref 0.0 and long_ = ref 0.0 in
  Proc.spawn e (fun () ->
      Cpu.user cpu 1_000_000.0;
      short := Engine.now e);
  Proc.spawn e (fun () ->
      Cpu.user cpu 3_000_000.0;
      long_ := Engine.now e);
  Engine.run e;
  (* Short job: shares until 2s (1M each done), finishes. Long job: 2M
     left alone -> finishes at 4s. *)
  Alcotest.(check (float 1e-6)) "short at 2s" 2.0 !short;
  Alcotest.(check (float 1e-6)) "long at 4s" 4.0 !long_

let test_cpu_system_preempts_user () =
  let e, cpu = mk_cpu () in
  let user_done = ref 0.0 in
  Proc.spawn e (fun () ->
      Cpu.user cpu 2_000_000.0;
      user_done := Engine.now e);
  Proc.spawn e (fun () ->
      Proc.hold 1.0;
      (* freeze user work for 1s *)
      Cpu.system cpu 1_000_000.0);
  Engine.run e;
  (* User: 1s progress, then frozen 1s, then 1s more = 3s total. *)
  Alcotest.(check (float 1e-6)) "user delayed by system" 3.0 !user_done

let test_cpu_zero_work () =
  let e, cpu = mk_cpu () in
  let t = ref (-1.0) in
  Proc.spawn e (fun () ->
      Cpu.user cpu 0.0;
      t := Engine.now e);
  Engine.run e;
  Alcotest.(check (float feps)) "zero work instant" 0.0 !t

let test_cpu_utilization () =
  let e, cpu = mk_cpu () in
  Proc.spawn e (fun () -> Cpu.system cpu 1_000_000.0);
  Engine.run e;
  Engine.run_until e 2.0;
  Alcotest.(check (float 1e-6)) "busy 1s of 2s" 0.5 (Cpu.utilization cpu)

let test_cpu_negative_rejected () =
  let e, cpu = mk_cpu () in
  let raised = ref false in
  Proc.spawn e (fun () ->
      try Cpu.user cpu (-5.0) with Invalid_argument _ -> raised := true);
  Engine.run e;
  Alcotest.(check bool) "negative rejected" true !raised

(* --- Disk -------------------------------------------------------------- *)

let test_disk_service_range () =
  let e = Engine.create () in
  let d =
    Disk.create e ~rng:(Rng.create ~seed:1) ~min_time:0.010 ~max_time:0.030 ()
  in
  let t = ref 0.0 in
  Proc.spawn e (fun () ->
      Disk.io d;
      t := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "within range" true (!t >= 0.010 && !t <= 0.030);
  Alcotest.(check int) "counted" 1 (Disk.io_count d)

let test_disk_fifo_queueing () =
  let e = Engine.create () in
  let d = Disk.create e ~rng:(Rng.create ~seed:2) ~min_time:0.020 ~max_time:0.020 () in
  let finish_times = ref [] in
  for _ = 1 to 3 do
    Proc.spawn e (fun () ->
        Disk.io d;
        finish_times := Engine.now e :: !finish_times)
  done;
  Engine.run e;
  Alcotest.(check (list (float 1e-9)))
    "serialized at 20ms" [ 0.020; 0.040; 0.060 ]
    (List.rev !finish_times)

let test_disk_utilization () =
  let e = Engine.create () in
  let d = Disk.create e ~rng:(Rng.create ~seed:3) ~min_time:0.5 ~max_time:0.5 () in
  Proc.spawn e (fun () -> Disk.io d);
  Engine.run e;
  Engine.run_until e 1.0;
  Alcotest.(check (float 1e-6)) "50% busy" 0.5 (Disk.utilization d)

let test_disk_array_spreads () =
  let e = Engine.create () in
  let da =
    Disk_array.create e ~rng:(Rng.create ~seed:4) ~disks:4 ~min_time:0.01
      ~max_time:0.01 ()
  in
  for _ = 1 to 40 do
    Proc.spawn e (fun () -> Disk_array.io da)
  done;
  Engine.run e;
  Alcotest.(check int) "all I/Os done" 40 (Disk_array.io_count da);
  (* With 4 disks and uniform choice, total time well under serialized. *)
  Alcotest.(check bool) "parallelism achieved" true (Engine.now e < 0.4)

(* --- Network ----------------------------------------------------------- *)

let test_network_transfer_time () =
  let e = Engine.create () in
  (* 8 Mbit/s: 1000 bytes = 8000 bits = 1 ms. *)
  let n = Network.create e ~bandwidth_mbits:8.0 in
  let t = ref 0.0 in
  Proc.spawn e (fun () ->
      Network.transfer n ~bytes:1000;
      t := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "1ms" 0.001 !t;
  Alcotest.(check int) "messages" 1 (Network.messages n);
  Alcotest.(check int) "bytes" 1000 (Network.bytes_sent n)

let test_network_fifo () =
  let e = Engine.create () in
  let n = Network.create e ~bandwidth_mbits:8.0 in
  let finish = ref [] in
  for _ = 1 to 3 do
    Proc.spawn e (fun () ->
        Network.transfer n ~bytes:1000;
        finish := Engine.now e :: !finish)
  done;
  Engine.run e;
  Alcotest.(check (list (float 1e-9)))
    "serialized" [ 0.001; 0.002; 0.003 ] (List.rev !finish)

let test_network_zero_bytes () =
  let e = Engine.create () in
  let n = Network.create e ~bandwidth_mbits:8.0 in
  let done_ = ref false in
  Proc.spawn e (fun () ->
      Network.transfer n ~bytes:0;
      done_ := true);
  Engine.run e;
  Alcotest.(check bool) "zero-byte ok" true !done_

let suite =
  [
    Alcotest.test_case "cpu system service time" `Quick test_cpu_system_service_time;
    Alcotest.test_case "cpu system FIFO" `Quick test_cpu_system_fifo;
    Alcotest.test_case "cpu processor sharing" `Quick test_cpu_user_processor_sharing;
    Alcotest.test_case "cpu unequal user jobs" `Quick test_cpu_user_unequal_jobs;
    Alcotest.test_case "cpu system preempts user" `Quick test_cpu_system_preempts_user;
    Alcotest.test_case "cpu zero work" `Quick test_cpu_zero_work;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization;
    Alcotest.test_case "cpu rejects negative work" `Quick test_cpu_negative_rejected;
    Alcotest.test_case "disk service range" `Quick test_disk_service_range;
    Alcotest.test_case "disk FIFO queueing" `Quick test_disk_fifo_queueing;
    Alcotest.test_case "disk utilization" `Quick test_disk_utilization;
    Alcotest.test_case "disk array spreads load" `Quick test_disk_array_spreads;
    Alcotest.test_case "network transfer time" `Quick test_network_transfer_time;
    Alcotest.test_case "network FIFO" `Quick test_network_fifo;
    Alcotest.test_case "network zero bytes" `Quick test_network_zero_bytes;
  ]
