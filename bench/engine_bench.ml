(* Engine microbenchmarks: events/sec and allocation per event for the
   discrete-event core, independent of the full figure sweeps.

   Scenarios:
   - heap-churn:   a classic hold model; K outstanding events, each
                   firing schedules a successor at now + pseudorandom dt,
                   so every event is one heap push + one pop.
   - ring-churn:   a self-rescheduling zero-delay chain, the path every
                   Proc resumption / yield / Mailbox wakeup takes.
   - ping-pong:    two fibers bouncing a message through two mailboxes;
                   each round trip is two suspend/resume cycles.
   - cancel-storm: arm K timers, cancel 90%, drain; exercises the
                   cancellation/purge path of long fault runs.
   - fig3-cell:    one representative simulation cell (PS-AA, write
                   probability 0.1, short windows) as the end-to-end
                   sanity check that micro wins survive in context.

   Each line of output is a JSON object; paste the numbers into
   BENCH_engine.json (see that file for the recording convention).

   ENGINE_BENCH_N scales the per-scenario event counts (default
   300_000; CI smoke uses a few thousand).

   Regenerating BENCH_engine.json:

     dune build bench/engine_bench.exe
     for i in 1 2 3 4 5; do
       ENGINE_BENCH_N=2000000 ./_build/default/bench/engine_bench.exe
     done

   Take the best events_per_sec per scenario (best-of-5 suppresses
   scheduler noise, which is +/- 30% on a busy 1-core container) and
   the matching minor_words_per_event.  For a before/after comparison,
   build the baseline commit in a worktree with this same file copied
   in, and alternate the two binaries run-for-run so both see the same
   machine conditions. *)

open Simcore

let n_events =
  match Sys.getenv_opt "ENGINE_BENCH_N" with
  | Some s -> (try max 1000 (int_of_string s) with _ -> 300_000)
  | None -> 300_000

(* Cheap deterministic dt stream; Rng would also do, but an inline
   splitmix keeps the bench self-contained and allocation-free. *)
let mix state =
  let z = Int64.add !state 0x9e3779b97f4a7c15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_dt state =
  let bits = Int64.to_int (Int64.logand (mix state) 0xfffffL) in
  float_of_int (1 + bits) *. 1e-6

type sample = {
  name : string;
  events : int;
  wall_s : float;
  minor_words_per_event : float;
}

let pp_sample { name; events; wall_s; minor_words_per_event } =
  let rate = float_of_int events /. wall_s in
  Printf.printf
    "{\"bench\": %S, \"events\": %d, \"wall_s\": %.4f, \"events_per_sec\": \
     %.0f, \"minor_words_per_event\": %.2f}\n%!"
    name events wall_s rate minor_words_per_event

let measure name f =
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let mw = Gc.minor_words () -. mw0 in
  pp_sample
    {
      name;
      events;
      wall_s;
      minor_words_per_event = mw /. float_of_int (max 1 events);
    }

let heap_churn () =
  let e = Engine.create () in
  let state = ref 42L in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired + 1000 <= n_events then
      Engine.schedule_after e (next_dt state) tick
  in
  for _ = 1 to 1000 do
    Engine.schedule_after e (next_dt state) tick
  done;
  Engine.run e;
  Engine.events_processed e

let ring_churn () =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired < n_events then Engine.schedule_after e 0.0 tick
  in
  Engine.schedule_after e 0.0 tick;
  Engine.run e;
  Engine.events_processed e

let ping_pong () =
  let e = Engine.create () in
  let a = Mailbox.create e and b = Mailbox.create e in
  let rounds = n_events / 4 in
  Proc.spawn e (fun () ->
      for _ = 1 to rounds do
        Mailbox.send a 1;
        ignore (Mailbox.recv b : int)
      done);
  Proc.spawn e (fun () ->
      for _ = 1 to rounds do
        let v = Mailbox.recv a in
        Mailbox.send b v
      done);
  Engine.run e;
  Engine.events_processed e

let cancel_storm () =
  let e = Engine.create () in
  let rounds = max 1 (n_events / 10_000) in
  let per_round = 10_000 in
  for _ = 1 to rounds do
    let timers =
      List.init per_round (fun i ->
          Engine.after e (1e-3 +. (float_of_int i *. 1e-6)) (fun () -> ()))
    in
    List.iteri
      (fun i tm -> if i mod 10 <> 0 then Engine.cancel tm)
      timers;
    Engine.run_until e (Engine.now e +. 1.0)
  done;
  rounds * per_round

let fig3_cell () =
  let spec = Option.get (Oodb_core.Experiments.find "fig3") in
  let cfg = Oodb_core.Experiments.cfg_of spec in
  let params = Oodb_core.Experiments.params_of spec ~write_prob:0.1 in
  let r =
    Oodb_core.Runner.run ~warmup:2.0 ~measure:5.0 ~cfg
      ~algo:Oodb_core.Algo.PS_AA ~params ()
  in
  (* Tie the figure to something real so the cell can't be optimized
     into a no-op: commits must be positive for the run to count. *)
  assert (r.Oodb_core.Runner.commits > 0);
  r.Oodb_core.Runner.commits

let () =
  Printf.printf "# engine_bench: N=%d (ENGINE_BENCH_N to change)\n%!" n_events;
  measure "heap_churn" heap_churn;
  measure "ring_churn" ring_churn;
  measure "ping_pong" ping_pong;
  measure "cancel_storm" cancel_storm;
  measure "fig3_cell" fig3_cell
