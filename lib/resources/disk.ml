open Simcore

type t = {
  engine : Engine.t;
  rng : Rng.t;
  min_time : float;
  max_time : float;
  faults : Faults.t option;
  mutable free_at : float;
  ios : Stats.Counter.t;
  mutable busy_time : float;
  mutable stats_since : float;
  mutable tl : (Telemetry.Timeline.t * int * int) option;
      (* (timeline, track, "io" name): one Complete span per I/O; the
         [free_at] FIFO already serializes the [start, finish]
         intervals, so the track's spans never overlap. *)
}

let create engine ~rng ?faults ~min_time ~max_time () =
  if min_time < 0.0 || max_time < min_time then
    invalid_arg "Disk.create: bad service time range";
  {
    engine;
    rng;
    min_time;
    max_time;
    faults;
    free_at = Engine.now engine;
    ios = Stats.Counter.create ();
    busy_time = 0.0;
    stats_since = Engine.now engine;
    tl = None;
  }

let attach_timeline t ~timeline ~track =
  t.tl <- Some (timeline, track, Telemetry.Timeline.intern timeline "io")

(* A transient stall delays the request before it enters the service
   queue; the bounded retry re-issues it until the stall clears (or the
   retry budget is spent, after which the I/O proceeds regardless — a
   stall is transient by definition, not a hard failure).  The stall
   draws come from the fault layer's own stream, so the disk's service
   time stream is identical with and without fault injection. *)
let maybe_stall t =
  match t.faults with
  | Some f when Faults.disk_faults f ->
    let p = Faults.profile f in
    let rec retry n =
      if n < p.Faults.disk_stall_retries && Faults.draw_disk_stall f then begin
        Proc.hold p.Faults.disk_stall_time;
        retry (n + 1)
      end
    in
    retry 0
  | Some _ | None -> ()

let io t =
  maybe_stall t;
  let now = Engine.now t.engine in
  let service = Rng.uniform t.rng ~lo:t.min_time ~hi:t.max_time in
  let start = Float.max now t.free_at in
  let finish = start +. service in
  t.free_at <- finish;
  t.busy_time <- t.busy_time +. service;
  Stats.Counter.incr t.ios;
  (match t.tl with
  | Some (tl, track, name) ->
    Telemetry.Timeline.complete tl ~track ~name ~t0:start ~t1:finish ()
  | None -> ());
  Proc.hold (finish -. now)

let io_count t = Stats.Counter.value t.ios

let utilization t =
  let span = Engine.now t.engine -. t.stats_since in
  if span <= 0.0 then 0.0 else Float.min 1.0 (t.busy_time /. span)

let reset_stats t =
  t.stats_since <- Engine.now t.engine;
  t.busy_time <- Float.max 0.0 (t.free_at -. t.stats_since);
  Stats.Counter.reset t.ios
