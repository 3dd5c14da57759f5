open Simcore

type t = {
  engine : Engine.t;
  bits_per_sec : float;
  mutable free_at : float;
  msgs : Stats.Counter.t;
  bytes : Stats.Counter.t;
  mutable busy_time : float;
  mutable stats_since : float;
  mutable tl : (Telemetry.Timeline.t * int * int) option;
      (* (timeline, track, "xfer" name): one Complete span per
         transfer, arg = payload bytes; serialized by [free_at]. *)
}

let create engine ~bandwidth_mbits =
  if bandwidth_mbits <= 0.0 then invalid_arg "Network.create: bad bandwidth";
  {
    engine;
    bits_per_sec = bandwidth_mbits *. 1e6;
    free_at = Engine.now engine;
    msgs = Stats.Counter.create ();
    bytes = Stats.Counter.create ();
    busy_time = 0.0;
    stats_since = Engine.now engine;
    tl = None;
  }

let attach_timeline t ~timeline ~track =
  t.tl <- Some (timeline, track, Telemetry.Timeline.intern timeline "xfer")

let transfer t ~bytes =
  if bytes < 0 then invalid_arg "Network.transfer: negative size";
  let now = Engine.now t.engine in
  let service = float_of_int (bytes * 8) /. t.bits_per_sec in
  let start = Float.max now t.free_at in
  let finish = start +. service in
  t.free_at <- finish;
  t.busy_time <- t.busy_time +. service;
  Stats.Counter.incr t.msgs;
  Stats.Counter.add t.bytes bytes;
  (match t.tl with
  | Some (tl, track, name) ->
    Telemetry.Timeline.complete tl ~track ~name ~arg:bytes ~t0:start ~t1:finish ()
  | None -> ());
  Proc.hold (finish -. now)

let messages t = Stats.Counter.value t.msgs
let bytes_sent t = Stats.Counter.value t.bytes

let utilization t =
  let span = Engine.now t.engine -. t.stats_since in
  if span <= 0.0 then 0.0 else Float.min 1.0 (t.busy_time /. span)

let reset_stats t =
  t.stats_since <- Engine.now t.engine;
  t.busy_time <- Float.max 0.0 (t.free_at -. t.stats_since);
  Stats.Counter.reset t.msgs;
  Stats.Counter.reset t.bytes
