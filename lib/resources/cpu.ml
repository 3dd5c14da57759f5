open Simcore

type job = { mutable rem : float; resume : unit Proc.resumer }

(* Optional timeline observer: one "busy" span per idle->busy->idle
   cycle, recorded on the edges [update_busy] already detects for the
   time-weighted utilization.  Pure observation — no events, no RNG. *)
type tl_state = {
  ttl : Telemetry.Timeline.t;
  track : int;
  n_busy : int;
  mutable was_busy : bool;
}

type t = {
  engine : Engine.t;
  rate : float; (* instructions per second *)
  sys_queue : (float * unit Proc.resumer) Queue.t;
  mutable sys_active : bool;
  mutable users : job list;
  (* Cached [List.length users] and [fold min rem] so the per-event
     reschedule is O(1).  [min_rem] tracks the fold exactly: a uniform
     catch-up subtraction is monotone in floats, so subtracting it from
     the cached minimum gives bit-identical results to re-folding. *)
  mutable n_users : int;
  mutable min_rem : float; (* infinity when no user jobs are active *)
  mutable last_progress : float; (* when users' remaining work was last updated *)
  mutable gen : int; (* invalidates stale user-completion events *)
  busy : Stats.Time_weighted.t;
  mutable tl : tl_state option;
}

let create engine ~mips =
  if mips <= 0.0 then invalid_arg "Cpu.create: mips must be positive";
  {
    engine;
    rate = mips *. 1e6;
    sys_queue = Queue.create ();
    sys_active = false;
    users = [];
    n_users = 0;
    min_rem = infinity;
    last_progress = Engine.now engine;
    gen = 0;
    busy = Stats.Time_weighted.create ~now:(Engine.now engine);
    tl = None;
  }

let is_busy t = t.sys_active || t.n_users > 0

let update_busy t =
  let now = Engine.now t.engine in
  let b = is_busy t in
  Stats.Time_weighted.update t.busy ~now (if b then 1.0 else 0.0);
  match t.tl with
  | Some s when s.was_busy <> b ->
    if b then Telemetry.Timeline.span_begin s.ttl ~track:s.track ~name:s.n_busy now
    else Telemetry.Timeline.span_end s.ttl ~track:s.track now;
    s.was_busy <- b
  | Some _ | None -> ()

let attach_timeline t ~timeline ~track =
  let s =
    {
      ttl = timeline;
      track;
      n_busy = Telemetry.Timeline.intern timeline "busy";
      was_busy = false;
    }
  in
  t.tl <- Some s;
  (* If attached while already busy, open the span now. *)
  update_busy t

(* Charge elapsed processor-shared progress to every active user job.
   No progress is made while a system request is active. *)
let catch_up_users t =
  let now = Engine.now t.engine in
  if (not t.sys_active) && t.n_users > 0 then begin
    let n = float_of_int t.n_users in
    let done_instr = (now -. t.last_progress) *. t.rate /. n in
    List.iter (fun j -> j.rem <- j.rem -. done_instr) t.users;
    t.min_rem <- t.min_rem -. done_instr
  end;
  t.last_progress <- now

let eps_instr = 1e-6

let rec reschedule_users t =
  t.gen <- t.gen + 1;
  if (not t.sys_active) && t.n_users > 0 then begin
    let n = float_of_int t.n_users in
    let dt = Float.max 0.0 (t.min_rem *. n /. t.rate) in
    let gen = t.gen in
    Engine.schedule_after t.engine dt (fun () ->
        if gen = t.gen then user_completion t)
  end

and user_completion t =
  catch_up_users t;
  let finished, running =
    List.partition (fun j -> j.rem <= eps_instr) t.users
  in
  t.users <- running;
  (* The minimum left with the finished jobs: re-fold over survivors
     (only here, at completion events — not on every reschedule). *)
  t.n_users <- List.length running;
  t.min_rem <- List.fold_left (fun acc j -> min acc j.rem) infinity running;
  update_busy t;
  reschedule_users t;
  List.iter (fun j -> j.resume (Ok ())) finished

let rec start_next_system t =
  match Queue.take_opt t.sys_queue with
  | None ->
    t.sys_active <- false;
    t.last_progress <- Engine.now t.engine;
    update_busy t;
    reschedule_users t
  | Some (instr, resume) ->
    t.sys_active <- true;
    Engine.schedule_after t.engine (instr /. t.rate) (fun () ->
        resume (Ok ());
        start_next_system t)

let system t instr =
  if instr < 0.0 then invalid_arg "Cpu.system: negative work";
  Proc.suspend t.engine (fun resume ->
      catch_up_users t;
      Queue.push (instr, resume) t.sys_queue;
      if not t.sys_active then begin
        (* Freeze user progress and start serving the system queue. *)
        t.gen <- t.gen + 1;
        start_next_system t
      end;
      update_busy t)

let user t instr =
  if instr < 0.0 then invalid_arg "Cpu.user: negative work";
  if instr = 0.0 then ()
  else
    Proc.suspend t.engine (fun resume ->
        catch_up_users t;
        t.users <- { rem = instr; resume } :: t.users;
        t.n_users <- t.n_users + 1;
        if instr < t.min_rem then t.min_rem <- instr;
        update_busy t;
        reschedule_users t)

let utilization t =
  Stats.Time_weighted.average t.busy ~now:(Engine.now t.engine)

let reset_stats t =
  update_busy t;
  Stats.Time_weighted.reset t.busy ~now:(Engine.now t.engine);
  update_busy t

let active_users t = t.n_users
