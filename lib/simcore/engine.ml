(* Thin policy wrapper over the {!Equeue} event core: time-travel
   checks and event budgets.  The clock and the seq counter live inside
   Equeue so the zero-delay hot path never passes a float across a call
   boundary (which would box it without flambda). *)

type t = { queue : Equeue.t }

let create () = { queue = Equeue.create () }
let now t = Equeue.clock t.queue

exception Time_travel of string

let time_travel what ~requested ~clock =
  raise
    (Time_travel
       (Printf.sprintf
          "%s: requested time %.9g precedes the clock %.9g (delta %.3g s); \
           an event cannot fire in the past"
          what requested clock (clock -. requested)))

(* Zero-delay events (every Proc resumption, yield and mailbox wakeup)
   go to the queue's FIFO ring; future events go to its heap.  The seq
   counter is shared, so the (time, seq) drain order is identical to a
   single-queue engine. *)

let schedule_now t action = ignore (Equeue.push_now t.queue action : int)

let schedule_at t time action =
  let clock = now t in
  if time < clock -. 1e-12 then
    time_travel "Engine.schedule_at" ~requested:time ~clock;
  if time <= clock then schedule_now t action
  else ignore (Equeue.push_at t.queue ~time action : int)

let schedule_after t dt action =
  if dt < 0.0 then
    time_travel "Engine.schedule_after" ~requested:(now t +. dt) ~clock:(now t);
  if dt = 0.0 then schedule_now t action
  else schedule_at t (now t +. dt) action

exception Event_budget_exceeded of string

let check_budget t = function
  | None -> ()
  | Some budget ->
    if Equeue.popped t.queue >= budget then
      raise
        (Event_budget_exceeded
           (Printf.sprintf
              "event budget of %d exhausted: clock %.6f, %d events \
               processed, %d still pending"
              budget (now t)
              (Equeue.popped t.queue)
              (Equeue.size t.queue)))

let step ?max_events t =
  check_budget t max_events;
  if Equeue.is_empty t.queue then false
  else begin
    (Equeue.pop_min t.queue) ();
    true
  end

(* Without a budget, [run] and [run_until] hand the whole loop to the
   queue's fused drain ([Equeue.pop_min] advances the clock itself, and
   the events-processed counter lives in the queue). *)

let run ?max_events t =
  match max_events with
  | None -> Equeue.drain t.queue
  | Some _ -> while step ?max_events t do () done

let run_until ?max_events t limit =
  (match max_events with
  | None -> Equeue.drain_until t.queue limit
  | Some _ ->
    let continue = ref true in
    while !continue do
      if Equeue.has_before t.queue limit then ignore (step ?max_events t)
      else continue := false
    done);
  if now t < limit then Equeue.set_clock t.queue limit

let pending t = Equeue.size t.queue
let events_processed t = Equeue.popped t.queue
