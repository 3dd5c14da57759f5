exception Cancelled

(* Sentinel for "not yet resumed".  ['a] occurs only covariantly in
   [('a, exn) result], so this single constant is polymorphic; waiters
   compare against it physically, and no caller can forge it (a fresh
   [Error Cancelled] is a different block). *)
let never : ('a, exn) result = Error Cancelled
let ok_unit : (unit, exn) result = Ok ()
let nop () = ()

(* A suspended fiber, fused into one record: the captured continuation,
   the result slot, and the resumption thunk, all allocated once at
   suspension time.  Resuming stores the result and pushes the
   pre-allocated thunk onto the engine's zero-delay ring — no closure
   is built on the resume path. *)
type 'a waiter = {
  engine : Engine.t;
  k : ('a, unit) Effect.Deep.continuation;
  mutable res : ('a, exn) result; (* physically [never] until resumed *)
  mutable thunk : unit -> unit;
}

type _ Effect.t += Suspend : ('a waiter -> unit) -> 'a Effect.t

let fire w =
  match w.res with
  | Ok v -> Effect.Deep.continue w.k v
  | Error e -> Effect.Deep.discontinue w.k e

let resume w r =
  if w.res != never then invalid_arg "Proc: waiter resumed more than once";
  w.res <- r;
  Engine.schedule_now w.engine w.thunk

(* Each fiber runs under one deep handler with one suspension effect:
   it captures the continuation into a fresh waiter and hands that to
   the registration function, which parks it wherever the wake-up will
   come from. *)

let handler engine =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc =
      (fun e ->
        match e with
        | Cancelled -> () (* a cancelled fiber that did not catch it just dies *)
        | _ -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              let w = { engine; k; res = never; thunk = nop } in
              w.thunk <- (fun () -> fire w);
              register w)
        | _ -> None);
  }

let spawn engine f =
  Engine.schedule_now engine (fun () ->
      Effect.Deep.match_with f () (handler engine))

let suspend register = Effect.perform (Suspend register)

(* [hold] and [yield] wake in two hops (a wake event, then the deferred
   continue at the same instant): collapsing them to one would renumber
   events and change tie-breaking among same-instant events — goldens
   are byte-sensitive to it.  [wake w] is the first hop. *)
let wake w () =
  w.res <- ok_unit;
  Engine.schedule_now w.engine w.thunk

let hold dt =
  if dt < 0.0 then invalid_arg "Proc.hold: negative delay";
  if dt = 0.0 then ()
  else suspend (fun w -> Engine.schedule_after w.engine dt (wake w))

let yield () = suspend (fun w -> Engine.schedule_now w.engine (wake w))
