type 'a resumer = ('a, exn) result -> unit

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

(* A mailbox's receive path is fused with the scheduler: a fiber
   blocked in [mbox_recv] is represented by its bare continuation in
   the mailbox's wait queue — no waiter record, no result cell, no
   once-only guard (popping the queue transfers the continuation
   exactly once by construction), so it gets its own effect rather than
   going through [Suspend_waiter].  The model does not block on
   mailboxes; the benchmark's event-floor probe and the Proc tests do. *)
type 'a mbox = {
  mb_engine : Engine.t;
  msgs : 'a Queue.t;
  (* Waiting receivers, FIFO: the front one sits in [rk1] (a one-slot
     fast path — almost every blocked mailbox has exactly one reader),
     the rest overflow to [rkq].  Invariant: [rkq] non-empty implies
     [rk1 = Some _]. *)
  mutable rk1 : ('a, unit) Effect.Deep.continuation option;
  rkq : ('a, unit) Effect.Deep.continuation Queue.t;
  (* The receive effect, allocated once per mailbox (it is immutable),
     so a blocking receive performs without allocating the payload. *)
  recv_eff : 'a Effect.t;
}

type _ Effect.t +=
  | Suspend : ((('a, exn) result -> unit) -> unit) -> 'a Effect.t
  | Suspend_waiter : ('a waiter -> unit) -> 'a Effect.t
  | Recv : 'a mbox -> 'a Effect.t
  | Yield : unit Effect.t

let fire w =
  match w.res with
  | Ok v -> Effect.Deep.continue w.k v
  | Error e -> Effect.Deep.discontinue w.k e

let resume w r =
  if w.res != never then invalid_arg "Proc: waiter resumed more than once";
  w.res <- r;
  Engine.schedule_now w.engine w.thunk

(* Each fiber runs under one deep handler; the suspension effects
   capture the continuation and park it — directly in a mailbox's wait
   queue ([Recv]), in a fresh waiter ([Suspend_waiter]), or wrapped in
   a once-only resumer closure for the legacy interface ([Suspend]). *)

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
        | Recv mb ->
          Some
            (fun (k : (a, unit) continuation) ->
              match mb.rk1 with
              | None -> mb.rk1 <- Some k
              | Some _ -> Queue.push k mb.rkq)
        | Suspend_waiter register ->
          Some
            (fun (k : (a, unit) continuation) ->
              let w = { engine; k; res = never; thunk = nop } in
              w.thunk <- (fun () -> fire w);
              register w)
        | Suspend register ->
          Some
            (fun (k : (a, unit) continuation) ->
              let w = { engine; k; res = never; thunk = nop } in
              w.thunk <- (fun () -> fire w);
              register (fun r -> resume w r))
        | Yield ->
          (* Two hops, matching the legacy suspend/resumer sequence
             (wake event, then deferred continue): collapsing them to
             one would renumber events and change tie-breaking among
             same-instant events — goldens are byte-sensitive to it. *)
          Some
            (fun (k : (a, unit) continuation) ->
              Engine.schedule_now engine (fun () ->
                  Engine.schedule_now engine (fun () -> continue k ())))
        | _ -> None);
  }

let spawn engine f =
  Engine.schedule_now engine (fun () ->
      Effect.Deep.match_with f () (handler engine))

let suspend (_engine : Engine.t) register = Effect.perform (Suspend register)

let suspend_waiter (_engine : Engine.t) register =
  Effect.perform (Suspend_waiter register)

(* [hold] keeps the legacy two-hop resume (timer event, then deferred
   continue at the same instant) so event numbering — and therefore
   same-instant tie-breaking — matches the original engine exactly. *)

let hold engine dt =
  if dt < 0.0 then invalid_arg "Proc.hold: negative delay";
  if dt = 0.0 then ()
  else
    suspend_waiter engine (fun w ->
        Engine.schedule_after w.engine dt (fun () ->
            w.res <- ok_unit;
            Engine.schedule_now w.engine w.thunk))

let yield _engine = Effect.perform Yield

(* --- mailbox core (wrapped by {!Mailbox}) ------------------------------- *)

let mbox_create engine =
  let rec mb =
    {
      mb_engine = engine;
      msgs = Queue.create ();
      rk1 = None;
      rkq = Queue.create ();
      recv_eff = Recv mb;
    }
  in
  mb

let mbox_send mb msg =
  match mb.rk1 with
  | Some k ->
    mb.rk1 <- (if Queue.is_empty mb.rkq then None else Some (Queue.pop mb.rkq));
    Engine.schedule_now mb.mb_engine (fun () -> Effect.Deep.continue k msg)
  | None -> Queue.push msg mb.msgs

let mbox_recv mb =
  if Queue.is_empty mb.msgs then Effect.perform mb.recv_eff
  else Queue.pop mb.msgs

let mbox_length mb = Queue.length mb.msgs
