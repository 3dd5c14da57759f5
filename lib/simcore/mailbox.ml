type 'a t = {
  msgs : 'a Queue.t;
  readers : 'a Proc.waiter Queue.t; (* blocked receivers, FIFO *)
}

let create (_ : Engine.t) = { msgs = Queue.create (); readers = Queue.create () }

let send t msg =
  match Queue.take_opt t.readers with
  | Some w -> Proc.resume w (Ok msg)
  | None -> Queue.push msg t.msgs

let recv t =
  if Queue.is_empty t.msgs then
    Proc.suspend (fun w -> Queue.push w t.readers)
  else Queue.pop t.msgs

let length t = Queue.length t.msgs
