type 'a t = {
  expected : int;
  mutable results : 'a list; (* reverse arrival order *)
  done_ivar : 'a list Ivar.t;
}

let create expected =
  if expected < 0 then invalid_arg "Gather.create: negative count";
  let t = { expected; results = []; done_ivar = Ivar.create () } in
  if expected = 0 then Ivar.fill t.done_ivar [];
  t

let add t r =
  if List.length t.results >= t.expected then
    invalid_arg "Gather.add: more results than expected";
  t.results <- r :: t.results;
  if List.length t.results = t.expected then
    Ivar.fill t.done_ivar (List.rev t.results)

let wait t = Ivar.read t.done_ivar
let arrived t = List.length t.results
