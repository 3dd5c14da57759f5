type 'item t = {
  mutable items : 'item array;
  mutable sites : int array;
  mutable len : int;
  mutable overflowed : bool;
}

let capacity = 4096

let create () = { items = [||]; sites = [||]; len = 0; overflowed = false }

(* The item array is polymorphic and so needs a filler value: the item
   being pushed serves. *)
let grow t item =
  let n = min capacity (max 16 (2 * t.len)) in
  let items = Array.make n item and sites = Array.make n 0 in
  Array.blit t.items 0 items 0 t.len;
  Array.blit t.sites 0 sites 0 t.len;
  t.items <- items;
  t.sites <- sites

let push t item ~site =
  if not t.overflowed then
    if t.len = capacity then begin
      t.overflowed <- true;
      t.len <- 0
    end
    else begin
      if t.len = Array.length t.items then grow t item;
      t.items.(t.len) <- item;
      t.sites.(t.len) <- site;
      t.len <- t.len + 1
    end

let length t = t.len
let item t i = t.items.(i)
let site t i = t.sites.(i)

let overflowed t = t.overflowed

let clear t =
  t.len <- 0;
  t.overflowed <- false
