(* Spans recorded by the benchmark around its own calls into each layer
   (name, start, end, parent, cell), kept in memory and written out as
   Chrome trace-event JSON when the run ends.  A recorder belongs to one
   cell and hence to one domain; only span ids are shared, through an
   atomic counter. *)

type t = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root span *)
  cell : int;  (** -1 outside any cell *)
  domain : int;
  start : float;
  stop : float;
}

type recorder = {
  on : bool;
  cell : int;
  mutable parent : int;
  mutable spans : t list;
}

(* Host seconds from CLOCK_MONOTONIC, at nanosecond resolution: a span
   around a no-op step still reads as measured, not as 0. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let next_id = Atomic.make 0

let recorder ~on ~cell ~parent = { on; cell; parent; spans = [] }

(* Run [f] and return its result with its host seconds; when the
   recorder is on, also keep a span for it, parented to the span
   enclosing the call.  The untraced path only reads the clock twice. *)
let time r name f =
  if not r.on then begin
    let t0 = clock () in
    let x = f () in
    (x, clock () -. t0)
  end
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = r.parent in
    r.parent <- id;
    let start = clock () in
    let x = f () in
    let stop = clock () in
    r.parent <- parent;
    let domain = (Domain.self () :> int) in
    r.spans <- { name; id; parent; cell = r.cell; domain; start; stop } :: r.spans;
    (x, stop -. start)
  end

(* Self time: a span's duration minus the part its children cover. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let n, total, own =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. s.stop -. s.start, own +. self))
    spans;
  Hashtbl.fold (fun name (n, total, own) acc -> (name, n, total, own) :: acc)
    by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let pp_self_times oc spans =
  Printf.fprintf oc "%-34s %6s %12s %12s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, n, total, own) ->
      Printf.fprintf oc "%-34s %6d %12.6f %12.6f\n" name n total own)
    (self_times spans)

let write_chrome path spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"cell\":%d}}"
        (if i = 0 then "" else ",")
        s.name s.domain
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.cell)
    (List.sort (fun a b -> compare a.start b.start) spans);
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
