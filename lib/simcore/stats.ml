module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable sum : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; sum = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.sum <- t.sum +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let sum t = t.sum

  let reset t =
    t.n <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.min <- infinity;
    t.max <- neg_infinity;
    t.sum <- 0.0
end

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

module Time_weighted = struct
  type t = {
    mutable start : float;
    mutable last : float;
    mutable value : float;
    mutable integral : float;
  }

  let create ~now = { start = now; last = now; value = 0.0; integral = 0.0 }

  let update t ~now v =
    t.integral <- t.integral +. (t.value *. (now -. t.last));
    t.last <- now;
    t.value <- v

  let origin t = t.start

  let average t ~now =
    let span = now -. t.start in
    if span <= 0.0 then 0.0
    else (t.integral +. (t.value *. (now -. t.last))) /. span

  let reset t ~now =
    t.start <- now;
    t.last <- now;
    t.integral <- 0.0
end

(* Two-sided 90% Student-t critical values (0.95 quantile) for small df,
   then the normal approximation. *)
let t90_table =
  [| 6.314; 2.920; 2.353; 2.132; 2.015; 1.943; 1.895; 1.860; 1.833; 1.812;
     1.796; 1.782; 1.771; 1.761; 1.753; 1.746; 1.740; 1.734; 1.729; 1.725;
     1.721; 1.717; 1.714; 1.711; 1.708; 1.706; 1.703; 1.701; 1.699; 1.697 |]

let t90 df =
  if df <= 0 then infinity
  else if df <= Array.length t90_table then t90_table.(df - 1)
  else 1.645

module Batch_means = struct
  type t = {
    batch_size : int;
    batch_acc : Welford.t;  (* observations of the current partial batch *)
    batches : Welford.t;    (* one sample per complete batch *)
    raw : Welford.t;        (* every observation, for the fallback mean *)
  }

  let create ~batch_size =
    if batch_size <= 0 then invalid_arg "Batch_means.create: batch_size";
    {
      batch_size;
      batch_acc = Welford.create ();
      batches = Welford.create ();
      raw = Welford.create ();
    }

  let add t x =
    Welford.add t.raw x;
    Welford.add t.batch_acc x;
    if Welford.count t.batch_acc >= t.batch_size then begin
      Welford.add t.batches (Welford.mean t.batch_acc);
      Welford.reset t.batch_acc
    end

  let num_batches t = Welford.count t.batches

  let mean t =
    if num_batches t > 0 then Welford.mean t.batches else Welford.mean t.raw

  let ci90_half_width t =
    let n = num_batches t in
    if n < 2 then infinity
    else t90 (n - 1) *. Welford.stddev t.batches /. sqrt (float_of_int n)

  let relative_ci90 t =
    let m = abs_float (mean t) in
    if m = 0.0 then infinity else ci90_half_width t /. m
end
