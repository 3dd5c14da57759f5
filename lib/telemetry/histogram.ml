type t = {
  lo : float;
  buckets_per_decade : int;
  nb : int;  (* regular buckets; counts has nb + 2 slots once allocated *)
  mutable counts : int array;  (* empty until the first sample *)
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create ?(lo = 1e-6) ?(hi = 1e4) ?(buckets_per_decade = 90) () =
  if not (lo > 0.0 && hi > lo) then
    invalid_arg "Histogram.create: need 0 < lo < hi";
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create: buckets_per_decade < 1";
  let decades = Float.log10 (hi /. lo) in
  let nb = int_of_float (Float.ceil (decades *. float_of_int buckets_per_decade)) in
  {
    lo;
    buckets_per_decade;
    nb;
    counts = [||];
    n = 0;
    sum = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
  }

let num_buckets t = t.nb
let growth_factor t = 10.0 ** (1.0 /. float_of_int t.buckets_per_decade)

(* Lower edge of regular bucket [i] (0-based), in closed form.  Bucket i
   covers [lo*10^(i/bpd), lo*10^((i+1)/bpd)). *)
let bucket_lo t i = t.lo *. (10.0 ** (float_of_int i /. float_of_int t.buckets_per_decade))
let bucket_hi t i = t.lo *. (10.0 ** (float_of_int (i + 1) /. float_of_int t.buckets_per_decade))

(* Slot in [counts]: 0 = underflow, 1..nb = regular, nb+1 = overflow. *)
let slot_of t v =
  if v < t.lo then 0
  else
    let i =
      int_of_float (Float.log10 (v /. t.lo) *. float_of_int t.buckets_per_decade)
    in
    let i = if i < 0 then 0 else i in
    if i >= t.nb then t.nb + 1 else i + 1

let record t v =
  if v = v (* drop NaNs *) then begin
    let v = if v < 0.0 then 0.0 else v in
    let s = slot_of t v in
    if Array.length t.counts = 0 then t.counts <- Array.make (t.nb + 2) 0;
    t.counts.(s) <- t.counts.(s) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v
  end

let count t = t.n
let total t = t.sum
let is_empty t = t.n = 0
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then 0.0 else t.vmin
let max_value t = if t.n = 0 then 0.0 else t.vmax

let same_geometry a b =
  a.lo = b.lo && a.buckets_per_decade = b.buckets_per_decade && a.nb = b.nb

let merge ~into src =
  if not (same_geometry into src) then
    invalid_arg "Histogram.merge: bucket geometries differ";
  if Array.length into.counts = 0 then into.counts <- Array.copy src.counts
  else
    for i = 0 to Array.length src.counts - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax

let copy t = { t with counts = Array.copy t.counts }

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.sum <- 0.0;
  t.vmin <- infinity;
  t.vmax <- neg_infinity

(* The estimate for rank r is the upper edge of the bucket holding the
   r-th smallest sample: never below the exact quantile, and at most one
   bucket-width (a factor of [growth_factor]) above it.  The underflow
   bucket reports the exact minimum and the overflow bucket the exact
   maximum, so the bound holds for out-of-range samples too. *)
let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let s = ref 0 and cum = ref 0 in
    (try
       for i = 0 to t.nb + 1 do
         cum := !cum + t.counts.(i);
         if !cum >= rank then begin
           s := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !s = 0 then t.vmin
    else if !s = t.nb + 1 then t.vmax
    else Float.min (bucket_hi t (!s - 1)) t.vmax
  end

let iter_buckets t f =
  if Array.length t.counts > 0 then begin
    if t.counts.(0) > 0 then f ~lo:0.0 ~hi:t.lo ~count:t.counts.(0);
    for i = 0 to t.nb - 1 do
      if t.counts.(i + 1) > 0 then
        f ~lo:(bucket_lo t i) ~hi:(bucket_hi t i) ~count:t.counts.(i + 1)
    done;
    if t.counts.(t.nb + 1) > 0 then
      f ~lo:(bucket_lo t t.nb) ~hi:infinity ~count:t.counts.(t.nb + 1)
  end
