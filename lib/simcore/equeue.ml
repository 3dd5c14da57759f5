(* Monomorphic event core: the virtual clock, the event sequence
   counter, and the pending set, fused into one module so the hottest
   operations never pass a float across a function-call boundary
   (without flambda, a float argument or return that crosses a
   non-inlined call is boxed — an allocation per event).

   Two containers, one total order.  Every entry is a (time, seq,
   action) triple; the global order is lexicographic (time, seq), and
   seqs are unique, so the order is strict — any internal arrangement
   that respects it drains identically.

   - The *heap* holds future events: a 4-ary min-heap in
     structure-of-arrays layout (an unboxed float array of times, an
     int array of seqs, an action array), compared with primitive
     float/int comparisons.  No per-event allocation: pushing writes
     three array slots.
   - The *ring* holds zero-delay events: every entry is stamped with
     the current clock, and since the clock never recedes and seqs grow
     monotonically, the ring is FIFO-sorted by (time, seq) by
     construction.  Capacities are powers of two, so the circular
     indexing is a mask; push and pop are pointer bumps.

   [pop_min] arbitrates ring-head vs heap-root by (time, seq), which is
   exactly the order a single heap would produce — the split is
   invisible to the simulation (golden tables stay byte-identical) —
   and advances the clock to the popped entry's time.

   This is the engine's innermost loop, so the hot paths use unsafe
   array accesses.  Every such index is bounded by construction: ring
   indices are masked by the (power-of-two) capacity, heap indices stay
   below [hsize <= Array.length htimes], and the three parallel arrays
   always share one length. *)

let nop () = ()

(* Unboxed scratch slots (a [mutable ... : float] field in a mixed
   record would be boxed, allocating on every write). *)
let clock_slot = 0 (* current simulated time *)
let rlast_slot = 1 (* time of the last ring push: the sortedness guard *)

type t = {
  floats : float array;
  mutable seq : int;
  mutable npopped : int;
  (* 4-ary SoA min-heap on (time, seq) *)
  mutable htimes : float array;
  mutable hseqs : int array;
  mutable hacts : (unit -> unit) array;
  mutable hsize : int;
  (* zero-delay FIFO ring *)
  mutable rtimes : float array;
  mutable rseqs : int array;
  mutable racts : (unit -> unit) array;
  mutable rhead : int;
  mutable rcount : int;
}

(* First allocation of each container; both grow by doubling.  A power
   of two, since the ring indexes with a mask. *)
let initial_capacity = 64

let create () =
  {
    floats = [| 0.0; neg_infinity |];
    seq = 0;
    npopped = 0;
    htimes = [||];
    hseqs = [||];
    hacts = [||];
    hsize = 0;
    rtimes = [||];
    rseqs = [||];
    racts = [||];
    rhead = 0;
    rcount = 0;
  }

let clock q = Array.unsafe_get q.floats clock_slot
let set_clock q v = Array.unsafe_set q.floats clock_slot v
let size q = q.hsize + q.rcount
let is_empty q = q.hsize + q.rcount = 0

(* --- heap ---------------------------------------------------------------- *)

let heap_grow q =
  let cap = Array.length q.htimes in
  if q.hsize >= cap then begin
    let ncap = if cap = 0 then initial_capacity else cap * 2 in
    let ntimes = Array.make ncap 0.0 in
    let nseqs = Array.make ncap 0 in
    let nacts = Array.make ncap nop in
    Array.blit q.htimes 0 ntimes 0 q.hsize;
    Array.blit q.hseqs 0 nseqs 0 q.hsize;
    Array.blit q.hacts 0 nacts 0 q.hsize;
    q.htimes <- ntimes;
    q.hseqs <- nseqs;
    q.hacts <- nacts
  end

(* Hole-based sift: bubble entries toward the hole and write the moving
   element once, instead of swapping three arrays at every level. *)

let heap_push q time seq act =
  heap_grow q;
  let ts = q.htimes and ss = q.hseqs and acts = q.hacts in
  let i = ref q.hsize in
  q.hsize <- q.hsize + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = Array.unsafe_get ts p in
    if time < pt || (time = pt && seq < Array.unsafe_get ss p) then begin
      Array.unsafe_set ts !i pt;
      Array.unsafe_set ss !i (Array.unsafe_get ss p);
      Array.unsafe_set acts !i (Array.unsafe_get acts p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set ts !i time;
  Array.unsafe_set ss !i seq;
  Array.unsafe_set acts !i act

(* Pop the root: move the last entry into the hole at the root and sift
   it down.  The moving entry stays in locals throughout, so its time is
   never boxed. *)
let heap_remove_root q =
  let n = q.hsize - 1 in
  q.hsize <- n;
  let ts = q.htimes and ss = q.hseqs and acts = q.hacts in
  let time = Array.unsafe_get ts n in
  let seq = Array.unsafe_get ss n in
  let act = Array.unsafe_get acts n in
  Array.unsafe_set acts n nop;
  (* release the closure *)
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c1 = (4 * !i) + 1 in
      if c1 >= n then continue := false
      else begin
        let m = ref c1 in
        let mt = ref (Array.unsafe_get ts c1) in
        let last = min (c1 + 3) (n - 1) in
        for c = c1 + 1 to last do
          let ct = Array.unsafe_get ts c in
          if
            ct < !mt
            || (ct = !mt && Array.unsafe_get ss c < Array.unsafe_get ss !m)
          then begin
            m := c;
            mt := ct
          end
        done;
        if !mt < time || (!mt = time && Array.unsafe_get ss !m < seq) then begin
          Array.unsafe_set ts !i !mt;
          Array.unsafe_set ss !i (Array.unsafe_get ss !m);
          Array.unsafe_set acts !i (Array.unsafe_get acts !m);
          i := !m
        end
        else continue := false
      end
    done;
    Array.unsafe_set ts !i time;
    Array.unsafe_set ss !i seq;
    Array.unsafe_set acts !i act
  end

(* --- ring ---------------------------------------------------------------- *)

let ring_grow q =
  let cap = Array.length q.rtimes in
  let ncap = if cap = 0 then initial_capacity else cap * 2 in
  let ntimes = Array.make ncap 0.0 in
  let nseqs = Array.make ncap 0 in
  let nacts = Array.make ncap nop in
  (* unwrap to offset 0 *)
  let mask = cap - 1 in
  for i = 0 to q.rcount - 1 do
    let j = (q.rhead + i) land mask in
    ntimes.(i) <- q.rtimes.(j);
    nseqs.(i) <- q.rseqs.(j);
    nacts.(i) <- q.racts.(j)
  done;
  q.rtimes <- ntimes;
  q.rseqs <- nseqs;
  q.racts <- nacts;
  q.rhead <- 0

(* The dropped slot is NOT cleared: writing [nop] into the action array
   costs a write barrier on the hottest path, and a stale closure
   lingers only until the slot is reused — at most [capacity] closures
   are retained.  [ring_grow] copies only the live range, so the
   staleness never spreads. *)
let ring_drop_head q =
  q.rhead <- (q.rhead + 1) land (Array.length q.rtimes - 1);
  q.rcount <- q.rcount - 1

(* --- pushes -------------------------------------------------------------- *)

let push_now q act =
  let time = Array.unsafe_get q.floats clock_slot in
  (* FIFO-sortedness is what makes the ring a valid heap substitute.
     The clock never recedes and seqs grow, so this can only trip if
     [set_clock] is abused; guard with two scalar compares. *)
  if q.rcount > 0 && time < Array.unsafe_get q.floats rlast_slot then
    invalid_arg "Equeue.push_now: clock receded below a queued entry";
  if q.rcount >= Array.length q.rtimes then ring_grow q;
  let seq = q.seq + 1 in
  q.seq <- seq;
  let slot = (q.rhead + q.rcount) land (Array.length q.rtimes - 1) in
  Array.unsafe_set q.rtimes slot time;
  Array.unsafe_set q.rseqs slot seq;
  Array.unsafe_set q.racts slot act;
  Array.unsafe_set q.floats rlast_slot time;
  q.rcount <- q.rcount + 1;
  seq

let push_at q ~time act =
  let seq = q.seq + 1 in
  q.seq <- seq;
  heap_push q time seq act;
  seq

(* --- arbitration ------------------------------------------------------------ *)

(* True when the ring head precedes the heap root in (time, seq) order.
   Only meaningful when at least one container is non-empty. *)
let ring_first q =
  q.rcount > 0
  && (q.hsize = 0
     ||
     let rt = Array.unsafe_get q.rtimes q.rhead
     and ht = Array.unsafe_get q.htimes 0 in
     rt < ht
     || rt = ht
        && Array.unsafe_get q.rseqs q.rhead < Array.unsafe_get q.hseqs 0)

let empty_err () = invalid_arg "Equeue: empty"

let has_before q limit =
  (not (is_empty q))
  &&
  let mt =
    if ring_first q then Array.unsafe_get q.rtimes q.rhead
    else Array.unsafe_get q.htimes 0
  in
  mt <= limit

let pop_min q =
  if is_empty q then empty_err ();
  q.npopped <- q.npopped + 1;
  if ring_first q then begin
    Array.unsafe_set q.floats clock_slot (Array.unsafe_get q.rtimes q.rhead);
    let act = Array.unsafe_get q.racts q.rhead in
    ring_drop_head q;
    act
  end
  else begin
    Array.unsafe_set q.floats clock_slot (Array.unsafe_get q.htimes 0);
    let act = Array.unsafe_get q.hacts 0 in
    heap_remove_root q;
    act
  end

let popped q = q.npopped

(* Fused drain loops: the engine's hot path when no event budget is in
   force.  The ring-only case (every fiber resumption and wakeup while
   no future event is pending) is inlined by hand: clock store, action
   load, head bump, call — no arbitration, no cross-module calls.  The
   counter is bumped before each action so an exception escaping an
   event leaves the tally correct. *)

let drain q =
  let live = ref true in
  while !live do
    if q.hsize = 0 then
      if q.rcount = 0 then live := false
      else begin
        Array.unsafe_set q.floats clock_slot
          (Array.unsafe_get q.rtimes q.rhead);
        let act = Array.unsafe_get q.racts q.rhead in
        ring_drop_head q;
        q.npopped <- q.npopped + 1;
        act ()
      end
    else (pop_min q) ()
  done

let drain_until q limit =
  let live = ref true in
  while !live do
    if q.hsize = 0 then
      if q.rcount = 0 || Array.unsafe_get q.rtimes q.rhead > limit then
        live := false
      else begin
        Array.unsafe_set q.floats clock_slot
          (Array.unsafe_get q.rtimes q.rhead);
        let act = Array.unsafe_get q.racts q.rhead in
        ring_drop_head q;
        q.npopped <- q.npopped + 1;
        act ()
      end
    else if has_before q limit then (pop_min q) ()
    else live := false
  done
