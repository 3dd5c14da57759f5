(** Monomorphic event core: the engine's clock, sequence counter and
    pending-event set in one module.

    Entries are (time, seq, action) triples ordered lexicographically by
    [(time, seq)]; seqs are assigned internally from a monotone counter,
    so the order is strict and the drain order is independent of
    internal arrangement.  Storage is structure-of-arrays — an unboxed
    float array of times, an int array of seqs, an action array — so
    pushing an event allocates nothing.

    Two containers share the order: a 4-ary min-heap for future events
    and a FIFO ring for zero-delay events (entries stamped with the
    current clock).  {!pop_min} arbitrates between them by [(time, seq)],
    producing exactly the sequence a single heap would, and advances the
    clock to the popped entry's time.

    The clock and seq counter live here, rather than in {!Engine}, so
    the zero-delay path ({!push_now} / {!pop_min}) passes no float
    across a function-call boundary: without flambda such an argument
    or return is boxed — an allocation per event.

    Used by {!Engine}. *)

type t

val create : unit -> t
(** An empty queue; each container starts at 64 slots and grows by
    doubling.  The clock starts at [0.0]. *)

val clock : t -> float
(** Current time: the time of the last entry popped, or the last
    {!set_clock} value if later. *)

val set_clock : t -> float -> unit
(** Advance the clock (e.g. to a [run_until] limit).  Moving it below a
    queued zero-delay entry breaks the ring's sort invariant; the next
    {!push_now} will then raise. *)

val size : t -> int
(** Queued entries. *)

val is_empty : t -> bool

val push_at : t -> time:float -> (unit -> unit) -> int
(** Add a future event to the heap and return its seq.  O(log4 n),
    allocation-free after the arrays are warm.  [time] must not precede
    the clock (unchecked here; {!Engine} enforces it). *)

val push_now : t -> (unit -> unit) -> int
(** Add an event at the current clock to the ring and return its seq.
    O(1) and allocation-free. *)

val has_before : t -> float -> bool
(** [has_before q limit] is true when an entry with time <= [limit]
    is queued — the [run_until] loop condition, fused so the empty check
    and the arbitration happen in one call. *)

val pop_min : t -> unit -> unit
(** Remove the earliest entry, advance the clock to its time, and
    return its action.  Raises [Invalid_argument] when empty. *)

val popped : t -> int
(** Total entries removed so far, by {!pop_min} or the drain
    loops — the engine's events-processed counter. *)

val drain : t -> unit
(** Pop and run entries until the queue is empty: the fused engine hot
    loop.  Equivalent to calling [(pop_min q) ()] until empty, with the
    ring-only fast path inlined. *)

val drain_until : t -> float -> unit
(** Like {!drain} but stops (without popping) once the earliest entry's
    time exceeds the limit.  Does not move the clock to the limit. *)
