(** CPU model with the paper's two-level priority scheme (Section 4.1):

    - {e system} requests (lock operations, message protocol processing,
      I/O initiation) are served FIFO and have absolute priority;
    - {e user} requests (application object processing) share the
      processor equally (processor sharing) whenever no system request
      is active.

    Costs are expressed in {e instructions}; the CPU converts them to
    simulated time through its MIPS rating.  Both entry points block the
    calling fiber until the work completes. *)

type t

val create : Simcore.Engine.t -> mips:float -> t
(** A CPU executing [mips] million instructions per second. *)

val idle_copy : t -> t
(** [idle_copy t] is a fresh CPU of [t]'s rating whose utilization
    integrates from [t]'s origin (its creation or last {!reset_stats}):
    exactly the CPU that would have been created and reset alongside
    [t] and left idle until now.  Lets a population share one idle CPU
    and build its own only on first use.  Raises [Invalid_argument] if
    [t] ever ran work. *)

val system : t -> float -> unit
(** [system t instr] runs [instr] instructions at system priority.
    User-level work in progress is suspended until the system queue
    drains. *)

val user : t -> float -> unit
(** [user t instr] runs [instr] instructions under processor sharing
    with the other active user requests. *)

val utilization : t -> float
(** Fraction of time the CPU was busy (system or user) since creation
    or the last {!reset_stats}. *)

val reset_stats : t -> unit
(** Restart utilization integration (used after warm-up). *)

val active_users : t -> int
(** Number of user-class jobs currently in service (for tests). *)

val attach_timeline : t -> timeline:Telemetry.Timeline.t -> track:int -> unit
(** Record a "busy" span on [track] for every idle->busy->idle cycle
    (detected on the same edges as the utilization integral).  Pure
    observation: no events, no RNG draws. *)
