(** Generic object-base model (OCB-style).

    A seed-deterministic population of objects, each assigned a class,
    linked by an inter-object reference DAG with tunable fan-out and
    depth: objects split into [depth] contiguous levels and every
    non-leaf object references a uniform [1, 2*fanout-1] (mean
    [fanout]) distinct objects of the next level.  Level-0 objects are
    the traversal roots.  [generate] is a pure function of [(spec,
    seed)], so any worker that rebuilds the base gets bit-identical
    arrays — the property behind jobs=1 == jobs=N reproducibility. *)

type spec = {
  classes : int;  (** distinct object classes, in [1, objects] *)
  objects : int;  (** population size *)
  fanout : int;  (** mean references per non-leaf object, in [1, 64] *)
  depth : int;  (** levels of the reference DAG, in [1, 64] *)
}

type t = {
  spec : spec;
  class_of : int array;  (** object -> class *)
  refs : int array array;  (** object -> referenced objects (next level) *)
  roots : int array;  (** the level-0 objects *)
  instances : int array array;  (** class -> member objects, ascending *)
}

val validate_spec : spec -> unit
(** Raises [Invalid_argument] with a friendly message on an
    out-of-range knob. *)

val generate : spec -> seed:int -> t
(** Build the object base; validates the spec first. *)

val level_of : spec -> int -> int
val num_objects : t -> int
val num_classes : t -> int

val mean_fanout : t -> float
(** Edges per non-leaf object (empirically near [spec.fanout]). *)

val max_depth : t -> int
(** Longest root-to-leaf reference path, in objects (at most
    [spec.depth]). *)
