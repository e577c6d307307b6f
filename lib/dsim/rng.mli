(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows from one of these
    generators, seeded explicitly, so that whole experiments are
    bit-reproducible. The generator is mutable; use {!split} to derive
    independent streams (e.g. one per node) from a parent stream. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** Independent copy sharing the current position. *)

val split : t -> t
(** [split rng] advances [rng] and returns a new generator whose stream
    is statistically independent of the parent's subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int rng n] is uniform in [\[0, n)]. @raise Invalid_argument if
    [n <= 0]. *)

val float : t -> float -> float
(** [float rng x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val exponential : t -> float -> float
(** [exponential rng mean] samples an exponential distribution with the
    given mean. @raise Invalid_argument if [mean <= 0]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. @raise Invalid_argument on
    the empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement rng k xs] is [k] distinct elements of
    [xs] in random order, or a permutation of [xs] if it has fewer than
    [k] elements. *)
