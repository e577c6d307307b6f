(** Hash tables keyed by a directed endpoint pair [(src, dst)].

    The per-pair state of the network model, the failure detector, the
    circuit breakers and the engine's link handles is looked up on every
    delivery and on every feature a handler builds. These tables hash
    and compare a pair as two ints, without the polymorphic primitives
    a [(int * int, _) Hashtbl.t] calls. *)

include Hashtbl.S with type key = int * int
