(** Safety and liveness properties (paper §3.2).

    Safety properties must hold in every reachable view; the engine
    checks them after each event that changed a live node's state or
    the live set, and the explorer checks them in every explored
    future. Liveness properties are approximated, as in CrystalBall, by
    bounded-horizon reachability: the explorer reports a liveness
    concern if no explored future reaches a view satisfying the
    predicate.

    Contract for safety properties the engine checks: a property must
    be a function of the live node states in the view. The engine
    re-checks only when a handler returned a physically different
    state, a node was killed or a node booted; a change to the view's
    [inflight] or [time] alone does not trigger a re-check. *)

type kind = Safety | Liveness

type 'view t = { name : string; kind : kind; holds : 'view -> bool }

val safety : name:string -> ('view -> bool) -> 'view t
val liveness : name:string -> ('view -> bool) -> 'view t

val check : 'view t list -> 'view -> 'view t list
(** Safety properties violated by the view (liveness ones are never
    reported here — they need a horizon, see [Mc.Explorer]). *)

val safety_holds : 'view t list -> 'view -> bool
(** [true] iff every safety property holds. *)

val map_view : ('b -> 'a) -> 'a t -> 'b t
