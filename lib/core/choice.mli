(** Choice points — the heart of the paper's programming model.

    Instead of hard-coding a policy ("forward the join to a random
    child"), a handler builds a {!t} listing the alternatives it could
    take, each annotated with a label and a feature vector, and asks the
    runtime to pick one. The label, the per-alternative features and the
    arity are all a resolver sees — never the application values — so
    one resolver implementation serves every protocol. An alternative
    carries nothing else: anything a policy should weigh goes into its
    features. *)

type 'a alternative = {
  value : 'a;
  features : (string * float) list;
      (** numeric hints the resolver may use, e.g.
          [("rtt_ms", 12.); ("depth", 3.)] *)
}

type 'a t = private { label : string; alternatives : 'a alternative list }

val alt : ?features:(string * float) list -> 'a -> 'a alternative

val make : label:string -> 'a alternative list -> 'a t
(** @raise Invalid_argument if the alternative list is empty or the
    label is empty. *)

val of_values : label:string -> ?feature:('a -> (string * float) list) -> 'a list -> 'a t
(** Convenience: wraps plain values, deriving features with [feature]
    (default: none). *)

val arity : 'a t -> int

val nth : 'a t -> int -> 'a
(** @raise Invalid_argument if the index is out of range. *)

val label : 'a t -> string

(** A resolver's view of a pending choice: everything except the
    application values. [occurrence] counts choice points already
    resolved while processing the current event, so a forced replay can
    target exactly one of several nested choices. *)
type site = {
  site_label : string;
  site_node : int;
  site_occurrence : int;
  site_arity : int;
  site_features : (string * float) list array;
}

val site : node:int -> occurrence:int -> 'a t -> site

val feature : site -> alt:int -> string -> float option
(** Looks up one named feature of one alternative. *)
