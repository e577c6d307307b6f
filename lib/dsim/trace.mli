(** Bounded in-memory trace of simulation events.

    Each record carries the virtual time at which it was produced, a
    severity, a component tag (e.g. ["engine"], ["steering"]) and a
    message. Traces are consulted by tests and printed by the CLI's
    [--verbose] mode; the simulator itself never reads them back.

    A minimum-level gate makes below-threshold records free: a gated
    {!logf} never runs the formatter, so hot-path [Debug] sites cost a
    comparison rather than a [Format.kasprintf] allocation. *)

type level = Debug | Info | Warn | Error

type record = { time : Vtime.t; level : level; component : string; message : string }

type t

val create : ?capacity:int -> ?min_level:level -> unit -> t
(** [capacity] bounds the number of retained records (default 100_000);
    the oldest records are discarded first.  Records below [min_level]
    (default [Debug], i.e. everything passes) are counted in
    {!suppressed} and otherwise dropped without formatting. *)

val min_level : t -> level
val set_min_level : t -> level -> unit

val enabled : t -> level -> bool
(** Whether a record at this level would currently be retained. *)

val suppressed : t -> int
(** Records dropped by the level gate since creation. *)

val log : t -> Vtime.t -> level -> component:string -> string -> unit

val logf :
  t -> Vtime.t -> level -> component:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!log} but lazy about formatting: when the level is gated the
    format arguments are consumed without being rendered. *)

val records : t -> record list
(** Retained records, oldest first. *)

val count : t -> int
(** Total records ever logged, including discarded ones (but not
    level-suppressed ones). *)

val find : t -> component:string -> substring:string -> record list
(** Retained records from [component] whose message contains
    [substring]. *)

val contains_substring : string -> string -> bool
(** [contains_substring haystack needle] — allocation-free scan; the
    empty needle matches everything.  Exposed for tests and reuse. *)

val pp_record : Format.formatter -> record -> unit
