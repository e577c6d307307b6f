(** Declarative fault schedules.

    Experiments and tests describe {e what} goes wrong and {e when} —
    crashes, reboots, partitions, link degradations — as data; the plan
    is then executed against any engine while it runs. This keeps
    failure scenarios reproducible, printable, and reusable across
    protocols ("robustness to various deployment settings" needs the
    settings to be first-class). *)

(** What happens to a crashing node's disk. [Clean] keeps it intact
    (a durable app recovers on restart); [Amnesia] loses it entirely;
    [Torn] truncates the WAL mid-record, as a power cut during an
    append would. All three are identical for apps without a
    {!Proto.Durability} hook. *)
type crash_mode = Clean | Amnesia | Torn

type event =
  | Kill of int  (** crash the node with this id; its disk survives *)
  | Kill_amnesia of int  (** crash the node and wipe its disk *)
  | Torn_write of int  (** crash the node mid-append, tearing its WAL tail *)
  | Restart of int
  | Partition of int list * int list
      (** cut every link between the two groups, both directions *)
  | Heal_partition of int list * int list
  | Flap of { a : int list; b : int list; period : float; cycles : int }
      (** flapping partition: cut every link between the groups, run
          [period] seconds, heal, run [period] more — [cycles] times
          over. Ends healed; occupies [2 * period * cycles] seconds of
          the schedule, like {!Crash_storm} occupies its rounds. *)
  | Gray_link of { src : int; dst : int; loss : float }
      (** asymmetric gray failure: the [src -> dst] direction of one
          link silently drops [loss] of its traffic (latency and
          bandwidth keep their current effective values); the reverse
          direction is untouched *)
  | Heal_gray of { src : int; dst : int }
      (** undo {!Gray_link} on the directed link *)
  | Degrade of { endpoint : int; latency_factor : float; bandwidth_factor : float }
      (** multiply every path touching [endpoint] *)
  | Restore of int  (** undo {!Degrade} on the endpoint *)
  | Set_duplicate of { rate : float; copies : int }
      (** from now on, duplicate each delivered message with
          probability [rate], [copies] ghost copies each; rate 0 turns
          duplication back off *)
  | Set_corrupt of { rate : float; flip : float }
      (** from now on, garble each delivered message's wire encoding
          with probability [rate] (per-byte flip probability [flip]);
          rate 0 turns corruption back off *)
  | Set_reorder of { rate : float; window : float }
      (** from now on, hold back each message with probability [rate]
          for up to [window] extra seconds, letting later sends
          overtake it; rate 0 turns reordering back off *)
  | Crash_storm of { victims : int; period : float; rounds : int; mode : crash_mode }
      (** [rounds] rolling rounds: crash a rotation of [victims]
          nodes (in [mode]), run [period] seconds, revive them, move
          to the next rotation. Occupies [rounds * period] seconds of
          the schedule. *)
  | Overload of { node : int; rate : float }
      (** start a targeted injection burst: synthetic chaff arrives at
          [node] at [rate] messages per virtual second until the
          matching {!Heal_overload} — the engine's bounded queues and
          shed policy absorb it *)
  | Heal_overload of { node : int }  (** stop the node's injection burst *)
  | Set_clock_rate of { node : int; rate : float }
      (** from now on, [node]'s local clock runs at [rate] local
          seconds per global second (1.0 is nominal; 1.05 drifts 50ms
          ahead per second). Local time is continuous across the
          change; pending timers on the node re-anchor to the new
          rate. *)
  | Clock_step of { node : int; offset : float }
      (** jump [node]'s local clock by [offset] seconds, either
          direction — an NTP-style step. The rate is kept; timers whose
          local deadline the clock jumped past fire immediately. *)
  | Heal_clock of { node : int }
      (** snap [node]'s local clock back to global time (rate 1, zero
          offset) — the excursion ends with a discontinuity *)
  | Set_mutate of { rate : float; links : (int * int) list }
      (** from now on, byzantine-mutate each delivered message with
          probability [rate] (typed, decodes-clean perturbations via
          {!Wire.Mutator}). [links = []] applies to the global channel;
          a non-empty list pins the listed directed pairs, each riding
          on top of its current effective fault profile *)
  | Heal_mutate of { links : (int * int) list }
      (** undo the matching {!Set_mutate}: [links = []] zeroes the
          global mutate rate; a non-empty list clears the per-pair
          profiles, restoring whatever the pairs inherited before *)

type t
(** A finite schedule of timed fault events. *)

val plan : (float * event) list -> t
(** [plan events] with times in virtual seconds relative to execution
    start; events fire in time order regardless of list order.
    @raise Invalid_argument on a negative time, a [Degrade] with a
    non-positive factor, a [Partition] or [Flap] whose groups overlap,
    a fault rate outside [0,1], an [Overload] whose rate is not
    positive and finite, or a degenerate [Crash_storm] or
    [Flap]. Partition windows are also checked as a whole: a
    [Heal_partition] whose group pair was not cut earlier in the plan,
    or a second [Partition] (or [Flap]) of a pair still open, is
    rejected — group pairs are compared up to ordering, so
    [Heal_partition ([1;0], [2])] closes [Partition ([0;1], [2])].
    Overload windows get the same discipline per target node: no
    second [Overload] of a node still bursting, no [Heal_overload] of
    a node never overloaded. Clock excursions are checked per node:
    [Set_clock_rate] and [Clock_step] mark the node skewed (re-skewing
    an already-skewed node is allowed — drift-then-step is one
    excursion), and a [Heal_clock] of a node never skewed is rejected.
    A [Set_clock_rate] with a non-positive or non-finite rate, or a
    [Clock_step] with a non-finite offset, is rejected per event.
    Mutate windows are checked per scope (the sorted, deduplicated
    [links] list; [[]] is the global scope): a second [Set_mutate] of a
    scope still open, or a [Heal_mutate] of a scope never set, is
    rejected, as is a mutate event listing a self-link. *)

val events : t -> (float * event) list
(** The schedule, sorted by time. *)

val duration : t -> float
(** Time of the last event; 0 for an empty plan. *)

val pp : Format.formatter -> t -> unit

(** Executors are engine-specific because engines are app-specific;
    [Run] builds one from the primitives every engine offers. *)
module Run (E : sig
  type t

  val now : t -> Dsim.Vtime.t
  val run_for : t -> float -> unit
  val kill : t -> Proto.Node_id.t -> unit
  val kill_amnesia : t -> Proto.Node_id.t -> unit
  val torn_write : t -> Proto.Node_id.t -> unit
  val restart : t -> ?after:float -> Proto.Node_id.t -> unit
  val alive : t -> Proto.Node_id.t -> bool
  val netem : t -> Net.Netem.t
  val overload : t -> ?rate:float -> Proto.Node_id.t -> unit
  val heal_overload : t -> Proto.Node_id.t -> unit
  val set_clock_rate : t -> Proto.Node_id.t -> rate:float -> unit
  val clock_step : t -> Proto.Node_id.t -> offset:float -> unit
  val heal_clock : t -> Proto.Node_id.t -> unit
end) : sig
  val execute : ?and_then:float -> E.t -> t -> unit
  (** Runs the engine through the whole plan, firing each event at its
      offset, then keeps running for [and_then] extra seconds (default
      0). Degradations are applied as link overrides relative to the
      topology's current effective paths. [Restart] events (and crash
      storm revivals) lean on the engine's idempotent restart: a node
      already alive is left alone, so composed schedules cannot crash
      the executor. *)
end
