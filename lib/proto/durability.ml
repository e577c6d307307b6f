(** The persistence contract between an application and the engine.

    An app that opts in (via {!App_intf.APP.durable}) describes what
    survives a crash and how: [codec] is the snapshot encoding of its
    durable projection (non-durable fields — timers, sessions,
    in-flight bookkeeping — may encode as anything; [restore] decides
    what is believed), [log] turns one state transition into at most
    one write-ahead record, [replay] applies a record during recovery,
    and [restore] merges the recovered durable state into the state a
    fresh boot produced.

    The engine enforces the write-ahead discipline: a transition whose
    [log] returns a record has its outbound messages withheld until
    the simulated disk reports the record durable, so no node ever
    tells a peer something its disk could still forget. Recovery is
    total: a torn or corrupt WAL tail is dropped (and counted by the
    engine), a snapshot that no longer decodes falls back to amnesia —
    recovery never raises into the engine.

    Recovery contract, in order:
    + the engine runs [App.init] normally, producing [boot];
    + an empty store seeds an initial snapshot of [boot] and recovery
      ends there;
    + otherwise the snapshot is decoded with [codec] and every
      complete WAL record is folded through [replay] (stopping at the
      first failure), yielding [durable];
    + the node resumes with [restore ~boot ~durable], which is also
      compacted into a fresh snapshot.

    The ['msg] parameter ties the hook to its app signature; it keeps
    room for durability of in-flight messages without another
    signature change. *)

type ('state, 'msg) t = {
  codec : 'state Wire.Codec.t;
      (** snapshot codec for the durable projection of the state *)
  log : prev:'state -> next:'state -> string option;
      (** the WAL record this transition must make durable, if any *)
  replay : 'state -> string -> ('state, string) result;
      (** fold one WAL record into a recovering state *)
  restore : boot:'state -> durable:'state -> 'state;
      (** merge recovered durable fields into a freshly booted state *)
  snapshot_every : int;
      (** compact the WAL into a snapshot after this many records *)
}

(** [v codec] builds the naive strategy: every changed state appends a
    full snapshot record, recovery believes the durable state
    wholesale. [equal] (default structural equality) suppresses
    records for transitions that left the state unchanged — supply a
    real equality when the state contains sets or maps whose internal
    shape is insertion-order dependent. Apps with cheaper deltas
    supply their own [log]/[replay]; apps whose durable part is a
    projection supply [restore]. *)
let v ?(snapshot_every = 32) ?equal ?log ?replay ?restore codec =
  if snapshot_every <= 0 then invalid_arg "Durability.v: snapshot_every must be positive";
  let equal = match equal with Some e -> e | None -> Stdlib.( = ) in
  let log =
    match log with
    | Some l -> l
    | None ->
        fun ~prev ~next -> if equal prev next then None else Some (Wire.Codec.encode codec next)
  in
  let replay =
    match replay with Some r -> r | None -> fun _st record -> Wire.Codec.decode codec record
  in
  let restore =
    match restore with Some r -> r | None -> fun ~boot:_ ~durable -> durable
  in
  { codec; log; replay; restore; snapshot_every }

(** A persistent map that can fold over what changed between two of
    its versions, such as {!Core.Intmap}. *)
module type DIFF = sig
  type key
  type 'a t

  val diff :
    added:(key -> 'a -> 'b -> 'b) ->
    removed:(key -> 'a -> 'b -> 'b) ->
    changed:(key -> 'a -> 'a -> 'b -> 'b) ->
    'a t ->
    'a t ->
    'b ->
    'b
end

(** The delta a map-shaped durable field contributes to one WAL record.

    [changed prev next] lists every binding of [next] that [prev] lacks
    or holds a different value for, in descending key order; bindings
    [next] dropped are not listed. It is one [M.diff], so its cost is
    proportional to the change, not to the size of the map: a field
    the transition left alone is still the same map and costs one
    physical comparison, subtrees [next] still shares with [prev] are
    skipped unvisited, and a value still shared with [prev] passes
    before any structural comparison. It allocates only the returned
    list. *)
module Delta (M : DIFF) = struct
  let added k v acc = (k, v) :: acc
  let removed _ _ acc = acc
  let rewritten k v' v acc = if v' = v then acc else (k, v) :: acc

  let changed prev next =
    if prev == next then [] else M.diff ~added ~removed ~changed:rewritten prev next []
end
