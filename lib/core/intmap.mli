(** Persistent maps with [int] keys that can diff two versions in time
    proportional to what changed between them.

    The tree is [Stdlib.Map]'s: the same AVL node layout (six words per
    binding) and the same [add]/[remove]/rebalancing, so a map built by
    the same operations has the same shape, the same [Hashtbl.hash] and
    the same polymorphic comparison as a [Map.Make (Int)] one. What
    [Stdlib.Map] hides and this module uses is the tree itself: two
    versions of a map derived from one another share every subtree the
    edits in between did not touch, and {!diff} skips those subtrees
    without entering them. *)

type key = int
type +'a t

val empty : 'a t
val is_empty : 'a t -> bool
val add : key -> 'a -> 'a t -> 'a t
val remove : key -> 'a t -> 'a t

val find : key -> 'a t -> 'a
(** @raise Not_found when the key is unbound. *)

val find_opt : key -> 'a t -> 'a option
val mem : key -> 'a t -> bool

val iter : (key -> 'a -> unit) -> 'a t -> unit
(** In increasing key order, as are [fold] and [bindings]. *)

val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val bindings : 'a t -> (key * 'a) list

val cardinal : 'a t -> int
(** O(n): the tree does not store its size. *)

val of_seq : (key * 'a) Seq.t -> 'a t
(** Later bindings of a key replace earlier ones. *)

val filter : (key -> 'a -> bool) -> 'a t -> 'a t
(** Returns the map itself, not a copy, when [p] keeps every binding. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

val diff :
  added:(key -> 'a -> 'b -> 'b) ->
  removed:(key -> 'a -> 'b -> 'b) ->
  changed:(key -> 'a -> 'a -> 'b -> 'b) ->
  'a t ->
  'a t ->
  'b ->
  'b
(** [diff ~added ~removed ~changed prev next acc] folds over the
    bindings that differ between [prev] and [next], in strictly
    increasing key order: [added k v] for a key only [next] binds,
    [removed k v] for a key only [prev] binds, and [changed k v v'] for
    a key bound to [v] in [prev] and to a different block [v'] in
    [next]. Values are compared physically, so a value rebuilt equal in
    a fresh block is reported as changed; the callback decides whether
    that counts.

    A subtree that is the same block in both maps is skipped whole, so
    diffing a map against one derived from it by [k] edits costs
    O(k log² n) rather than O(n). The walk itself allocates nothing
    beyond what the callbacks do: pass them as top-level functions, not
    closures built per call, to keep it that way. *)
