(* The node layout and the algorithms for add, remove, rebalancing,
   join and filter are Stdlib.Map's, specialised to int keys, so a map
   built by the same operations has exactly the shape a [Map.Make (Int)]
   map would. *)

type key = int
type 'a t = Empty | Node of { l : 'a t; v : key; d : 'a; r : 'a t; h : int }

let height = function Empty -> 0 | Node { h; _ } -> h

let create l v d r =
  let hl = height l and hr = height r in
  Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let singleton v d = Node { l = Empty; v; d; r = Empty; h = 1 }

let bal l v d r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Empty -> invalid_arg "Intmap.bal"
    | Node { l = ll; v = lv; d = ld; r = lr; _ } -> (
        if height ll >= height lr then create ll lv ld (create lr v d r)
        else
          match lr with
          | Empty -> invalid_arg "Intmap.bal"
          | Node { l = lrl; v = lrv; d = lrd; r = lrr; _ } ->
              create (create ll lv ld lrl) lrv lrd (create lrr v d r))
  else if hr > hl + 2 then
    match r with
    | Empty -> invalid_arg "Intmap.bal"
    | Node { l = rl; v = rv; d = rd; r = rr; _ } -> (
        if height rr >= height rl then create (create l v d rl) rv rd rr
        else
          match rl with
          | Empty -> invalid_arg "Intmap.bal"
          | Node { l = rll; v = rlv; d = rld; r = rlr; _ } ->
              create (create l v d rll) rlv rld (create rlr rv rd rr))
  else Node { l; v; d; r; h = (if hl >= hr then hl + 1 else hr + 1) }

let empty = Empty
let is_empty = function Empty -> true | Node _ -> false

let rec add (x : key) data = function
  | Empty -> singleton x data
  | Node { l; v; d; r; h } as m ->
      if x = v then if d == data then m else Node { l; v = x; d = data; r; h }
      else if x < v then
        let ll = add x data l in
        if l == ll then m else bal ll v d r
      else
        let rr = add x data r in
        if r == rr then m else bal l v d rr

let rec find (x : key) = function
  | Empty -> raise Not_found
  | Node { l; v; d; r; _ } -> if x = v then d else find x (if x < v then l else r)

let rec find_opt (x : key) = function
  | Empty -> None
  | Node { l; v; d; r; _ } -> if x = v then Some d else find_opt x (if x < v then l else r)

let rec mem (x : key) = function
  | Empty -> false
  | Node { l; v; r; _ } -> x = v || mem x (if x < v then l else r)

(* The leftmost node, returned as the block itself so that taking a
   minimum allocates no pair. *)
let rec min_node = function
  | Empty -> invalid_arg "Intmap.min_node"
  | Node { l = Empty; _ } as n -> n
  | Node { l; _ } -> min_node l

let rec remove_min = function
  | Empty -> invalid_arg "Intmap.remove_min"
  | Node { l = Empty; r; _ } -> r
  | Node { l; v; d; r; _ } -> bal (remove_min l) v d r

(* [l] and [r] are siblings whose heights differ by at most 2. *)
let merge l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _, _ -> (
      match min_node r with
      | Node { v; d; _ } -> bal l v d (remove_min r)
      | Empty -> assert false)

let rec remove (x : key) = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } as m ->
      if x = v then merge l r
      else if x < v then
        let ll = remove x l in
        if l == ll then m else bal ll v d r
      else
        let rr = remove x r in
        if r == rr then m else bal l v d rr

let rec iter f = function
  | Empty -> ()
  | Node { l; v; d; r; _ } ->
      iter f l;
      f v d;
      iter f r

let rec fold f m acc =
  match m with Empty -> acc | Node { l; v; d; r; _ } -> fold f r (f v d (fold f l acc))

let rec bindings_into acc = function
  | Empty -> acc
  | Node { l; v; d; r; _ } -> bindings_into ((v, d) :: bindings_into acc r) l

let bindings m = bindings_into [] m

let rec cardinal = function Empty -> 0 | Node { l; r; _ } -> cardinal l + 1 + cardinal r
let of_seq s = Seq.fold_left (fun m (k, v) -> add k v m) Empty s

(* [join] and [concat] take operands of any heights; every key of the
   left one precedes every key of the right one. *)

let rec add_min v d = function
  | Empty -> singleton v d
  | Node { l; v = nv; d = nd; r; _ } -> bal (add_min v d l) nv nd r

let rec add_max v d = function
  | Empty -> singleton v d
  | Node { l; v = nv; d = nd; r; _ } -> bal l nv nd (add_max v d r)

let rec join l v d r =
  match (l, r) with
  | Empty, _ -> add_min v d r
  | _, Empty -> add_max v d l
  | ( Node { l = ll; v = lv; d = ld; r = lr; h = lh },
      Node { l = rl; v = rv; d = rd; r = rr; h = rh } ) ->
      if lh > rh + 2 then bal ll lv ld (join lr v d r)
      else if rh > lh + 2 then bal (join l v d rl) rv rd rr
      else create l v d r

let concat l r =
  match (l, r) with
  | Empty, t | t, Empty -> t
  | _, _ -> (
      match min_node r with
      | Node { v; d; _ } -> join l v d (remove_min r)
      | Empty -> assert false)

let rec filter p = function
  | Empty -> Empty
  | Node { l; v; d; r; _ } as m ->
      (* [p] sees the keys in increasing order *)
      let l' = filter p l in
      let keep = p v d in
      let r' = filter p r in
      if keep then if l == l' && r == r' then m else join l' v d r' else concat l' r'

type 'a enumeration = End | More of key * 'a * 'a t * 'a enumeration

let rec cons_enum m e =
  match m with Empty -> e | Node { l; v; d; r; _ } -> cons_enum l (More (v, d, r, e))

let equal eq m1 m2 =
  let rec go e1 e2 =
    match (e1, e2) with
    | End, End -> true
    | End, _ | _, End -> false
    | More (v1, d1, r1, e1), More (v2, d2, r2, e2) ->
        v1 = v2 && eq d1 d2 && go (cons_enum r1 e1) (cons_enum r2 e2)
  in
  go (cons_enum m1 End) (cons_enum m2 End)

(* ---------- diff ----------

   The walk follows [next]'s tree and carries the closed key range
   [lo, hi] of the current [next] subtree. [prev] is narrowed to that
   range by descending from the subtree it was narrowed to last until
   the root's key falls inside: every [prev] binding in range then lies
   below that root, and when the root is the very block [next] has
   here, both maps agree on the whole range. The range is of ints,
   never a bound option, so no step allocates; [v > lo] and [v < hi]
   guard the [v - 1] and [v + 1] that would wrap at [min_int] and
   [max_int]. *)

let rec narrow lo hi = function
  | Node { l; v; _ } when v > hi -> narrow lo hi l
  | Node { r; v; _ } when v < lo -> narrow lo hi r
  | t -> t

(* The node binding [x] in [t], or [Empty]: a block, not an option. *)
let rec locate (x : key) = function
  | Empty -> Empty
  | Node { l; v; r; _ } as t -> if x = v then t else locate x (if x < v then l else r)

let rec removed_in ~removed lo hi t acc =
  match t with
  | Empty -> acc
  | Node { l; v; d; r; _ } ->
      if v < lo then removed_in ~removed lo hi r acc
      else if v > hi then removed_in ~removed lo hi l acc
      else removed_in ~removed lo hi r (removed v d (removed_in ~removed lo hi l acc))

let rec diff_in ~added ~removed ~changed lo hi prev next acc =
  let prev = narrow lo hi prev in
  if prev == next then acc
  else
    match next with
    | Empty -> removed_in ~removed lo hi prev acc
    | Node { l; v; d; r; _ } ->
        let acc = if v > lo then diff_in ~added ~removed ~changed lo (v - 1) prev l acc else acc in
        let acc =
          match locate v prev with
          | Node { d = d'; _ } -> if d' == d then acc else changed v d' d acc
          | Empty -> added v d acc
        in
        if v < hi then diff_in ~added ~removed ~changed (v + 1) hi prev r acc else acc

let diff ~added ~removed ~changed prev next acc =
  diff_in ~added ~removed ~changed min_int max_int prev next acc
