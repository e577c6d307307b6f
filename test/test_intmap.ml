(* Core.Intmap against Stdlib's Map.Make (Int), the map it replaces, and
   its diff against a brute-force one. *)

module I = Core.Intmap
module M = Map.Make (Int)

(* Keys at both ends of the int range and around zero, so the diff's
   range bounds are exercised at [min_int] and [max_int]. *)
let key =
  QCheck.Gen.(
    frequency
      [
        (1, return min_int);
        (1, return (min_int + 1));
        (1, return max_int);
        (1, return (max_int - 1));
        (2, int_range (-1000) (-1));
        (8, int_range 0 40);
      ])

(* ---------- the model test ---------- *)

type op = Add of int * int | Remove of int | Filter of int | Of_seq of (int * int) list

let pp_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Filter m -> Printf.sprintf "filter %d" m
  | Of_seq kvs -> Printf.sprintf "of_seq [%d bindings]" (List.length kvs)

let op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Add (k, v)) key (int_bound 9));
        (3, map (fun k -> Remove k) key);
        (1, map (fun m -> Filter m) (int_range 1 4));
        (1, map (fun kvs -> Of_seq kvs) (small_list (pair key (int_bound 9))));
      ])

let ops = QCheck.make ~print:QCheck.Print.(list pp_op) QCheck.Gen.(list_size (int_range 1 60) op)

(* Keeps a binding unless [k + v] is a multiple of [m]; [Filter 1]
   therefore drops everything. *)
let keep m k v = (k + v) mod m <> 0

let apply (i, s) = function
  | Add (k, v) -> (I.add k v i, M.add k v s)
  | Remove k -> (I.remove k i, M.remove k s)
  | Filter m -> (I.filter (keep m) i, M.filter (keep m) s)
  | Of_seq kvs -> (I.of_seq (List.to_seq kvs), M.of_seq (List.to_seq kvs))

let probes = [ min_int; min_int + 1; -1000; -1; 0; 1; 7; 40; 41; max_int - 1; max_int ]

(* Every observation of [i] equals the model's on [s]. The trees are
   also compared as blocks: the same shape is what keeps hashes and
   polymorphic comparison of states that hold these maps unchanged. *)
let agrees (i, s) (i', s') =
  let collect iter m =
    let out = ref [] in
    iter (fun k v -> out := (k, v) :: !out) m;
    List.rev !out
  in
  I.bindings i = M.bindings s
  && I.fold (fun k v acc -> (k, v) :: acc) i [] = M.fold (fun k v acc -> (k, v) :: acc) s []
  && collect I.iter i = collect M.iter s
  && I.cardinal i = M.cardinal s
  && I.is_empty i = M.is_empty s
  && List.for_all
       (fun k ->
         I.find_opt k i = M.find_opt k s
         && I.mem k i = M.mem k s
         && (match I.find k i with v -> Some v | exception Not_found -> None) = M.find_opt k s)
       (probes @ List.map fst (M.bindings s))
  && I.equal Int.equal i i' = M.equal Int.equal s s'
  && I.equal Int.equal i (I.of_seq (M.to_seq s))
  && Obj.repr i = Obj.repr s

let model_test ~count =
  QCheck.Test.make ~name:(Printf.sprintf "every op agrees with Map.Make (Int), %d trials" count)
    ~count ops (fun ops ->
      let rec go prev = function
        | [] -> true
        | op :: rest ->
            let next = apply prev op in
            agrees next prev && go next rest
      in
      go (I.empty, M.empty) ops)

(* ---------- diff against a brute-force diff ---------- *)

type change = Added of int * string | Removed of int * string | Changed of int * string * string

let key_of = function Added (k, _) | Removed (k, _) | Changed (k, _, _) -> k

let brute prev next =
  let keys = List.sort_uniq Int.compare (List.map fst (I.bindings prev @ I.bindings next)) in
  List.filter_map
    (fun k ->
      match (I.find_opt k prev, I.find_opt k next) with
      | Some v, Some v' -> if v == v' then None else Some (Changed (k, v, v'))
      | Some v, None -> Some (Removed (k, v))
      | None, Some v' -> Some (Added (k, v'))
      | None, None -> None)
    keys

let added k v acc = Added (k, v) :: acc
let removed k v acc = Removed (k, v) :: acc
let changed k v v' acc = Changed (k, v, v') :: acc
let diff prev next = List.rev (I.diff ~added ~removed ~changed prev next [])

let rec increasing = function
  | a :: (b :: _ as rest) -> key_of a < key_of b && increasing rest
  | [ _ ] | [] -> true

(* Physical equality decides [Changed], so every value is a fresh block. *)
let fresh v = String.make 1 (Char.chr (97 + v))
let build kvs = List.fold_left (fun m (k, v) -> I.add k (fresh v) m) I.empty kvs

(* An edit adds a fresh value (0), removes (1), or rebinds a key to an
   equal value in a new block (2). *)
let edit m (kind, k, v) =
  match kind with
  | 0 -> I.add k (fresh v) m
  | 1 -> I.remove k m
  | _ -> ( match I.find_opt k m with Some s -> I.add k (String.sub s 0 1) m | None -> m)

let bindings = QCheck.Gen.(list_size (int_range 0 80) (pair key (int_bound 5)))
let edits = QCheck.Gen.(list_size (int_range 0 20) (triple (int_bound 2) key (int_bound 5)))

let matches_brute prev next =
  let d = diff prev next in
  d = brute prev next && increasing d

let test_diff_derived =
  QCheck.Test.make ~name:"maps derived by edits" ~count:1000
    (QCheck.make QCheck.Gen.(triple bindings edits edits))
    (fun (base, left, right) ->
      (* both sides edited from one base: they share what neither touched *)
      let base = build base in
      let prev = List.fold_left edit base left and next = List.fold_left edit base right in
      matches_brute base next && matches_brute prev next && matches_brute next prev)

let test_diff_unrelated =
  QCheck.Test.make ~name:"unrelated maps" ~count:1000
    (QCheck.make QCheck.Gen.(pair bindings bindings))
    (fun (a, b) -> matches_brute (build a) (build b) && matches_brute I.empty (build b))

let test_diff_self =
  QCheck.Test.make ~name:"a map paired with itself" ~count:300 (QCheck.make bindings) (fun kvs ->
      let m = build kvs in
      diff m m = [])

(* ---------- the cost of a diff, without timing ---------- *)

(* The tree's blocks, read through [Obj] only to prove a rotation
   happened: field 1 of a node is its key, fields 0 and 3 its
   children. *)
let node_key m = (Obj.obj (Obj.field (Obj.repr m) 1) : int)
let child m i : 'a I.t = Obj.obj (Obj.field (Obj.repr m) i)

(* Whether adding [k] to [old] rebuilt [next] by more than a copy of the
   search path: some node on the path now holds a different key. *)
let rec rotated k old next =
  (not (I.is_empty old))
  && (not (I.is_empty next))
  && (node_key old <> node_key next
     || let i = if k < node_key old then 0 else 3 in
        rotated k (child old i) (child next i))

let count_added _ _ n = n + 1
let count_removed _ _ n = n + 1
let count_changed _ _ _ n = n + 1

let diff_cost () =
  (* Even keys in a scrambled insertion order (40503 is odd, so the
     order is a permutation), which leaves subtrees of uneven height for
     a new odd key to tip over. *)
  let old = I.of_seq (Seq.init (1 lsl 16) (fun i -> (2 * ((i * 40503) land 0xffff), i))) in
  let k =
    match Seq.find (fun k -> rotated k old (I.add k 0 old)) (Seq.init 1000 (fun i -> (2 * i) + 1)) with
    | Some k -> k
    | None -> Alcotest.fail "no key among the first 1000 forces a rotation"
  in
  let next = I.add k 0 old in
  let probe =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let before = Gc.minor_words () in
  let calls =
    I.diff ~added:count_added ~removed:count_removed ~changed:count_changed old next 0
  in
  let after = Gc.minor_words () in
  Alcotest.(check int) "one callback" 1 calls;
  Alcotest.(check (float 0.)) "no minor words" 0. (after -. before -. probe);
  Alcotest.(check int) "the other direction" 1
    (I.diff ~added:count_added ~removed:count_removed ~changed:count_changed next old 0)

let qcheck speed_level = List.map (QCheck_alcotest.to_alcotest ~speed_level)

let () =
  Alcotest.run "intmap"
    [
      ( "model",
        qcheck `Quick [ model_test ~count:500 ] @ qcheck `Slow [ model_test ~count:20_000 ] );
      ("diff", qcheck `Quick [ test_diff_derived; test_diff_unrelated; test_diff_self ]);
      ("cost", [ Alcotest.test_case "one added key on 2^16 bindings" `Quick diff_cost ]);
    ]
