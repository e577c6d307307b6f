(* Net.Pair_tbl against Stdlib's Hashtbl keyed by tuples, the table it
   replaces, and Netmodel's predictions against the formula they had
   when they read the model through its public estimates. *)

module PT = Net.Pair_tbl
module N = Net.Netmodel

(* Mostly a handful of endpoints, so keys repeat, plus the int range's
   ends, where the hash's products wrap. *)
let endpoint =
  QCheck.Gen.(
    frequency [ (8, int_range 0 5); (1, oneofl [ min_int; -1; max_int ]); (1, int) ])

let key = QCheck.Gen.pair endpoint endpoint

(* ---------- the model test ---------- *)

type op = Replace of (int * int) * int | Add of (int * int) * int | Remove of (int * int) | Copy

let pp_key (s, d) = Printf.sprintf "(%d,%d)" s d

let pp_op = function
  | Replace (k, v) -> Printf.sprintf "replace %s %d" (pp_key k) v
  | Add (k, v) -> Printf.sprintf "add %s %d" (pp_key k) v
  | Remove k -> Printf.sprintf "remove %s" (pp_key k)
  | Copy -> "copy"

let op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Replace (k, v)) key (int_bound 9));
        (3, map2 (fun k v -> Add (k, v)) key (int_bound 9));
        (3, map (fun k -> Remove k) key);
        (1, return Copy);
      ])

let ops = QCheck.make ~print:QCheck.Print.(list pp_op) QCheck.Gen.(list_size (int_range 1 80) op)

(* [Copy] continues with the copies and wrecks the originals, so a copy
   that shared any structure with its source would stop agreeing. *)
let apply (t, m) = function
  | Replace (k, v) ->
      PT.replace t k v;
      Hashtbl.replace m k v;
      (t, m)
  | Add (k, v) ->
      PT.add t k v;
      Hashtbl.add m k v;
      (t, m)
  | Remove k ->
      PT.remove t k;
      Hashtbl.remove m k;
      (t, m)
  | Copy ->
      let t' = PT.copy t and m' = Hashtbl.copy m in
      PT.iter (fun k _ -> PT.replace t k (-1)) t;
      PT.add t (max_int, max_int) (-2);
      PT.clear t;
      (t', m')

let sorted_bindings t =
  List.sort compare (PT.fold (fun k v acc -> (k, v) :: acc) t [])

let finds t m keys = List.for_all (fun k -> PT.find_opt t k = Hashtbl.find_opt m k) keys

let agrees (t, m) probes =
  PT.length t = Hashtbl.length m
  && sorted_bindings t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])
  && finds t m probes

let touched = function Replace (k, _) | Add (k, _) | Remove k -> [ k ] | Copy -> []

(* Each op is checked on its own key and the length; the whole table
   after a copy and at the end. *)
let model_test ~count =
  QCheck.Test.make ~name:(Printf.sprintf "every op agrees with a tuple-keyed Hashtbl, %d trials" count)
    ~count ops (fun ops ->
      let probes = (0, 0) :: (0, 1) :: (1, 0) :: (max_int, min_int) :: List.concat_map touched ops in
      let rec go st = function
        | [] -> agrees st probes
        | op :: rest ->
            let ((t, m) as st) = apply st op in
            (if op = Copy then agrees st probes
             else PT.length t = Hashtbl.length m && finds t m (touched op))
            && go st rest
      in
      go (PT.create 16, Hashtbl.create 16) ops)

(* ---------- Netmodel's predictions ---------- *)

(* What [predict_path] and [predict_transfer_time] computed when they
   went through the public estimates. *)
let old_predict_path nm ~src ~dst ~now =
  let l = N.latency nm ~src ~dst ~now in
  if l.samples = 0 then None
  else
    let bw =
      let b = N.bandwidth nm ~src ~dst ~now in
      if b.samples = 0 then 1_048_576. else Float.max 1. b.value
    in
    let p =
      let x = N.loss nm ~src ~dst ~now in
      if x.samples = 0 then 0. else Float.min 1. (Float.max 0. x.value)
    in
    Some (Net.Linkprop.v ~latency:(Float.max 0. l.value) ~bandwidth:bw ~loss:p)

let old_transfer_time nm ~src ~dst ~now ~bytes =
  match old_predict_path nm ~src ~dst ~now with
  | None -> None
  | Some p ->
      let once = Net.Linkprop.transfer_time p ~bytes in
      let retries = if p.Net.Linkprop.loss >= 0.999 then 1000. else 1. /. (1. -. p.Net.Linkprop.loss) in
      Some (once *. retries)

type obs = Lat of float | Bw of float | Loss of bool

type nm_op =
  | Observe of int * int * obs  (** through the table *)
  | Via_link of int * int * obs  (** through a link handle *)
  | Link of int * int  (** blank cells only *)
  | Forget of float  (** cutoff this far before now *)
  | Merge of (int * int * obs * float) list
      (** from another model, each observation this far before now *)

let small = QCheck.Gen.int_range 0 3

let obs =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun x -> Lat x) (float_range (-0.01) 1.));
        (2, map (fun x -> Bw x) (float_range 0. 1e7));
        (3, map (fun b -> Loss b) bool);
      ])

let nm_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun s d o -> Observe (s, d, o)) small small obs);
        (3, map3 (fun s d o -> Via_link (s, d, o)) small small obs);
        (1, map2 (fun s d -> Link (s, d)) small small);
        (2, map (fun c -> Forget c) (float_range 0. 20.));
        ( 1,
          map
            (fun l -> Merge l)
            (list_size (int_range 0 6) (quad small small obs (float_range 0. 30.))) );
      ])

let pp_obs = function
  | Lat x -> Printf.sprintf "lat %g" x
  | Bw x -> Printf.sprintf "bw %g" x
  | Loss b -> Printf.sprintf "loss %b" b

let pp_nm_op (dt, op) =
  Printf.sprintf "+%g %s" dt
    (match op with
    | Observe (s, d, o) -> Printf.sprintf "observe %d->%d %s" s d (pp_obs o)
    | Via_link (s, d, o) -> Printf.sprintf "link-observe %d->%d %s" s d (pp_obs o)
    | Link (s, d) -> Printf.sprintf "link %d->%d" s d
    | Forget c -> Printf.sprintf "forget %g" c
    | Merge l -> Printf.sprintf "merge [%d]" (List.length l))

let nm_ops =
  QCheck.make ~print:QCheck.Print.(list pp_nm_op)
    QCheck.Gen.(list_size (int_range 1 60) (pair (float_range 0. 10.) nm_op))

let observe nm ~src ~dst now = function
  | Lat x -> N.observe_latency nm ~src ~dst now x
  | Bw x -> N.observe_bandwidth nm ~src ~dst now x
  | Loss delivered -> N.observe_loss nm ~src ~dst now ~delivered

let bits = Option.map Int64.bits_of_float

let path_bits =
  Option.map (fun (p : Net.Linkprop.t) ->
      (Int64.bits_of_float p.latency, Int64.bits_of_float p.bandwidth, Int64.bits_of_float p.loss))

let endpoints = [ 0; 1; 2; 3 ]

(* Every pair, at [t] and later, predicts bit for bit what the old
   formula predicts. *)
let predictions_agree nm t =
  List.for_all
    (fun now ->
      let now = Dsim.Vtime.of_seconds now in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              path_bits (N.predict_path nm ~src ~dst ~now)
              = path_bits (old_predict_path nm ~src ~dst ~now)
              && List.for_all
                   (fun bytes ->
                     bits (N.predict_transfer_time nm ~src ~dst ~now ~bytes)
                     = bits (old_transfer_time nm ~src ~dst ~now ~bytes))
                   [ 0; 512; 100_000 ])
            endpoints)
        endpoints)
    [ t; t +. 5.; t +. 100. ]

(* Applies [ops] to a fresh model, checking the predictions after every
   [forget_before] and [merge_from] and at the end. *)
let run_nm ops =
  let nm = N.create () in
  let rec go t = function
    | [] -> predictions_agree nm t
    | (dt, op) :: rest -> (
        let t = t +. dt in
        let now = Dsim.Vtime.of_seconds t in
        match op with
        | Observe (src, dst, o) ->
            observe nm ~src ~dst now o;
            go t rest
        | Via_link (src, dst, o) ->
            let l = N.link nm ~src ~dst in
            (match o with
            | Lat x -> N.observe_link_latency nm l now x
            | Bw x -> N.observe_link_bandwidth nm l now x
            | Loss delivered -> N.observe_link_loss nm l now ~delivered);
            go t rest
        | Link (src, dst) ->
            ignore (N.link nm ~src ~dst);
            go t rest
        | Forget c ->
            N.forget_before nm (Dsim.Vtime.of_seconds (Float.max 0. (t -. c)));
            predictions_agree nm t && go t rest
        | Merge l ->
            let other = N.create () in
            List.iter
              (fun (src, dst, o, age) ->
                observe other ~src ~dst (Dsim.Vtime.of_seconds (Float.max 0. (t -. age))) o)
              l;
            N.merge_from nm other ~now;
            predictions_agree nm t && go t rest)
  in
  go 0. ops

let test_predictions =
  QCheck.Test.make ~name:"predictions equal the formula over the public estimates" ~count:500
    nm_ops run_nm

let qcheck speed_level = List.map (QCheck_alcotest.to_alcotest ~speed_level)

let () =
  Alcotest.run "pair_tbl"
    [
      ( "model",
        qcheck `Quick [ model_test ~count:500 ]
        @ qcheck `Slow [ model_test ~count:20_000 ] );
      ("netmodel", qcheck `Quick [ test_predictions ]);
    ]
