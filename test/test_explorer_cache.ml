(* One transposition cache shared across a sequence of explores must
   give every explore the result a fresh cache gives it. The cache also
   holds the explorer's dedup table, emptied at the start of each
   explore, so a table that remembered an earlier explore's worlds would
   show here as extra dedups and fewer worlds explored. *)

let check_strings = Alcotest.(check (list string))
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let nid = Proto.Node_id.of_int

module P = Apps.Paxos

module Params = struct
  let population = 3
  let client_period = 0. (* the test injects commands itself *)
  let retry_timeout = 1.0
end

module App = P.Make (Params)
module E = Engine.Sim.Make (App)
module Ex = Mc.Explorer.Make (App)

(* A paxos world with two commands in flight; [settle] is how long the
   engine runs after the injection, so different values give different
   worlds. *)
let paxos_world ~seed ~settle =
  let topology =
    Net.Topology.uniform ~n:3 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = E.create ~seed ~jitter:0. ~topology () in
  E.set_resolver eng P.self_resolver;
  for i = 0 to 2 do
    E.spawn eng (nid i)
  done;
  E.run_for eng 0.05;
  E.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Submit { cmd = { P.origin = 1; seq = 0; born = 0. } });
  E.inject eng ~src:(nid 2) ~dst:(nid 1) (P.Submit { cmd = { P.origin = 2; seq = 1; born = 0. } });
  E.run_for eng settle;
  Ex.world_of_view (E.global_view eng)

type run = { name : string; world : Ex.world; depth : int; drops : bool; max_worlds : int }

let run name ?(drops = false) ?(max_worlds = 100_000) ~depth world =
  { name; world; depth; drops; max_worlds }

(* A large explore first, so the dedup table grows and the small ones
   after it start from a reset of a grown table; then different worlds,
   depths, drop modes and a run truncated by its budget; then the large
   one again and small ones after it. *)
let sequence () =
  let a = paxos_world ~seed:3 ~settle:0.015 in
  let b = paxos_world ~seed:5 ~settle:0.005 in
  let c = paxos_world ~seed:7 ~settle:0.03 in
  let large = run "large" ~drops:true ~depth:4 a in
  [
    large;
    run "a depth 1" ~depth:1 a;
    run "b depth 2" ~depth:2 b;
    run "b depth 3 drops" ~drops:true ~depth:3 b;
    run "c depth 3" ~depth:3 c;
    run "a truncated" ~drops:true ~max_worlds:7 ~depth:4 a;
    run "c depth 0" ~depth:0 c;
    large;
    run "a depth 2 drops" ~drops:true ~depth:2 a;
    run "b depth 1" ~depth:1 b;
  ]

let explore ~cache r =
  Ex.explore ~include_drops:r.drops ~max_worlds:r.max_worlds ~cache ~depth:r.depth r.world

(* Everything except [outcomes_cached], which counts cache hits. *)
let violations (r : Ex.result) =
  List.map
    (fun (v : Ex.violation) ->
      Format.asprintf "%s@%d:%a" v.property v.at_depth
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Ex.pp_step)
        v.path)
    r.violations

let check_equal name (fresh : Ex.result) (shared : Ex.result) =
  check_strings (name ^ ": violations") (violations fresh) (violations shared);
  checki (name ^ ": worlds_explored") fresh.worlds_explored shared.worlds_explored;
  checki (name ^ ": worlds_deduped") fresh.worlds_deduped shared.worlds_deduped;
  checki (name ^ ": collisions") fresh.fingerprint_collisions shared.fingerprint_collisions;
  checkb (name ^ ": truncated") fresh.truncated shared.truncated;
  check_strings (name ^ ": liveness_unmet") fresh.liveness_unmet shared.liveness_unmet

let test_sequential () =
  let runs = sequence () in
  let fresh = List.map (fun r -> explore ~cache:(Ex.create_cache ()) r) runs in
  let large = List.hd fresh in
  checkb "the large explore outgrows a 16-bucket table" true (large.Ex.worlds_explored > 200);
  checkb "the budget truncates one explore" true
    (List.exists (fun (f : Ex.result) -> f.truncated) fresh);
  let cache = Ex.create_cache () in
  List.iter
    (fun (r, f) -> check_equal r.name f (explore ~cache r))
    (List.combine runs fresh)

let () =
  Alcotest.run "explorer_cache"
    [
      ("shared cache", [ Alcotest.test_case "sequential" `Quick test_sequential ]);
    ]
