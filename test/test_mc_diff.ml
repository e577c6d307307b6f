(* Differential tests for the rewritten explorer: the fingerprinted
   worklist implementation (Mc.Explorer) is pinned against the
   digest-based reference (Test_support.Explorer_ref) on seeded lock,
   paxos and randtree worlds, across include_drops and generic_node
   modes.

   Two comparison strengths, chosen per scenario:

   - [check_same]: byte-exact — same worlds_explored/worlds_deduped,
     same violation multiset with first depths and path lengths, same
     liveness and veto-candidate sets. This holds wherever every path
     to a world has the same length, which is the case for purely
     message-consuming scenarios.

   - [check_verdict] + [check_steering]: where a world is reachable at
     different depths (generic-node injections consume nothing; some
     handler cycles regenerate earlier worlds), the old bounded DFS
     first-visits such worlds deeper and then prunes them at the depth
     bound, while the worklist search visits them at their minimal
     depth and keeps expanding — strictly better coverage, and
     violation first-depths that are never worse. For these scenarios
     we pin what consequence prediction actually feeds steering:
     identical violated-property sets, identical veto candidates,
     identical liveness, first depths no deeper than the reference's —
     and byte-identical steering verdicts against a reference
     steering decision procedure run over the old explorer.

   A second group pins the explorer's exact results and checks that
   shared transposition caches never change any verdict. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_strings = Alcotest.(check (list string))
let nid = Proto.Node_id.of_int

(* The exact result of one explore. [cached] is [outcomes_cached] from
   a fresh cache. *)
type pin = {
  violations : string list;  (* [full_sig] *)
  explored : int;
  deduped : int;
  collisions : int;
  truncated : bool;
  liveness_unmet : string list;
  cached : int;
}

let pin ?(violations = []) ?(collisions = 0) ?(truncated = false) ?(liveness_unmet = [])
    ~explored ~deduped ~cached () =
  { violations; explored; deduped; collisions; truncated; liveness_unmet; cached }

module Diff (App : Proto.App_intf.APP) = struct
  module Ex = Mc.Explorer.Make (App)
  module Ref = Test_support.Explorer_ref.Make (App)
  module Sn = Mc.Steering.Make (App)

  let ref_world_of (w : Ex.world) : Ref.world =
    { Ref.states = w.states; pending = w.pending; timers = w.timers }

  (* Violations as sorted strings: property, first depth and path
     length pin the verdict; the concrete representative path is
     traversal-order-defined, so DFS and BFS may legally differ. *)
  let new_viols (r : Ex.result) =
    List.sort compare
      (List.map
         (fun (v : Ex.violation) ->
           Printf.sprintf "%s@%d/%d" v.property v.at_depth (List.length v.path))
         r.violations)

  let ref_viols (r : Ref.result) =
    List.sort compare
      (List.map
         (fun (v : Ref.violation) ->
           Printf.sprintf "%s@%d/%d" v.property v.at_depth (List.length v.path))
         r.violations)

  let check_same name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    let r_new = Ex.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let r_old = Ref.explore ?max_worlds ?include_drops ?generic_node ~depth (ref_world_of w) in
    (* Under truncation the budget admits different worlds per
       traversal order, so differential scenarios must stay inside it. *)
    checkb (name ^ ": reference not truncated") false r_old.Ref.truncated;
    checkb (name ^ ": rewrite not truncated") false r_new.Ex.truncated;
    checki (name ^ ": worlds_explored") r_old.Ref.worlds_explored r_new.Ex.worlds_explored;
    checki (name ^ ": worlds_deduped") r_old.Ref.worlds_deduped r_new.Ex.worlds_deduped;
    check_strings (name ^ ": violations") (ref_viols r_old) (new_viols r_new);
    check_strings (name ^ ": liveness_unmet")
      (List.sort compare r_old.Ref.liveness_unmet)
      (List.sort compare r_new.Ex.liveness_unmet);
    check_strings (name ^ ": veto candidates")
      (List.map (Format.asprintf "%a" Ref.pp_step) (Ref.first_steps_to_violation r_old))
      (List.map (Format.asprintf "%a" Ex.pp_step) (Ex.first_steps_to_violation r_new))

  (* Semantic comparison for scenarios where visit depths legally
     differ (see the header comment): what steering consumes must
     still be identical, and the rewrite's first depths must never be
     deeper than the reference's. *)
  let check_verdict name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    let r_new = Ex.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let r_old = Ref.explore ?max_worlds ?include_drops ?generic_node ~depth (ref_world_of w) in
    checkb (name ^ ": reference not truncated") false r_old.Ref.truncated;
    checkb (name ^ ": rewrite not truncated") false r_new.Ex.truncated;
    let pset_new =
      List.sort_uniq compare (List.map (fun (v : Ex.violation) -> v.property) r_new.Ex.violations)
    in
    let pset_old =
      List.sort_uniq compare
        (List.map (fun (v : Ref.violation) -> v.property) r_old.Ref.violations)
    in
    check_strings (name ^ ": violated properties") pset_old pset_new;
    check_strings (name ^ ": liveness_unmet")
      (List.sort compare r_old.Ref.liveness_unmet)
      (List.sort compare r_new.Ex.liveness_unmet);
    (* No veto-candidate comparison here: first steps belong to
       first-visit representative paths, which are traversal-defined
       in these scenarios; [check_steering] pins the verdict built
       from them instead. *)
    let min_depth viols prop =
      List.fold_left (fun acc (p, d) -> if p = prop then min acc d else acc) max_int viols
    in
    let new_pd = List.map (fun (v : Ex.violation) -> (v.property, v.at_depth)) r_new.Ex.violations in
    let old_pd =
      List.map (fun (v : Ref.violation) -> (v.property, v.at_depth)) r_old.Ref.violations
    in
    List.iter
      (fun prop ->
        checkb
          (Printf.sprintf "%s: first depth of %s not worse" name prop)
          true
          (min_depth new_pd prop <= min_depth old_pd prop))
      pset_new

  (* Reference steering: the decision procedure of Mc.Steering run
     verbatim over the reference explorer, rendered comparably. *)
  let veto_str (src, dst, kind) =
    Printf.sprintf "%s:%d->%d" kind (Proto.Node_id.to_int src) (Proto.Node_id.to_int dst)

  let ref_decide ?max_worlds ?include_drops ?generic_node ~depth (w : Ref.world) =
    let explore w = Ref.explore ?max_worlds ?include_drops ?generic_node ~depth w in
    let pset (r : Ref.result) =
      List.sort_uniq String.compare
        (List.map (fun (v : Ref.violation) -> v.property) r.violations)
    in
    let base = explore w in
    match base.Ref.violations with
    | [] -> [ "no-violation" ]
    | _ :: _ ->
        let doomed = pset base in
        let candidates =
          List.filter_map
            (function
              | Ref.Deliver_step { src; dst; kind } -> Some (src, dst, kind)
              | Ref.Drop_step _ | Ref.Timer_step _ | Ref.Generic_step _ -> None)
            (Ref.first_steps_to_violation base)
        in
        let without (src, dst, kind) =
          let dropped = ref false in
          {
            w with
            Ref.pending =
              List.filter
                (fun (s, d, m) ->
                  let matches =
                    (not !dropped)
                    && Proto.Node_id.equal s src && Proto.Node_id.equal d dst
                    && String.equal (App.msg_kind m) kind
                  in
                  if matches then dropped := true;
                  not matches)
                w.Ref.pending;
          }
        in
        let safe =
          List.filter
            (fun c ->
              let steered = explore (without c) in
              List.for_all (fun p -> List.mem p doomed) (pset steered))
            candidates
        in
        (match safe with
        | [] -> "cannot-steer" :: doomed
        | _ :: _ -> "steer" :: List.sort compare (List.map veto_str safe))

  let new_decide ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    match Sn.decide ?max_worlds ?include_drops ?generic_node ~depth w with
    | Sn.No_violation -> [ "no-violation" ]
    | Sn.Steer vetoes ->
        "steer"
        :: List.sort compare
             (List.map (fun (v : Sn.veto) -> veto_str (v.src, v.dst, v.kind)) vetoes)
    | Sn.Cannot_steer doomed -> "cannot-steer" :: doomed

  let check_steering name ?max_worlds ?include_drops ?generic_node ~depth (w : Ex.world) =
    check_strings
      (name ^ ": steering verdict")
      (ref_decide ?max_worlds ?include_drops ?generic_node ~depth (ref_world_of w))
      (new_decide ?max_worlds ?include_drops ?generic_node ~depth w)

  let check_iterative ?(strict = true) name ?include_drops ?generic_node ~max_depth
      (w : Ex.world) =
    let d_new, r_new = Ex.iterative ?include_drops ?generic_node ~max_depth w in
    let d_old, r_old = Ref.iterative ?include_drops ?generic_node ~max_depth (ref_world_of w) in
    checki (name ^ ": stop depth") d_old d_new;
    if strict then begin
      checki (name ^ ": worlds_explored") r_old.Ref.worlds_explored r_new.Ex.worlds_explored;
      checki (name ^ ": worlds_deduped") r_old.Ref.worlds_deduped r_new.Ex.worlds_deduped;
      check_strings (name ^ ": violations") (ref_viols r_old) (new_viols r_new)
    end
    else
      check_strings (name ^ ": violated properties")
        (List.sort_uniq compare
           (List.map (fun (v : Ref.violation) -> v.property) r_old.Ref.violations))
        (List.sort_uniq compare
           (List.map (fun (v : Ex.violation) -> v.property) r_new.Ex.violations))

  (* Violations with their representative paths. *)
  let full_sig (r : Ex.result) =
    List.map
      (fun (v : Ex.violation) ->
        Format.asprintf "%s@%d:%a" v.property v.at_depth
          (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";") Ex.pp_step)
          v.path)
      r.violations

  let check_pinned name (p : pin) (r : Ex.result) =
    check_strings (name ^ ": violations") p.violations (full_sig r);
    checki (name ^ ": worlds_explored") p.explored r.Ex.worlds_explored;
    checki (name ^ ": worlds_deduped") p.deduped r.Ex.worlds_deduped;
    checki (name ^ ": collisions") p.collisions r.Ex.fingerprint_collisions;
    checkb (name ^ ": truncated") p.truncated r.Ex.truncated;
    check_strings (name ^ ": liveness_unmet") p.liveness_unmet r.Ex.liveness_unmet;
    checki (name ^ ": outcomes_cached") p.cached r.Ex.outcomes_cached

  let check_cache_reuse name ?include_drops ?generic_node ~depth (w : Ex.world) =
    let cache = Ex.create_cache () in
    let r1 = Ex.explore ?include_drops ?generic_node ~cache ~depth w in
    let r2 = Ex.explore ?include_drops ?generic_node ~cache ~depth w in
    check_strings (name ^ ": warm cache, same violations") (full_sig r1) (full_sig r2);
    checki (name ^ ": warm cache, same worlds") r1.Ex.worlds_explored r2.Ex.worlds_explored;
    checkb (name ^ ": second run hits the cache") true (r2.Ex.outcomes_cached > 0)
end

(* ---------- lock: handcrafted worlds covering every branch kind ---------- *)

module Lock = Test_support.Lock_app
module DL = Diff (Lock)

let lock_world ?(timers = []) states pending : DL.Ex.world =
  {
    states =
      List.fold_left
        (fun m (i, holding) -> Proto.Node_id.Map.add (nid i) { Lock.self = nid i; holding } m)
        Proto.Node_id.Map.empty states;
    pending = List.map (fun (a, b, m) -> (nid a, nid b, m)) pending;
    timers = List.map (fun (i, id) -> (nid i, id)) timers;
    clocks = [];
  }

let lock_worlds =
  [
    ("safe", lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant) ]);
    ( "double-grant",
      lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ] );
    ("flip-choice", lock_world [ (0, true); (1, false) ] [ (0, 1, Lock.Flip) ]);
    ( "timer-and-msgs",
      lock_world ~timers:[ (1, "grab"); (0, "grab") ]
        [ (0, true); (1, false) ]
        [ (1, 0, Lock.Release); (0, 1, Lock.Flip) ] );
  ]

let test_lock_differential () =
  List.iter
    (fun (name, w) ->
      (* Timer fires do not disarm the timer, so timer worlds contain
         self-loops — length-divergent paths to the same world — and
         only qualify for the semantic comparison beyond depth 1. *)
      let strict = name <> "timer-and-msgs" in
      if strict then begin
        DL.check_same (name ^ "/plain") ~depth:3 w;
        DL.check_same (name ^ "/drops") ~include_drops:true ~depth:3 w
      end
      else begin
        DL.check_same (name ^ "/depth1") ~include_drops:true ~depth:1 w;
        DL.check_verdict (name ^ "/plain") ~depth:3 w;
        DL.check_verdict (name ^ "/drops") ~include_drops:true ~depth:3 w
      end;
      DL.check_verdict (name ^ "/generic") ~generic_node:true ~depth:3 w;
      DL.check_verdict (name ^ "/drops+generic") ~include_drops:true ~generic_node:true ~depth:4
        w;
      DL.check_steering (name ^ "/steer") ~depth:3 w;
      DL.check_steering (name ^ "/steer+generic") ~generic_node:true ~depth:3 w)
    lock_worlds

let test_lock_iterative () =
  List.iter
    (fun (name, w) ->
      DL.check_iterative (name ^ "/iter") ~max_depth:3 w;
      DL.check_iterative (name ^ "/iter+drops") ~include_drops:true ~max_depth:3 w)
    lock_worlds

(* ---------- paxos: worlds frozen out of a live engine run ---------- *)

module P = Apps.Paxos

module Paxos_params = struct
  let population = 3
  let client_period = 0.  (* tests inject commands themselves *)
  let retry_timeout = 1.0
end

module PApp = P.Make (Paxos_params)
module PE = Engine.Sim.Make (PApp)
module DP = Diff (PApp)

let paxos_world ~seed =
  let topology =
    Net.Topology.uniform ~n:3 (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = PE.create ~seed ~jitter:0. ~topology () in
  PE.set_resolver eng P.self_resolver;
  for i = 0 to 2 do
    PE.spawn eng (nid i)
  done;
  PE.run_for eng 0.05;
  PE.inject eng ~src:(nid 1) ~dst:(nid 0) (P.Submit { cmd = { P.origin = 1; seq = 0; born = 0. } });
  PE.inject eng ~src:(nid 2) ~dst:(nid 1) (P.Submit { cmd = { P.origin = 2; seq = 1; born = 0. } });
  PE.run_for eng 0.015;
  let view = PE.global_view eng in
  DP.Ex.world_of_view view

let test_paxos_differential () =
  List.iter
    (fun seed ->
      let w = paxos_world ~seed in
      let name = Printf.sprintf "paxos/seed%d" seed in
      DP.check_same (name ^ "/plain") ~depth:3 w;
      DP.check_verdict (name ^ "/drops") ~include_drops:true ~depth:3 w;
      DP.check_verdict (name ^ "/drops+generic") ~include_drops:true ~generic_node:true ~depth:2
        w;
      DP.check_steering (name ^ "/steer") ~depth:3 w;
      DP.check_steering (name ^ "/steer+drops") ~include_drops:true ~depth:3 w)
    [ 3; 11 ]

let test_paxos_iterative () =
  let w = paxos_world ~seed:3 in
  DP.check_iterative "paxos/iter" ~max_depth:3 w;
  DP.check_iterative ~strict:false "paxos/iter+drops" ~include_drops:true ~max_depth:2 w

(* ---------- randtree: joins frozen mid-flight ---------- *)

module RT = Apps.Randtree_choice.Default
module RE = Engine.Sim.Make (RT)
module DR = Diff (RT)

let randtree_world ~seed ~n ~horizon =
  let topology =
    Net.Topology.uniform ~n (Net.Linkprop.v ~latency:0.01 ~bandwidth:1_000_000. ~loss:0.)
  in
  let eng = RE.create ~seed ~jitter:0. ~topology () in
  for i = 0 to n - 1 do
    RE.spawn eng ~after:(0.05 *. float_of_int i) (nid i)
  done;
  RE.run_for eng horizon;
  DR.Ex.world_of_view (RE.global_view eng)

(* Six nodes spawned 0.05 s apart, frozen at 0.26 s: the last joins are
   still in flight, so the search has somewhere to go. A horizon past
   the final join leaves nothing pending and every explore stops at the
   root, which is why the world must be checked to be non-trivial. *)
let test_randtree_differential () =
  let w = randtree_world ~seed:5 ~n:6 ~horizon:0.26 in
  checkb "randtree: joins in flight" true ((DR.Ex.explore ~depth:2 w).DR.Ex.worlds_explored > 1);
  DR.check_same "randtree/plain" ~depth:2 w;
  DR.check_same "randtree/drops" ~include_drops:true ~depth:2 w;
  DR.check_verdict "randtree/generic" ~generic_node:true ~depth:2 w;
  DR.check_steering "randtree/steer" ~depth:2 w

(* ---------- byzantine mutants in the explorer ---------- *)

(* A decodes-clean mutant of a pending message is a different protocol
   value, and the dedup fingerprint must treat it as one: a world
   carrying honest + mutant copies of a message explores strictly more
   than a world carrying honest twins (whose two deliveries alias), and
   exploring the mutated world gives its pinned result. *)
let mutant_of m =
  let codec = Option.get PApp.msg_codec in
  let rng = Dsim.Rng.create 13 in
  let rec go tries =
    if tries = 0 then Alcotest.fail "mutator never changed the message"
    else
      match Wire.Mutator.mutate ~rng ~node_ids:[ 0; 1; 2 ] codec (Wire.Codec.encode codec m) with
      | Some (m', _) when m' <> m -> m'
      | Some _ | None -> go (tries - 1)
  in
  go 100

let test_mutant_worlds_never_alias () =
  let w = paxos_world ~seed:3 in
  match w.DP.Ex.pending with
  | [] -> Alcotest.fail "frozen world has no pending messages"
  | (src, dst, m) :: rest ->
      let m' = mutant_of m in
      let twins = { w with DP.Ex.pending = (src, dst, m) :: (src, dst, m) :: rest } in
      let mixed = { w with DP.Ex.pending = (src, dst, m) :: (src, dst, m') :: rest } in
      let r_twins = DP.Ex.explore ~depth:1 twins in
      let r_mixed = DP.Ex.explore ~depth:1 mixed in
      (* Delivering either honest twin reaches the same world; the
         mutant's delivery (and the residual pending lists) must not. *)
      checki "mutant adds one distinct successor" (r_twins.DP.Ex.worlds_explored + 1)
        r_mixed.DP.Ex.worlds_explored;
      checki "honest twins alias, mutant does not" (r_mixed.DP.Ex.worlds_deduped + 1)
        r_twins.DP.Ex.worlds_deduped

let test_mutant_pinned () =
  let w = paxos_world ~seed:3 in
  match w.DP.Ex.pending with
  | [] -> Alcotest.fail "frozen world has no pending messages"
  | (src, dst, m) :: rest ->
      let mixed = { w with DP.Ex.pending = (src, dst, mutant_of m) :: (src, dst, m) :: rest } in
      DP.check_pinned "paxos-mutant"
        (pin ~explored:274 ~deduped:287 ~cached:245 ())
        (DP.Ex.explore ~include_drops:true ~depth:3 mixed)

(* ---------- pinned results and cache invariance ----------

   Only a change to the search itself may move these figures: its
   order, its dedup, its budget. *)

let lock_pins =
  [
    ( "safe",
      pin ~explored:8 ~deduped:9 ~cached:8
        ~violations:
          [
            "mutex@2:deliver(grant n0->n1);generic(grant ->n0)";
            "mutex@2:generic(grant ->n0);generic(grant ->n1)";
          ]
        () );
    ( "double-grant",
      pin ~explored:16 ~deduped:33 ~cached:26
        ~violations:
          [
            "mutex@2:deliver(grant n0->n1);deliver(grant n1->n0)";
            "mutex@2:deliver(grant n0->n1);generic(grant ->n0)";
            "mutex@2:deliver(grant n1->n0);generic(grant ->n1)";
            "mutex@2:generic(grant ->n0);generic(grant ->n1)";
          ]
        () );
    ( "flip-choice",
      pin ~explored:4 ~deduped:5 ~cached:1
        ~violations:[ "mutex@1:deliver(flip n0->n1)"; "mutex@1:generic(grant ->n1)" ]
        () );
    ( "timer-and-msgs",
      pin ~explored:12 ~deduped:49 ~cached:35
        ~violations:
          [
            "mutex@1:deliver(flip n0->n1)";
            "mutex@1:timer(n1.grab)";
            "mutex@2:drop(release n1->n0);deliver(flip n0->n1)";
            "mutex@2:drop(release n1->n0);timer(n1.grab)";
          ]
        () );
  ]

let test_pinned () =
  List.iter
    (fun (name, w) ->
      DL.check_pinned name (List.assoc name lock_pins)
        (DL.Ex.explore ~include_drops:true ~generic_node:true ~depth:4 w))
    lock_worlds;
  let w = paxos_world ~seed:3 in
  DP.check_pinned "paxos"
    (pin ~explored:157 ~deduped:140 ~cached:124 ())
    (DP.Ex.explore ~include_drops:true ~depth:3 w);
  DP.check_pinned "paxos depth 4"
    (pin ~explored:502 ~deduped:635 ~cached:527 ())
    (DP.Ex.explore ~include_drops:true ~max_worlds:100_000 ~depth:4 w);
  DR.check_pinned "randtree"
    (pin ~explored:6 ~deduped:0 ~cached:0 ~liveness_unmet:[ "all-joined" ] ())
    (DR.Ex.explore ~depth:2 (randtree_world ~seed:5 ~n:6 ~horizon:0.26))

let test_pinned_iterative () =
  let d, r = DP.Ex.iterative ~include_drops:true ~max_depth:3 (paxos_world ~seed:3) in
  checki "paxos: stop depth" 3 d;
  DP.check_pinned "paxos" (pin ~explored:157 ~deduped:140 ~cached:124 ()) r;
  List.iter
    (fun (name, stop, p) ->
      let d, r =
        DL.Ex.iterative ~include_drops:true ~generic_node:true ~max_depth:4
          (List.assoc name lock_worlds)
      in
      checki (name ^ ": stop depth") stop d;
      DL.check_pinned name p r)
    [
      ("safe", 2, { (List.assoc "safe" lock_pins) with deduped = 6 });
      ("double-grant", 2, { (List.assoc "double-grant" lock_pins) with deduped = 15 });
      ("flip-choice", 1, { (List.assoc "flip-choice" lock_pins) with deduped = 1 });
      ( "timer-and-msgs",
        1,
        pin ~explored:6 ~deduped:3 ~cached:16
          ~violations:[ "mutex@1:deliver(flip n0->n1)"; "mutex@1:timer(n1.grab)" ]
          () );
    ]

(* Depth 3 explores 157 worlds and depth 4 explores 502, so a budget of
   200 runs out part way through level 4, with worlds of that level
   still to come that duplicate earlier ones. They count towards
   truncation, not dedup: the budget is checked before the dedup. *)
let test_pinned_truncation () =
  DP.check_pinned "paxos budget 200"
    (pin ~explored:200 ~deduped:171 ~truncated:true ~cached:527 ())
    (DP.Ex.explore ~include_drops:true ~max_worlds:200 ~depth:4 (paxos_world ~seed:3))

let test_cache_reuse () =
  DL.check_cache_reuse "lock/cache"
    ~include_drops:true ~depth:3
    (lock_world [ (0, false); (1, false) ] [ (0, 1, Lock.Grant); (1, 0, Lock.Grant) ]);
  DP.check_cache_reuse "paxos/cache" ~depth:3 (paxos_world ~seed:3)

let () =
  Alcotest.run "mc-diff"
    [
      ( "differential",
        [
          Alcotest.test_case "lock worlds" `Quick test_lock_differential;
          Alcotest.test_case "lock iterative" `Quick test_lock_iterative;
          Alcotest.test_case "paxos worlds" `Quick test_paxos_differential;
          Alcotest.test_case "paxos iterative" `Quick test_paxos_iterative;
          Alcotest.test_case "randtree worlds" `Quick test_randtree_differential;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "mutant worlds never alias" `Quick test_mutant_worlds_never_alias;
          Alcotest.test_case "mutant pinned results" `Quick test_mutant_pinned;
          Alcotest.test_case "pinned results" `Quick test_pinned;
          Alcotest.test_case "pinned iterative" `Quick test_pinned_iterative;
          Alcotest.test_case "pinned mid-level truncation" `Quick test_pinned_truncation;
          Alcotest.test_case "cache reuse" `Quick test_cache_reuse;
        ] );
    ]
