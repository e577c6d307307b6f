(* The durable hot path pays for what an event changed: the engine
   re-checks properties only after events that changed a live node's
   state or the live set, durable apps diff their maps through one
   shared WAL delta, and paxos agreement is kept up to date rather than
   recomputed. Each is checked here against the simple version it
   replaces: a test-side oracle that checks after every event, the
   fold the apps used to carry, and [agreement_uncached]. *)

module X = Experiments.Chaos_exp

let nid = Proto.Node_id.of_int
let checkb = Alcotest.check Alcotest.bool
let violations_t = Alcotest.(list (pair (float 0.) string))
let seconds = List.map (fun (t, name) -> (Dsim.Vtime.to_seconds t, name))

(* ---------- the per-event oracle ---------- *)

(* Steps the engine one event at a time with [E.step] and edge-detects
   the app's safety properties on the global view after every event —
   what the engine did before it skipped checks. The engine's own
   [violations] must come out identical, times and names. *)
module Oracle (App : Proto.App_intf.APP) = struct
  module E = Engine.Sim.Make (App)

  type t = {
    eng : E.t;
    mutable violated : string list;
    mutable found : (Dsim.Vtime.t * string) list;  (* newest first *)
  }

  let create eng = { eng; violated = []; found = [] }

  let observe o =
    let now =
      List.map
        (fun (p : _ Core.Property.t) -> p.name)
        (Core.Property.check App.properties (E.global_view o.eng))
    in
    List.iter
      (fun name -> if not (List.mem name o.violated) then o.found <- (E.now o.eng, name) :: o.found)
      now;
    o.violated <- now

  (* Unlike [E.run_until], this processes the first event at or past
     [until] too: stepping cannot look ahead. The trajectory is still
     the engine's own, which is all the comparison needs. *)
  let run_for o dt =
    let until = Dsim.Vtime.add (E.now o.eng) (Float.max 0. dt) in
    while Dsim.Vtime.(E.now o.eng < until) && E.step o.eng do
      observe o
    done

  (* The engine as [Faultplan.Run] drives it, with time advanced
     through the oracle. *)
  module Run = Engine.Faultplan.Run (struct
    type nonrec t = t

    let now o = E.now o.eng
    let run_for = run_for
    let kill o = E.kill o.eng
    let kill_amnesia o = E.kill_amnesia o.eng
    let torn_write o = E.torn_write o.eng
    let restart o ?after id = E.restart o.eng ?after id
    let alive o = E.alive o.eng
    let netem o = E.netem o.eng
    let overload o ?rate id = E.overload o.eng ?rate id
    let heal_overload o = E.heal_overload o.eng
    let set_clock_rate o = E.set_clock_rate o.eng
    let clock_step o = E.clock_step o.eng
    let heal_clock o = E.heal_clock o.eng
  end)

  (* One chaos storm with the soaks' set-up and schedule: [resolver],
     bounded queues with priority shedding and the breaker when the
     profile bursts, reliable delivery when it flaps (as in the flap
     soaks), staggered boots,
     2 s of warm-up, the seed's plan, the rest of the storm, then the
     grace period. *)
  let storm ~resolver ~seed ~nodes (profile : Engine.Chaos.profile) =
    let o = create (E.create ~seed ~topology:(X.topology ~n:nodes) ()) in
    E.set_resolver o.eng resolver;
    if profile.overload_nodes > 0 then begin
      E.set_overload o.eng
        ~config:
          {
            E.default_overload with
            E.mailbox_capacity = 64;
            shed = E.By_priority;
            service_time = 5e-4;
          };
      E.enable_breaker o.eng
    end;
    if profile.flaps > 0 then E.enable_reliable o.eng;
    let rng = Dsim.Rng.create (seed + 77) in
    for i = 0 to nodes - 1 do
      E.spawn o.eng ~after:(Dsim.Rng.float rng 0.3) (nid i)
    done;
    run_for o 2.;
    let start = E.now o.eng in
    Run.execute o (Engine.Chaos.generate ~seed ~nodes profile);
    run_for o (profile.storm -. Dsim.Vtime.diff (E.now o.eng) start +. profile.grace);
    o

  let agrees name o =
    Alcotest.check violations_t name (seconds (List.rev o.found)) (seconds (E.violations o.eng))
end

module Paxos = Oracle (X.Paxos_app)
module Kv = Oracle (X.Kv_app)

let paxos_storm ?(profile = X.paxos_profile) seed () =
  Paxos.agrees
    (Printf.sprintf "paxos seed %d" seed)
    (Paxos.storm ~resolver:(Apps.Paxos.round_robin_resolver ~population:5) ~seed ~nodes:5 profile)

let kv_storm ?(profile = X.kvstore_profile) seed () =
  Kv.agrees
    (Printf.sprintf "kvstore seed %d" seed)
    (Kv.storm ~resolver:Apps.Kvstore.session_resolver ~seed ~nodes:5 profile)

(* Every knob the chaos-storm benchmark turns on at once. On seed 1
   this breaks paxos agreement twice and kvstore's monotonic reads
   once, so the lists compared are not empty. *)
let all_knobs p = X.with_byz (-1) (X.with_drift 2 (X.with_overload 2 (X.with_flaps 2 p)))

(* Crash-recovery storms of the durability suite: three replicas, one
   victim at a time, disks kept, wiped or torn. Amnesia breaks
   agreement on some seeds. *)
module P3 = Apps.Paxos.Make (struct
  let population = 3
  let client_period = 0.5
  let retry_timeout = 1.5
end)

module Durable = Oracle (P3)

let durability_storms () =
  let topology =
    Net.Topology.uniform ~n:3 (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)
  in
  let module F = Engine.Faultplan in
  let violated = ref 0 in
  List.iter
    (fun (mode, label) ->
      List.iter
        (fun seed ->
          let o = Durable.create (Durable.E.create ~seed ~topology ()) in
          Durable.E.set_resolver o.eng Apps.Paxos.self_resolver;
          for i = 0 to 2 do
            Durable.E.spawn o.eng (nid i)
          done;
          Durable.run_for o 2.0;
          Durable.Run.execute ~and_then:4.0 o
            (F.plan [ (0., F.Crash_storm { victims = 1; period = 2.0; rounds = 2; mode }) ]);
          violated := !violated + List.length o.found;
          Durable.agrees (Printf.sprintf "%s storm seed %d" label seed) o)
        (List.init 12 (fun i -> i + 1)))
    [ (F.Clean, "clean"); (F.Amnesia, "amnesia"); (F.Torn, "torn") ];
  checkb "some storm violated agreement" true (!violated > 0)

(* The buggy lease service races its own expiry. *)
module Lease = Oracle (Apps.Lease.Default)

let lease_race () =
  let o =
    Lease.create
      (Lease.E.create ~seed:3 ~jitter:0. ~topology:Experiments.Steering_exp.topology ())
  in
  Lease.E.set_resolver o.eng Core.Resolver.random;
  for i = 0 to 3 do
    Lease.E.spawn o.eng (nid i)
  done;
  Lease.run_for o 120.;
  checkb "the lease raced" true (o.found <> []);
  Lease.agrees "buggy lease" o

(* The toy lock of the model-checker suites, under random traffic. *)
module Lock = Oracle (Test_support.Lock_app)

let lock_topology =
  Net.Topology.uniform ~n:3 (Net.Linkprop.v ~latency:0.02 ~bandwidth:100_000. ~loss:0.)

let lock_random_traffic () =
  List.iter
    (fun seed ->
      let o = Lock.create (Lock.E.create ~seed ~topology:lock_topology ()) in
      Lock.E.set_resolver o.eng Core.Resolver.random;
      for i = 0 to 2 do
        Lock.E.spawn o.eng (nid i)
      done;
      let rng = Dsim.Rng.create seed in
      for i = 0 to 59 do
        let msg =
          match Dsim.Rng.int rng 3 with
          | 0 -> Test_support.Lock_app.Grant
          | 1 -> Test_support.Lock_app.Release
          | _ -> Test_support.Lock_app.Flip
        in
        Lock.E.inject o.eng
          ~after:(0.05 *. float_of_int i)
          ~src:(nid (Dsim.Rng.int rng 3))
          ~dst:(nid (Dsim.Rng.int rng 3))
          msg
      done;
      Lock.run_for o 4.;
      Lock.agrees (Printf.sprintf "lock seed %d" seed) o)
    [ 1; 2; 3; 4; 5 ]

(* A kill between events changes the live set but no handler runs: the
   next event must re-check even though it changes nothing itself. Two
   holders violate mutex; killing one clears it at the next event (a
   flip the first-choice resolver declines), so a third holder is a new
   incident. Without the re-check the engine would still believe mutex
   violated and record one incident instead of two. *)
let kill_between_events () =
  let module L = Test_support.Lock_app in
  let o = Lock.create (Lock.E.create ~seed:1 ~jitter:0. ~topology:lock_topology ()) in
  Lock.E.set_resolver o.eng Core.Resolver.first;
  for i = 0 to 2 do
    Lock.E.spawn o.eng (nid i)
  done;
  Lock.run_for o 0.1;
  Lock.E.inject o.eng ~src:(nid 2) ~dst:(nid 0) L.Grant;
  Lock.E.inject o.eng ~after:0.1 ~src:(nid 2) ~dst:(nid 1) L.Grant;
  Lock.run_for o 0.5;
  Lock.E.kill o.eng (nid 1);
  Lock.E.inject o.eng ~after:0.1 ~src:(nid 0) ~dst:(nid 2) L.Flip;
  Lock.run_for o 0.3;
  Lock.E.inject o.eng ~after:0.1 ~src:(nid 0) ~dst:(nid 2) L.Grant;
  Lock.run_for o 0.3;
  Alcotest.(check (list string)) "two incidents" [ "mutex"; "mutex" ] (List.map snd o.found);
  Lock.agrees "kill between events" o

(* ---------- the shared WAL delta ---------- *)

module Int_map = Apps.Paxos.Int_map
module Delta = Proto.Durability.Delta (Int_map)

(* The fold paxos and kvstore each carried before the delta was shared. *)
let old_fold prev next =
  Int_map.fold
    (fun k v acc ->
      match Int_map.find_opt k prev with Some v' when v' = v -> acc | _ -> (k, v) :: acc)
    next []

(* Values are fresh strings, so a rewrite with an equal value shares no
   block with the old one; maps derived by [add]/[remove] share every
   subtree the edits did not touch. *)
let fresh v = String.make 2 (Char.chr (97 + v))

let test_delta_matches_fold =
  QCheck.Test.make ~name:"delta equals the old fold, list and order" ~count:500
    QCheck.(
      pair
        (small_list (pair (int_bound 63) (int_bound 5)))
        (small_list (triple (int_bound 3) (int_bound 63) (int_bound 5))))
    (fun (base, edits) ->
      let prev = List.fold_left (fun m (k, v) -> Int_map.add k (fresh v) m) Int_map.empty base in
      let next =
        List.fold_left
          (fun m (op, k, v) ->
            match op with
            | 0 -> Int_map.add k (fresh v) m  (* new key or changed value *)
            | 1 -> Int_map.remove k m
            | 2 -> (
                (* an equal value in a new block *)
                match Int_map.find_opt k m with
                | Some s -> Int_map.add k (String.sub s 0 (String.length s)) m
                | None -> m)
            | _ -> m)
          prev edits
      in
      Delta.changed prev next = old_fold prev next && Delta.changed prev prev = [])

(* ---------- incremental agreement ---------- *)

let agreement = Apps.Paxos.agreement ~decided:Fun.id
let agreement_uncached = Apps.Paxos.agreement_uncached ~decided:Fun.id

(* A fresh block per call: equal commands are rarely the same block. *)
let cmd c = { Apps.Paxos.origin = c mod 2; seq = c; born = float_of_int c }

let view nodes : (Apps.Paxos.cmd Int_map.t, unit) Proto.View.t =
  { Proto.View.time = Dsim.Vtime.zero; nodes; inflight = [] }

(* Replays [ops] over five replicas, checking the incremental verdict
   against the full fold on every view visited. An op (kind, replica,
   instance, command) decides (kinds 0–2, conflicting whenever two
   replicas pick different commands for one instance), shrinks a log to
   the instances below [instance] as amnesia does (3), crashes or
   revives a replica (4), revisits an earlier view (5) or visits an
   unrelated world (6). Returns the number of disagreements. *)
let replay_views ops =
  let replicas = 5 in
  let logs = Array.make replicas Int_map.empty and live = Array.make replicas true in
  let saved = ref [] and wrong = ref 0 in
  let current () =
    view
      (List.filter_map
         (fun j -> if live.(j) then Some (nid j, logs.(j)) else None)
         (List.init replicas Fun.id))
  in
  List.iter
    (fun (kind, r, inst, c) ->
      let v =
        match kind with
        | 0 | 1 | 2 ->
            logs.(r) <- Int_map.add inst (cmd c) logs.(r);
            current ()
        | 3 ->
            logs.(r) <- Int_map.filter (fun k _ -> k < inst) logs.(r);
            current ()
        | 4 ->
            live.(r) <- not live.(r);
            current ()
        | 5 when !saved <> [] -> List.nth !saved (inst mod List.length !saved)
        | _ ->
            let log j = Int_map.of_seq (Seq.init (inst + 1) (fun k -> (k, cmd ((j * c) + k)))) in
            view
              (List.sort_uniq
                 (fun (a, _) (b, _) -> Proto.Node_id.compare a b)
                 (List.init (1 + r) (fun j -> (nid ((j + c) mod replicas), log j))))
      in
      saved := v :: List.filteri (fun i _ -> i < 15) !saved;
      if agreement v <> agreement_uncached v then incr wrong)
    ops;
  !wrong

let test_agreement_matches_uncached =
  QCheck.Test.make ~name:"incremental agreement equals the full fold" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 1 80)
        (quad (int_bound 6) (int_bound 4) (int_bound 15) (int_bound 3)))
    (fun ops -> replay_views ops = 0)

let random_ops seed n =
  let st = Random.State.make [| seed |] in
  List.init n (fun _ ->
      ( Random.State.int st 7,
        Random.State.int st 5,
        Random.State.int st 16,
        Random.State.int st 4 ))

(* The memo is per domain: four domains replaying different sequences
   at once must each stay exact. *)
let agreement_on_domains () =
  let replay k =
    List.fold_left (fun acc s -> acc + replay_views (random_ops ((10 * k) + s) 400)) 0 [ 0; 1; 2 ]
  in
  let domains = List.init 4 (fun k -> Domain.spawn (fun () -> replay k)) in
  List.iteri
    (fun k d -> Alcotest.(check int) (Printf.sprintf "domain %d" k) 0 (Domain.join d))
    domains

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  let case name speed f = Alcotest.test_case name speed f in
  Alcotest.run "incremental"
    [
      ( "check-skip",
        List.concat
          [
            List.map
              (fun s -> case (Printf.sprintf "paxos chaos seed %d" s) `Slow (paxos_storm s))
              [ 1; 2; 3 ];
            List.map
              (fun s -> case (Printf.sprintf "kvstore chaos seed %d" s) `Slow (kv_storm s))
              [ 1; 2; 3 ];
            [
              case "paxos flap" `Slow (paxos_storm ~profile:X.flap_profile 1);
              case "kvstore flap" `Slow (kv_storm ~profile:X.flap_profile 1);
              case "paxos drift" `Slow (paxos_storm ~profile:(X.with_drift 2 X.paxos_profile) 1);
              case "kvstore drift" `Slow (kv_storm ~profile:(X.with_drift 2 X.kvstore_profile) 1);
              case "paxos byzantine" `Slow
                (paxos_storm ~profile:(X.with_byz (-1) X.paxos_profile) 42);
              case "kvstore byzantine" `Slow
                (kv_storm ~profile:(X.with_byz (-1) X.kvstore_profile) 42);
              case "paxos every knob" `Slow (paxos_storm ~profile:(all_knobs X.paxos_profile) 1);
              case "kvstore every knob" `Slow (kv_storm ~profile:(all_knobs X.kvstore_profile) 1);
              case "durability storms" `Quick durability_storms;
              case "buggy lease" `Quick lease_race;
              case "lock under random traffic" `Quick lock_random_traffic;
              case "kill between events" `Quick kill_between_events;
            ];
          ] );
      ("wal-delta", qcheck [ test_delta_matches_fold ]);
      ( "agreement",
        qcheck [ test_agreement_matches_uncached ]
        @ [ case "per-domain memo on a pool of 4" `Quick agreement_on_domains ] );
    ]
