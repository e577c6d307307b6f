(* The four seeded workloads. [prepare] builds a deployment (topology,
   engine, spawn, warm-up) and returns the measured phase, which runs a
   fixed virtual duration. Everything random derives from the seed. The
   measured phase returns the op accounting, a digest text of the
   simulated results (identical for a seed whether traced or not) and
   the per-layer counts. *)

type outcome = {
  attempted : int;
  failed : int;
  digest : string;
  sim : (string * float) list;  (** simulated statistics, for the log *)
  counts : (string * float) list;  (** per-layer counts and probe figures *)
}

type t = {
  name : string;
  hook_decisions : bool;  (** decisions are app hooks, not runtime ticks *)
  prepare : trace:bool -> seed:int -> unit -> outcome;
}

let id = Proto.Node_id.of_int

(* Per-event host time of the engine, from timed slices of the traced
   run: each slice is a root span around [run_for]. *)
module Slices = struct
  let per_event_us = Span.Samples.create ()
  let log : (float * int) list ref = ref []  (* virtual end, ns *)

  let record ~vend ~ns ~events =
    if !Span.on then begin
      if events > 0 then Span.Samples.add per_event_us (float_of_int ns /. 1e3 /. float_of_int events);
      log := (vend, ns) :: !log
    end

  (* Host time of the last tenth of the virtual interval over the first. *)
  let growth () =
    match !log with
    | [] -> 0.
    | (last, _) :: _ ->
        let first = List.fold_left (fun acc (v, _) -> Float.min acc v) last !log in
        let tenth = (last -. first) /. 10. in
        let sum keep = List.fold_left (fun acc (v, ns) -> if keep v then acc + ns else acc) 0 !log in
        let early = sum (fun v -> v <= first +. tenth) and late = sum (fun v -> v > last -. tenth) in
        if early = 0 then 0. else float_of_int late /. float_of_int early
end

let fork_us = Span.Samples.create ()

let fork_probe fork eng =
  if !Span.on then begin
    let _, ns = Span.timed "engine.fork" (fun () -> ignore (Sys.opaque_identity (fork eng))) in
    Span.Samples.add fork_us (float_of_int ns /. 1e3)
  end

(* Helpers shared by every engine instance, whichever functor made it. *)
module Probe (App : Proto.App_intf.APP) (E : module type of Engine.Sim.Make (App)) = struct
  let counts eng =
    let s = E.stats eng in
    List.map
      (fun (k, v) -> (k, float_of_int v))
      [
        ("engine.events", s.E.events_processed);
        ("engine.forks", s.E.lookahead_forks);
        ("store.wal_appends", s.E.wal_appends);
        ("store.bytes", s.E.store_bytes_written);
        ("store.recoveries", s.E.recoveries);
        ("net.dropped", s.E.messages_dropped);
        ("net.duplicated", s.E.messages_duplicated);
        ("net.corrupted", s.E.messages_corrupted);
        ("net.reordered", s.E.messages_reordered);
        ("wire.decode_failures", s.E.decode_failures);
        ("byz.emitted", s.E.byz_emitted);
        ("byz.rejected", s.E.byz_rejected);
        ("byz.accepted", s.E.byz_accepted);
        ("overload.sheds", s.E.sheds_mailbox + s.E.sheds_link + s.E.sheds_admission + s.E.sheds_sojourn);
        ("clock.clamped", s.E.clock_clamped);
      ]

  let digest buf eng =
    let s = E.stats eng in
    Printf.bprintf buf "events=%d delivered=%d dropped=%d filtered=%d decisions=%d forks=%d wal=%d\n"
      s.E.events_processed s.E.messages_delivered s.E.messages_dropped s.E.messages_filtered
      s.E.decisions s.E.lookahead_forks s.E.wal_appends;
    List.iter
      (fun (at, name) -> Printf.bprintf buf "violation %s at %.6f\n" name (Dsim.Vtime.to_seconds at))
      (List.rev (E.violations eng))

  (* Advances [dt] virtual seconds as one root span. *)
  let run_slice eng dt =
    let before = if !Span.on then (E.stats eng).E.events_processed else 0 in
    let (), ns = Span.timed "engine" (fun () -> E.run_for eng dt) in
    if !Span.on then
      Slices.record ~vend:(Dsim.Vtime.to_seconds (E.now eng)) ~ns
        ~events:((E.stats eng).E.events_processed - before)
end

(* Counts only the steering runtime produces; zero where it is absent. *)
let runtime_counts =
  [
    "explore.calls"; "explore.worlds"; "explore.deduped"; "explore.collisions"; "explore.probes";
    "explore.probe_ms"; "explore.cached_share"; "checkpoint.count"; "steer.rounds"; "steer.vetoes";
    "steer.cannot";
  ]

let sum_nodes f nodes = List.fold_left (fun acc (_, st) -> acc + f st) 0 nodes

(* ---------- paxos5-steady ---------- *)

module Paxos_app = Apps.Paxos.Make (struct
  let population = 5
  let client_period = 0.25
  let retry_timeout = 2.0
end)

module Paxos = struct
  module A = Traced.Make (Paxos_app)
  module E = Engine.Sim.Make (A)
  module P = Probe (A) (E)

  let population = 5
  let warmup = 2.0
  let duration = 30.0

  let topology () =
    Net.Topology.uniform ~n:population (Net.Linkprop.v ~latency:0.02 ~bandwidth:1_000_000. ~loss:0.)

  let create ~seed =
    let eng = E.create ~seed ~jitter:0. ~topology:(topology ()) () in
    Dsim.Trace.set_min_level (E.trace eng) Dsim.Trace.Info;
    E.set_resolver eng (Traced.resolver Apps.Paxos.self_resolver);
    for i = 0 to population - 1 do
      E.spawn eng (id i)
    done;
    eng

  let prepare ~trace:_ ~seed =
    let eng = create ~seed in
    E.run_for eng warmup;
    fun () ->
      (* Commands born more than a second before the end must have
         committed by then; younger ones are still in flight. *)
      let slices = int_of_float ((duration -. 1.) /. 0.1) in
      for i = 1 to slices do
        P.run_slice eng 0.1;
        if i mod 10 = 0 then fork_probe E.fork eng;
        Span.Units.mark ()
      done;
      let born = List.map (fun (n, st) -> (Proto.Node_id.to_int n, Paxos_app.born_count st)) (E.live_nodes eng) in
      for _ = 1 to 10 do
        P.run_slice eng 0.1;
        Span.Units.mark ()
      done;
      let nodes = E.live_nodes eng in
      let committed = Hashtbl.create 4096 in
      List.iter
        (fun (_, st) ->
          Apps.Paxos.Int_map.iter
            (fun _ (c : Apps.Paxos.cmd) -> Hashtbl.replace committed (c.origin, c.seq) ())
            (Paxos_app.decided st))
        nodes;
      let attempted = List.fold_left (fun acc (_, b) -> acc + b) 0 born in
      let failed =
        List.fold_left
          (fun acc (origin, b) ->
            let missing = ref 0 in
            for seq = 0 to b - 1 do
              if not (Hashtbl.mem committed (origin, seq)) then incr missing
            done;
            acc + !missing)
          0 born
      in
      let lat = Span.Samples.create () in
      List.iter (fun (_, st) -> List.iter (Span.Samples.add lat) (Paxos_app.latencies st)) nodes;
      let p99 = Span.Samples.percentile lat 0.99 *. 1000. in
      let buf = Buffer.create 256 in
      P.digest buf eng;
      Printf.bprintf buf "commands born=%d committed=%d failed=%d commit_p99_ms=%.6f\n" attempted
        (Hashtbl.length committed) failed p99;
      List.iter
        (fun (n, st) ->
          Printf.bprintf buf "node %d decided=%d born=%d\n" (Proto.Node_id.to_int n)
            (Apps.Paxos.Int_map.cardinal (Paxos_app.decided st))
            (Paxos_app.born_count st))
        nodes;
      {
        attempted;
        failed;
        digest = Buffer.contents buf;
        sim = [ ("sim_commit_p99_ms", p99) ];
        counts = P.counts eng;
      }
end

(* ---------- gossip32-lookahead ---------- *)

module Gossip = struct
  module A = Traced.Make (Apps.Gossip.Default)
  module E = Engine.Sim.Make (A)
  module P = Probe (A) (E)

  let population = Apps.Gossip.Default_params.population
  let waves = 2
  let cap = 30.0
  let window = 5.0
  let source = id 1

  (* One fixed WAN: the seed varies spawn times and the engine's random
     streams, not the link latencies. *)
  let topology_seed = 42

  let prepare ~trace:_ ~seed =
    let scenario = Experiments.Gossip_exp.Slow_stub in
    let eng = E.create ~seed ~topology:(Experiments.Gossip_exp.topology ~seed:topology_seed ~scenario) () in
    E.set_lookahead eng ~fallback:(Traced.resolver Core.Resolver.random)
      { E.default_lookahead with horizon = 1.5; max_events = 300; max_candidates = 4 };
    let rng = Dsim.Rng.create (seed + 3) in
    for i = 0 to population - 1 do
      E.spawn eng ~after:(Dsim.Rng.float rng 0.2) (id i)
    done;
    E.run_for eng 3.0;
    fun () ->
      let covered rumor =
        List.for_all (fun (_, st) -> Apps.Gossip.Int_set.mem rumor (Apps.Gossip.Default.known st)) (E.live_nodes eng)
      in
      let slices = ref 0 in
      let slice () =
        P.run_slice eng 0.1;
        if !slices mod 10 = 9 then fork_probe E.fork eng;
        incr slices;
        Span.Units.mark ()
      in
      let per_wave = int_of_float (window /. 0.1) in
      (* Wave [w] starts [w * window] virtual s into the phase, or when
         wave [w - 1] has covered if that is later, and the phase lasts
         [waves * window] virtual s unless the waves ran late. So the
         work a rep measures does not hang on how fast this seed's
         waves happened to spread. *)
      let times =
        List.init waves (fun wave ->
            while !slices < per_wave * wave do
              slice ()
            done;
            let from = E.now eng in
            E.inject eng ~src:source ~dst:source (Apps.Gossip.Push { rumors = [ wave ]; round = 0 });
            let rec poll () =
              let t = Dsim.Vtime.diff (E.now eng) from in
              if covered wave then t
              else if t >= cap then cap
              else begin
                slice ();
                poll ()
              end
            in
            poll ())
      in
      while !slices < per_wave * waves do
        slice ()
      done;
      let mean = List.fold_left ( +. ) 0. times /. float_of_int waves in
      let buf = Buffer.create 256 in
      P.digest buf eng;
      List.iteri (fun i t -> Printf.bprintf buf "wave %d coverage=%.6f\n" i t) times;
      {
        attempted = waves;
        failed = List.length (List.filter (fun t -> t >= cap) times);
        digest = Buffer.contents buf;
        sim = [ ("sim_coverage_s", mean) ];
        counts = P.counts eng;
      }
end

(* ---------- lease-steer ---------- *)

module Lease = struct
  module A = Traced.Make (Apps.Lease.Default)
  module R = Runtime.Crystal.Make (A)
  module E = R.E
  module P = Probe (A) (E)

  let population = Apps.Lease.Default_params.population
  let duration = 3000.
  let period = 0.05
  (* Slices between explore probes: about 300 virtual s, off the lease
     cycle's phase so successive probes see different moments of it. *)
  let probe_every = 6007

  (* Slices per timed unit: 10 virtual s. *)
  let unit_slices = 200

  let config =
    {
      Runtime.Config.default with
      Runtime.Config.checkpoint_period = 0.1;
      checkpoint_delay = 0.05;
      steer_period = 0.1;
      filter_ttl = 0.5;
    }

  let prepare ~trace ~seed =
    let topology =
      Net.Topology.uniform ~n:population (Net.Linkprop.v ~latency:0.3 ~bandwidth:1_000_000. ~loss:0.)
    in
    let eng = E.create ~seed ~jitter:0. ~topology () in
    E.set_resolver eng (Traced.resolver Core.Resolver.random);
    for i = 0 to population - 1 do
      E.spawn eng (id i)
    done;
    let registry = if trace then Some (Obs.Registry.create ()) else None in
    let cry =
      R.attach ?obs:registry ~config ~neighbors:(fun _ -> List.init population id) eng
    in
    fun () ->
      let probe_cache = R.Ex.create_cache () in
      let probe_reg = Obs.Registry.create () in
      let probe_ms = Span.Samples.create () and hit_rate = Span.Samples.create () in
      let slices = int_of_float (duration /. period) in
      for i = 1 to slices do
        P.run_slice eng period;
        let rounds = (R.report cry).R.steering_rounds in
        let (), ns =
          Span.timed "checkpoint" (fun () ->
              R.tick cry;
              if (R.report cry).R.steering_rounds > rounds then Span.rename "steer")
        in
        if (R.report cry).R.steering_rounds > rounds then Span.Samples.add Traced.decide_ms (float_of_int ns /. 1e6);
        if !Span.on && i mod probe_every = 0 then begin
          Option.iter
            (fun view ->
              let _, ns =
                Span.timed "explore" (fun () ->
                    R.Ex.explore ~max_worlds:config.Runtime.Config.max_worlds ~cache:probe_cache
                      ~obs:probe_reg ~depth:config.Runtime.Config.steer_depth (R.Ex.world_of_view view))
              in
              Span.Samples.add probe_ms (float_of_int ns /. 1e6);
              Span.Samples.add hit_rate
                (Obs.Registry.gauge_value
                   (Obs.Registry.gauge probe_reg ~name:"mc_cache_hit_rate" ~labels:[ ("phase", "explore") ])))
            (R.latest_view cry);
          fork_probe E.fork eng
        end;
        if i mod unit_slices = 0 then Span.Units.mark ()
      done;
      let rep = R.report cry in
      let nodes = E.live_nodes eng in
      let grants = sum_nodes Apps.Lease.Default.grants_made nodes in
      let violations = List.length (E.violations eng) in
      let buf = Buffer.create 256 in
      P.digest buf eng;
      Printf.bprintf buf
        "grants=%d checkpoints=%d rounds=%d vetoes=%d cannot=%d worlds=%d cached=%d collisions=%d\n"
        grants rep.R.checkpoints_taken rep.R.steering_rounds rep.R.vetoes_installed rep.R.cannot_steer
        rep.R.worlds_explored rep.R.outcomes_cached rep.R.fingerprint_collisions;
      (* Steering explores record under two phases: the base explore
         and the candidate-veto re-explores. *)
      let counter name =
        match registry with
        | None -> 0.
        | Some reg ->
            List.fold_left
              (fun acc phase ->
                acc
                +. float_of_int
                     (Obs.Registry.counter_value (Obs.Registry.counter reg ~name ~labels:[ ("phase", phase) ])))
              0. [ "steer-base"; "steer-veto" ]
      in
      let mean s = if Span.Samples.count s = 0 then 0. else Span.Samples.sum s /. float_of_int (Span.Samples.count s) in
      {
        attempted = grants;
        failed = violations;
        digest = Buffer.contents buf;
        sim = [ ("sim_vetoes", float_of_int rep.R.vetoes_installed) ];
        counts =
          P.counts eng
          @ [
              ("explore.calls", counter "mc_explores");
              ("explore.worlds", float_of_int rep.R.worlds_explored);
              ("explore.deduped", counter "mc_worlds_deduped");
              ("explore.collisions", float_of_int rep.R.fingerprint_collisions);
              ("explore.probes", float_of_int (Span.Samples.count probe_ms));
              ("explore.probe_ms", Span.Samples.percentile probe_ms 0.5);
              ("explore.cached_share", mean hit_rate);
              ("checkpoint.count", float_of_int rep.R.checkpoints_taken);
              ("steer.rounds", float_of_int rep.R.steering_rounds);
              ("steer.vetoes", float_of_int rep.R.vetoes_installed);
              ("steer.cannot", float_of_int rep.R.cannot_steer);
            ];
      }
end

(* ---------- chaos-storm ---------- *)

(* The chaos experiment's paxos and kvstore storms with every knob on. *)
let storm_profile base =
  let open Experiments.Chaos_exp in
  with_byz (-1) (with_drift 2 (with_overload 2 (with_flaps 2 base)))

let storm_verdict buf ~app ~violations ~recovered ~self_healed ~shed_bounded ~overload_recovered ~plan =
  Printf.bprintf buf "storm %s violations=%d recovered=%b healed=%b bounded=%b drained=%b\nplan:\n%s\n" app
    violations recovered self_healed shed_bounded overload_recovered
    (Format.asprintf "%a" Engine.Faultplan.pp plan);
  violations > 0 || not (recovered && self_healed && shed_bounded && overload_recovered)

module Storm (App : Proto.App_intf.APP) (Spec : sig
  val app : string
  val population : int
  val resolver : Core.Resolver.t
  val base : Engine.Chaos.profile

  (* Recovery check given the live states after the storm. *)
  val recovered : (Proto.Node_id.t * App.state) list -> (Proto.Node_id.t * App.state) list -> bool
end) =
struct
  module A = Traced.Make (App)
  module S = Engine.Chaos.Soak (A)
  module P = Probe (A) (S.E)

  let setup ~seed eng =
    S.E.set_resolver eng (Traced.resolver Spec.resolver);
    S.E.set_overload eng
      ~config:{ S.E.default_overload with S.E.mailbox_capacity = 64; shed = S.E.By_priority; service_time = 5e-4 };
    S.E.enable_breaker eng;
    let rng = Dsim.Rng.create (seed + 77) in
    for i = 0 to Spec.population - 1 do
      S.E.spawn eng ~after:(Dsim.Rng.float rng 0.3) (id i)
    done

  (* The soak's own set-up and warm-up, on a throwaway engine. *)
  let setup_alone ~seed =
    let eng = S.E.create ~seed ~topology:(Experiments.Chaos_exp.topology ~n:Spec.population) () in
    setup ~seed eng;
    S.E.run_for eng 2.

  let run ~seed buf =
    let last = ref None in
    let o, _ =
      Span.timed "engine" (fun () ->
          S.run ~seed ~topology:(Experiments.Chaos_exp.topology ~n:Spec.population)
            (storm_profile Spec.base) ~setup:(setup ~seed) ~recovered:(fun eng ->
              last := Some eng;
              fork_probe S.E.fork eng;
              let before = S.E.live_nodes eng in
              fun () -> Spec.recovered before (S.E.live_nodes eng)))
    in
    let eng = Option.get !last in
    Printf.bprintf buf "%s elapsed=%.6f " Spec.app o.S.elapsed;
    P.digest buf eng;
    let failed =
      storm_verdict buf ~app:Spec.app ~violations:(List.length o.S.violations) ~recovered:o.S.recovered
        ~self_healed:o.S.self_healed ~shed_bounded:o.S.shed_bounded
        ~overload_recovered:o.S.overload_recovered ~plan:o.S.plan
    in
    (failed, P.counts eng)
end

module Paxos_storm =
  Storm
    (Apps.Paxos.Default)
    (struct
      let app = "paxos"
      let population = Apps.Paxos.Default_params.population
      let resolver = Apps.Paxos.round_robin_resolver ~population
      let base = Experiments.Chaos_exp.paxos_profile
      let progress st = Apps.Paxos.Int_map.cardinal (Apps.Paxos.Default.decided st)

      (* Consensus recovered iff the log keeps growing after the storm. *)
      let recovered before after = sum_nodes progress after > sum_nodes progress before
    end)

module Kv_storm =
  Storm
    (Apps.Kvstore.Default)
    (struct
      let app = "kvstore"
      let population = Apps.Kvstore.Default_params.population
      let resolver = Apps.Kvstore.session_resolver
      let base = Experiments.Chaos_exp.kvstore_profile
      let progress = Apps.Kvstore.Default.applied_seq

      (* Anti-entropy closes the gap: every replica reaches the head the
         primary had when the storm ended. *)
      let recovered before after =
        let head = List.fold_left (fun acc (_, st) -> max acc (progress st)) 0 before in
        List.for_all (fun (_, st) -> progress st >= head) after
    end)

(* Which faults a storm draws, and so its work and heap, depends on its
   seed, so a rep runs the storms of [storms] sub-seeds to weigh one
   seed's luck less; more would leave a run too few reps. Sub-seed [i]
   is [seed + 100_000 * i]; the first is the seed itself. *)
let storms = 3

(* A storm is one call, so its timed units are cut by app hooks: about
   16,000 per storm, so this makes about 200 units a rep. *)
let storm_unit_hooks = 500

let chaos ~trace:_ ~seed =
  let seeds = List.init storms (fun i -> seed + (100_000 * i)) in
  List.iter
    (fun seed ->
      Paxos_storm.setup_alone ~seed;
      Kv_storm.setup_alone ~seed)
    seeds;
  fun () ->
    Span.Units.every := storm_unit_hooks;
    let buf = Buffer.create 4096 in
    let pairs =
      List.map
        (fun seed ->
          let paxos = Paxos_storm.run ~seed buf in
          Span.Units.mark ();
          let kv = Kv_storm.run ~seed buf in
          Span.Units.mark ();
          (paxos, kv))
        seeds
    in
    Span.Units.every := 0;
    let runs = List.concat_map (fun (paxos, kv) -> [ paxos; kv ]) pairs in
    let failed app = float_of_int (List.length (List.filter (fun r -> fst (app r)) pairs)) in
    let counts = List.map snd runs in
    let total key = List.fold_left (fun acc c -> acc +. List.assoc key c) 0. counts in
    {
      attempted = List.length runs;
      failed = List.length (List.filter fst runs);
      digest = Buffer.contents buf;
      sim = [ ("sim_paxos_failed", failed fst); ("sim_kvstore_failed", failed snd) ];
      counts = List.map (fun (key, _) -> (key, total key)) (List.hd counts);
    }

let all =
  [
    { name = "paxos5-steady"; hook_decisions = true; prepare = Paxos.prepare };
    { name = "gossip32-lookahead"; hook_decisions = true; prepare = Gossip.prepare };
    { name = "lease-steer"; hook_decisions = false; prepare = Lease.prepare };
    { name = "chaos-storm"; hook_decisions = true; prepare = chaos };
  ]
